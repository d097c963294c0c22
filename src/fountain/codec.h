// The coding plane's protocol-facing codec: one encoder and one decoder
// per block, in either coefficient field.
//
// SymbolEncoder encodes in both fields itself: next_symbol() branches on
// the field once, into the GF(2) (random_linear.h) or GF(256)
// (gf256_rlc.h) free functions. SymbolDecoder holds the field's decoder
// (decoder.h or gf256_rlc.h) behind exactly the interface the receiver
// uses. The sender's block manager and the receiver pick the field from
// FmtcpParams::coding_field without any other change: the wire format
// (seed-carrying EncodedSymbol) is shared, and kGf2 is the paper's code.
//
// Decoder dispatch is a std::variant visit per call, far off the hot
// loops (the per-byte work happens inside the held decoder's kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "fountain/block.h"
#include "fountain/coding_field.h"
#include "fountain/decoder.h"
#include "fountain/gf2.h"
#include "fountain/gf256_rlc.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Per-block encoder in the chosen field (paper Eq. 1). Each symbol is a
/// random linear combination of the block's source symbols and carries
/// the 64-bit seed that regenerates its coefficients. Optionally
/// *systematic* (like RFC 5053/6330 Raptor codes): the first k̂ symbols
/// are the source symbols themselves, so a lossless channel decodes for
/// free; repair symbols afterwards are random linear combinations.
class SymbolEncoder {
 public:
  /// `pool`, when set, supplies the payload buffers of emitted symbols
  /// and must outlive the encoder; the symbol stream is the same either
  /// way.
  SymbolEncoder(CodingField field, std::uint64_t block_id, BlockData block,
                Rng rng, bool systematic = false, BufferPool* pool = nullptr);

  /// Generates the next encoded symbol: a source symbol while the
  /// systematic prefix lasts, then fresh random coefficients.
  net::EncodedSymbol next_symbol();

 private:
  CodingField field_;
  std::uint64_t block_id_;
  BlockData block_;
  Rng rng_;
  bool systematic_;
  BufferPool* pool_;
  std::uint64_t generated_ = 0;
  BitVector gf2_coeffs_;                    ///< Reused per GF(2) symbol.
  std::vector<std::uint8_t> gf256_coeffs_;  ///< Reused per GF(256) symbol.
};

/// Per-block decoder in the chosen field.
class SymbolDecoder {
 public:
  SymbolDecoder(CodingField field, std::uint32_t symbols,
                std::size_t symbol_bytes, BufferPool* pool = nullptr);

  /// Hot-path form: takes ownership of the symbol's payload bytes.
  bool add_symbol(net::EncodedSymbol&& symbol);
  /// Copying convenience overload (tests and observers).
  bool add_symbol(const net::EncodedSymbol& symbol);

  std::uint32_t rank() const;
  bool complete() const;
  std::uint32_t symbols() const;
  std::size_t symbol_bytes() const;
  std::uint64_t received_count() const;
  std::uint64_t redundant_count() const;

  /// Recovers the original block (complete() required).
  /// `scratch` amortises GF(2) decode tables across blocks; the GF(256)
  /// decoder has no cross-block tables and ignores it.
  const BlockData& decode(DecodeScratch& scratch);
  const BlockData& decode();

  // --- Cost introspection, in the held field's units ---
  /// Payload bytes run through the kernels at decode(): XORed (GF(2))
  /// or multiply-accumulated (GF(256)).
  std::uint64_t payload_bytes() const;
  /// Elimination work on coefficient/composition records: 64-bit words
  /// XORed (GF(2)) or bytes run through fused multiply ops (GF(256)).
  std::uint64_t coeff_work() const;
  /// Source rows materialised at decode().
  std::uint64_t rows_composed() const;

  CodingField field() const {
    return std::holds_alternative<BlockDecoder>(impl_) ? CodingField::kGf2
                                                       : CodingField::kGf256;
  }

 private:
  std::variant<BlockDecoder, Gf256RlcDecoder> impl_;
};

}  // namespace fmtcp::fountain
