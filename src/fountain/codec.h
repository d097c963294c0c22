// Field-polymorphic codec wrappers.
//
// SymbolEncoder / SymbolDecoder hold either the GF(2) random linear
// codec (random_linear.h + decoder.h) or the GF(256) one (gf256_rlc.h)
// behind exactly the interface the protocol layer uses, so the sender's
// block manager and the receiver pick the coefficient field from
// FmtcpParams::coding_field without any other change — the wire format
// (seed-carrying EncodedSymbol) is shared, and nothing default-on
// changes (kGf2 reproduces the GF(2) plane byte for byte).
//
// Dispatch is a std::variant visit per call, far off the hot loops (the
// per-byte work happens inside the held codec's kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "fountain/block.h"
#include "fountain/coding_field.h"
#include "fountain/decoder.h"
#include "fountain/gf256_rlc.h"
#include "fountain/random_linear.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Per-block encoder in the chosen field. API mirrors the codecs it
/// wraps (payload / rank-only modes, systematic prefix, buffer pool).
class SymbolEncoder {
 public:
  /// Payload mode: encodes real bytes from `block` (copied).
  SymbolEncoder(CodingField field, std::uint64_t block_id, BlockData block,
                Rng rng, bool systematic = false);

  /// Rank-only mode: symbols have empty `data`.
  SymbolEncoder(CodingField field, std::uint64_t block_id,
                std::uint32_t symbols, std::size_t symbol_bytes, Rng rng,
                bool systematic = false);

  net::EncodedSymbol next_symbol();
  void set_buffer_pool(BufferPool* pool);

  CodingField field() const {
    return std::holds_alternative<RandomLinearEncoder>(impl_)
               ? CodingField::kGf2
               : CodingField::kGf256;
  }
  bool systematic() const;
  std::uint64_t block_id() const;
  std::uint32_t symbols() const;
  std::size_t symbol_bytes() const;
  std::uint64_t generated_count() const;

 private:
  std::variant<RandomLinearEncoder, Gf256RlcEncoder> impl_;
};

/// Per-block decoder in the chosen field.
class SymbolDecoder {
 public:
  SymbolDecoder(CodingField field, std::uint32_t symbols,
                std::size_t symbol_bytes, bool track_data,
                BufferPool* pool = nullptr);

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
  std::size_t buffered_bytes() const;

  /// Recovers the original block (complete() and track_data required).
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
