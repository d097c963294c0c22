// GF(256) random linear codec (CTCP-style ablation; PAPERS.md, Kim et
// al.). The byte-coefficient sibling of random_linear.h + decoder.h:
// each encoded symbol is c_n = sum_k rho_k · g_nk with g_nk drawn
// uniformly from GF(256), carried on the wire as the same 64-bit seed the
// GF(2) codec uses (both ends expand it into k coefficient bytes).
//
// Dense byte coefficients make a redundant reception ~128× less likely
// per extra symbol than GF(2) (failure shrinks 256× per symbol instead
// of 2×), at the price of multiply kernels instead of pure XOR in
// elimination and composition — the overhead/decode-cost tradeoff the
// bench_ablation_gf256 harness measures.
//
// The decoder mirrors BlockDecoder's two-phase lazy structure: the
// online phase eliminates coefficient bytes only, recording per pivot
// row a GF(256) composition vector over the raw stored payloads; payload
// multiplies are deferred to decode(), where back-substitution runs on
// the fused (coefficients | composition) records and each source symbol
// is materialised as one fused multiply-accumulate pass over the stored
// payloads, so the online phase touches zero payload bytes.
//
// Elimination uses partial pivoting in the GF sense: the first nonzero
// coefficient of a reduced row picks its pivot column, and the row is
// normalised (pivot coefficient 1) on storage, so eliminating against a
// pivot is a single fused mul_region over the record suffix.
//
// The invariant that pivot row p is zero below column p is
// load-bearing, not just bookkeeping: the online ops start at the
// 64-byte line holding column p rather than at p (the bytes in between
// are zero in both operands), so consecutive ops on the incoming record
// reload exactly the lines the previous op stored; and back-substitution
// multiplies only the composition half, since when row p is folded into
// row q, row p's coefficients are the unit vector e_p and row q's are
// already clear above column p, so the only coefficient byte the op
// would change is row q's coefficient p, which it simply zeroes.
// coeff_bytes_eliminated() counts the logical suffix [p, 2k̂) per op
// either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/aligned.h"
#include "common/buffer_pool.h"
#include "fountain/block.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Expands a coefficient seed into the k coefficient bytes both ends
/// agree on. All-zero draws are re-rolled deterministically, so the
/// result always has at least one nonzero byte.
void gf256_coefficients_from_seed_into(std::uint64_t seed, std::uint32_t k,
                                       std::vector<std::uint8_t>& out);

/// out = sum_i coeffs[i] · block.symbol(i) (resized and zeroed first, so
/// a recycled buffer's capacity is reused). `coeffs` has block.symbols()
/// bytes.
void gf256_encode_with_coefficients_into(const BlockData& block,
                                         const std::uint8_t* coeffs,
                                         AlignedBytes& out);

/// Incremental GF(256) Gaussian-elimination decoder with lazy payloads.
/// API-compatible subset of BlockDecoder (fountain/codec.h wraps both).
class Gf256RlcDecoder {
 public:
  /// `pool`, when set, receives the payload buffers of dropped redundant
  /// symbols and of stored symbols once the block has been decoded.
  Gf256RlcDecoder(std::uint32_t symbols, std::size_t symbol_bytes,
                  BufferPool* pool = nullptr);

  /// Inserts a symbol given its k expanded coefficient bytes and
  /// payload. Returns true if the symbol was innovative (rank grew).
  /// Takes ownership of `data` without copying.
  bool add_symbol(const std::uint8_t* coeffs, AlignedBytes&& data);

  /// Inserts a wire symbol, taking ownership of its payload bytes
  /// (coefficients regenerated from its seed, or a unit vector for
  /// systematic symbols).
  bool add_symbol(net::EncodedSymbol&& symbol);

  /// Copying convenience overload (tests and observers).
  bool add_symbol(const net::EncodedSymbol& symbol);

  /// Current number of linearly independent symbols, k̄_b.
  std::uint32_t rank() const { return rank_; }

  /// True when rank == k̂ (block decodable).
  bool complete() const { return rank_ == symbols_; }

  std::uint32_t symbols() const { return symbols_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }

  /// Total symbols fed in, including redundant ones.
  std::uint64_t received_count() const { return received_; }

  /// Symbols dropped as linearly dependent.
  std::uint64_t redundant_count() const { return redundant_; }

  /// Recovers the original block. Requires complete().
  /// Idempotent; the first call performs back-substitution and the
  /// deferred payload multiplies.
  const BlockData& decode();

  // --- Cost introspection ---
  /// Payload bytes run through the multiply kernels (decode() only; the
  /// online phase is coefficient-only, so this stays 0 until decode).
  std::uint64_t payload_bytes_multiplied() const {
    return payload_bytes_multiplied_;
  }
  /// Coefficient/composition bytes run through fused elimination ops.
  std::uint64_t coeff_bytes_eliminated() const {
    return coeff_bytes_eliminated_;
  }
  /// Source rows materialised at decode().
  std::uint64_t rows_composed() const { return rows_composed_; }

 private:
  std::uint8_t* row(std::size_t p) { return rows_.data() + p * stride_; }
  const std::uint8_t* row(std::size_t p) const {
    return rows_.data() + p * stride_;
  }
  bool has_pivot(std::size_t p) const {
    return ((present_[p >> 6] >> (p & 63)) & 1ULL) != 0;
  }
  /// Offset of the 64-byte line of the (aligned) incoming record that
  /// holds column p: where the online ops on pivot p start.
  static std::size_t line_start(std::size_t p) {
    return p & ~(kBufferAlignment - 1);
  }

  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  BufferPool* pool_ = nullptr;
  std::uint32_t rank_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t payload_bytes_multiplied_ = 0;
  std::uint64_t coeff_bytes_eliminated_ = 0;
  std::uint64_t rows_composed_ = 0;
  std::size_t stride_;  ///< Record bytes: 2k̂.
  /// Flat fused row arena: record p = [coeffs | composition] at
  /// p·stride_. Pivot row p has coeffs[<p] zero and coeffs[p] == 1
  /// (line_start relies on the zeros); absent rows zero.
  AlignedBytes rows_;
  std::vector<std::uint64_t> present_;  ///< Pivot-present bitmap.
  /// Incoming record being reduced; 64-byte aligned, so line_start(p)
  /// offsets land on cache-line boundaries.
  AlignedBytes scratch_record_;
  /// Raw payloads of stored (innovative) symbols, in arrival order; slot
  /// j is what composition byte j refers to.
  std::vector<AlignedBytes> stored_;
  std::vector<std::uint8_t> scratch_coeffs_;  ///< Seed expansion reuse.
  std::optional<BlockData> decoded_;
};

}  // namespace fmtcp::fountain
