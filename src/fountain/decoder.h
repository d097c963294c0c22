// Incremental Gaussian-elimination decoder for the random linear fountain.
//
// The receiver feeds symbols as they arrive (from any subflow, in any
// order); the decoder reduces each against its pivot rows, drops linearly
// dependent symbols on the spot (paper §III-B: "checks the linear
// independence and drops redundant symbols"), and reports the current rank
// k̄_b for the ACK feedback. Once rank == k̂ it back-substitutes and
// recovers the original block.
//
// Elimination is *lazy* on payloads: the online phase works on word-packed
// coefficient vectors only, recording per pivot row a second k-bit
// composition vector that indexes the raw stored symbol payloads. Payload
// byte XORs are deferred to decode(), where back-substitution runs on the
// (coefficients, composition) pair and every source symbol is then
// materialised as one sparse combination of raw payloads, applied once.
// The online phase is therefore rank-only: add_symbol() touches zero
// payload bytes by construction.
//
// Storage is a flat fused row arena: pivot row p is one record of
// `stride_words` 64-bit words at rows_[p * stride_words] — coefficient
// half first, composition half immediately after — so one loop
// (reduce_record) eliminates both halves per step with no per-row
// allocation, for every k̂.
//
// decode() back-substitutes on the symbolic rows with a blocked
// (8-column) method-of-four-Russians triangular solve, then composes the
// payloads by direct sparse XOR or adaptive 4/8-bit group tables. Every
// choice depends only on k̂ and the symbol stream, never on the machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/aligned.h"
#include "common/buffer_pool.h"
#include "fountain/block.h"
#include "fountain/gf2.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Reusable decode() workspace: solve tables and M4R payload tables.
/// One scratch serves any number of decoders (receiver-wide, or across a
/// bench's blocks), so the table allocations amortise across blocks
/// instead of being paid per decode. Not thread-safe; use one per thread.
class DecodeScratch {
 public:
  DecodeScratch() = default;
  DecodeScratch(const DecodeScratch&) = delete;
  DecodeScratch& operator=(const DecodeScratch&) = delete;

 private:
  friend class BlockDecoder;
  AlignedWords solve_tables_;   ///< Blocked-solve subset tables (≤256 rows).
  AlignedBytes payload_tables_; ///< M4R payload strip tables.
  std::vector<const std::uint64_t*> comp_ptrs_;
  std::vector<std::uint8_t*> dst_ptrs_;
};

class BlockDecoder {
 public:
  /// `pool`, when set, receives the payload buffers of dropped redundant
  /// symbols and of stored symbols once the block has been decoded, so
  /// the encoder side of the same simulator can reuse them.
  BlockDecoder(std::uint32_t symbols, std::size_t symbol_bytes,
               BufferPool* pool = nullptr);

  /// Inserts a symbol given its expanded coefficients and payload.
  /// Returns true if the symbol was innovative (rank increased).
  /// Takes ownership of `data`: the bytes are stored (or recycled)
  /// without copying.
  bool add_symbol(const BitVector& coeffs, AlignedBytes&& data);

  /// Copying convenience overload (tests and observers).
  bool add_symbol(const BitVector& coeffs, const AlignedBytes& data);

  /// Inserts a wire symbol, taking ownership of its payload bytes
  /// (coefficients regenerated from its seed). The hot-path form: the
  /// receiver moves each symbol straight off the packet.
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

  /// Receive-buffer bytes this block currently pins (stored symbol rows).
  std::size_t buffered_bytes() const;

  /// Recovers the original block. Requires complete().
  /// Idempotent; the first call performs back-substitution and the
  /// deferred payload XORs (using a private scratch).
  const BlockData& decode();

  /// As decode(), but working in caller-owned scratch so table storage
  /// amortises across blocks (the receiver passes one per connection).
  const BlockData& decode(DecodeScratch& scratch);

  // --- Cost introspection (the receiver exports these as fountain.*) ---
  /// Payload bytes run through the XOR kernels (decode() only).
  std::uint64_t payload_bytes_xored() const { return payload_bytes_xored_; }
  /// 64-bit coefficient/composition words XORed in elimination.
  std::uint64_t coeff_word_xors() const { return coeff_word_xors_; }
  /// Source rows materialised at decode().
  std::uint64_t rows_composed() const { return rows_composed_; }

 private:
  /// Expands a wire symbol's coefficients into scratch_coeffs_.
  void expand_coefficients(const net::EncodedSymbol& symbol);

  /// Copies a payload for the copying overloads, through the pool when
  /// one is attached.
  AlignedBytes copy_payload(const AlignedBytes& data);

  std::uint64_t* row(std::size_t p) { return rows_.data() + p * stride_words_; }
  const std::uint64_t* row(std::size_t p) const {
    return rows_.data() + p * stride_words_;
  }
  std::uint64_t* row_comp(std::size_t p) { return row(p) + coeff_words_; }
  const std::uint64_t* row_comp(std::size_t p) const {
    return row(p) + coeff_words_;
  }
  bool has_pivot(std::size_t p) const {
    return ((present_[p >> 6] >> (p & 63)) & 1ULL) != 0;
  }

  /// Symbolic back-substitution via 8-column blocked M4R over the fused
  /// rows; afterwards each pivot row's composition is final. Dispatches
  /// to a constant-W instantiation for common widths (the W-word inner
  /// XORs fully unroll); WC = 0 is the runtime-width fallback.
  std::uint64_t solve_symbolic_blocked(DecodeScratch& scratch);
  template <std::size_t WC>
  std::uint64_t solve_symbolic_blocked_impl(DecodeScratch& scratch);

  /// Reduces the incoming record in scratch_row_ against the pivot
  /// rows. Constant-W instantiations (W = 1, 2, 3, 4, 6, 8) keep the
  /// whole fused record in registers across the scan (general-purpose
  /// up to W = 3, 16-byte vectors above), so the serial
  /// eliminate-and-rescan chain has no store-to-load stalls; WC = 0 is
  /// the runtime-width loop, which XORs each step's off-chain words with
  /// the dispatched kernel. Returns the free pivot (or k̂ if redundant)
  /// and adds to `words`.
  std::size_t reduce_record(std::uint64_t& words);
  template <std::size_t WC>
  std::size_t reduce_record_impl(std::uint64_t& words);

  /// Materialises `nrows` payload rows: dsts[i] ^= XOR of stored_ slots
  /// selected by comps[i] (k̂-bit vectors). Picks direct sparse gather or
  /// strip-processed 4/8-bit M4R group tables by total set-bit cost.
  std::uint64_t compose_rows(const std::uint64_t* const* comps,
                             std::uint8_t* const* dsts, std::size_t nrows,
                             DecodeScratch& scratch);

  std::uint64_t compose_rows_direct(const std::uint64_t* const* comps,
                                    std::uint8_t* const* dsts,
                                    std::size_t nrows);
  std::uint64_t compose_rows_m4r(const std::uint64_t* const* comps,
                                 std::uint8_t* const* dsts,
                                 std::size_t nrows, std::size_t group_bits,
                                 DecodeScratch& scratch);

  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  BufferPool* pool_ = nullptr;
  std::uint32_t rank_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t payload_bytes_xored_ = 0;
  std::uint64_t coeff_word_xors_ = 0;
  std::uint64_t rows_composed_ = 0;
  std::size_t coeff_words_;   ///< ceil(k̂ / 64).
  std::size_t stride_words_;  ///< Record stride: 2·coeff_words_.
  /// Flat fused row arena: record p = [coeffs | comp] at p·stride_words_.
  /// Pivot row p has its lowest coefficient bit at p; absent rows zero.
  AlignedWords rows_;
  std::vector<std::uint64_t> present_;  ///< Pivot-present bitmap.
  AlignedWords scratch_row_;            ///< Incoming record being reduced.
  /// Raw payloads of stored (innovative) symbols, in arrival order; slot
  /// j is what comp bit j refers to.
  std::vector<AlignedBytes> stored_;
  BitVector scratch_coeffs_;  ///< Reused across add_symbol calls.
  std::optional<BlockData> decoded_;
};

}  // namespace fmtcp::fountain
