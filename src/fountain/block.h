// Source-data block: the fountain coding unit (paper §III-B).
//
// A block holds k̂ source symbols of `symbol_bytes` each. The paper ties
// symbol size to block size (k̂-bit symbols, k̂² bits per block) for
// notational convenience; we keep the two independent, which preserves the
// code and the failure model while allowing realistic packet payloads
// (documented substitution in DESIGN.md).
#pragma once

#include <cstdint>

#include "common/aligned.h"
#include "common/rng.h"

namespace fmtcp::fountain {

class BlockData {
 public:
  /// Zero-filled block of `symbols` symbols, `symbol_bytes` bytes each.
  BlockData(std::uint32_t symbols, std::size_t symbol_bytes);

  std::uint32_t symbols() const { return symbols_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }
  std::size_t total_bytes() const { return bytes_.size(); }

  /// Mutable access to symbol i's bytes (contiguous).
  std::uint8_t* symbol(std::uint32_t i);
  const std::uint8_t* symbol(std::uint32_t i) const;

  /// Copies symbol i out as a (64-byte-aligned) vector.
  AlignedBytes symbol_copy(std::uint32_t i) const;

  const AlignedBytes& bytes() const { return bytes_; }
  AlignedBytes& bytes() { return bytes_; }

 private:
  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  /// 64-byte aligned so decode() output rows start the kernels on the
  /// wide fast path. Symbol stride stays symbol_bytes_ — the byte
  /// layout is unchanged; only the base pointer gains alignment.
  AlignedBytes bytes_;
};

/// Deterministic pseudo-random block content derived from `block_id`:
/// eight bytes per RNG draw (little-endian), the tail from one more
/// draw. Sender and verifying receiver can regenerate the same bytes,
/// giving end-to-end integrity checking without storing the whole stream.
BlockData make_deterministic_block(std::uint64_t block_id,
                                   std::uint32_t symbols,
                                   std::size_t symbol_bytes);

/// True if `block` holds exactly make_deterministic_block(block_id, ...)'s
/// bytes for its shape. Compares against the generator directly, so no
/// second block is built.
bool matches_deterministic_block(std::uint64_t block_id,
                                 const BlockData& block);

}  // namespace fmtcp::fountain
