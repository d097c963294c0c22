// Dense GF(2) vectors: the coefficient algebra of the random linear
// fountain code (paper Eq. 1).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace fmtcp::fountain {

/// Fixed-length bit vector over GF(2), packed into 64-bit words.
///
/// Vectors of up to kInlineWords * 64 bits (k ≤ 128, which covers every
/// paper configuration) are stored inline with no heap allocation; larger
/// vectors spill to a heap block. Word-level accessors expose the packed
/// representation so hot loops can iterate set *words* instead of probing
/// bits one at a time.
class BitVector {
 public:
  /// Inline-storage threshold, in 64-bit words (128 bits).
  static constexpr std::size_t kInlineWords = 2;

  /// Empty vector (size() == 0); call reset() before use.
  BitVector() = default;

  /// All-zero vector of `bits` bits.
  explicit BitVector(std::size_t bits) { reset_checked(bits); }

  BitVector(const BitVector& other) { copy_from(other); }
  BitVector& operator=(const BitVector& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  BitVector(BitVector&& other) noexcept { steal_from(other); }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      heap_ = nullptr;
      steal_from(other);
    }
    return *this;
  }
  ~BitVector() { delete[] heap_; }

  /// Uniformly random vector (each bit i.i.d. fair). May be all-zero;
  /// callers that need a usable coefficient vector should re-draw.
  static BitVector random(std::size_t bits, Rng& rng);

  /// As random(), but fills `out` in place (reusing its storage) instead
  /// of constructing a fresh vector. Consumes `rng` identically.
  static void random_into(std::size_t bits, Rng& rng, BitVector& out);

  /// Makes *this an all-zero vector of `bits` bits, reusing existing
  /// storage when it is large enough.
  void reset(std::size_t bits) { reset_checked(bits); }

  std::size_t size() const { return bits_; }

  /// Number of packed 64-bit words ((size() + 63) / 64).
  std::size_t word_count() const { return nwords_; }

  /// The packed words, low bits first; padding past size() is zero.
  const std::uint64_t* word_data() const { return words(); }

  /// Mutable packed words. Callers must keep padding bits past size()
  /// zero (equality/popcount assume it).
  std::uint64_t* word_data() { return words(); }

  bool get(std::size_t i) const {
    FMTCP_DCHECK(i < bits_);
    return (words()[i / 64] >> (i % 64)) & 1ULL;
  }

  void set(std::size_t i, bool value) {
    FMTCP_DCHECK(i < bits_);
    const std::uint64_t mask = 1ULL << (i % 64);
    if (value) {
      words()[i / 64] |= mask;
    } else {
      words()[i / 64] &= ~mask;
    }
  }

  /// this ^= other (sizes must match).
  void xor_with(const BitVector& other) {
    FMTCP_DCHECK(bits_ == other.bits_);
    std::uint64_t* w = words();
    const std::uint64_t* o = other.words();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] ^= o[i];
  }

  /// True if any bit is set.
  bool any() const {
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (w[i] != 0) return true;
    }
    return false;
  }

  /// Index of the lowest set bit, or size() if none.
  std::size_t lowest_set_bit() const {
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (w[i] != 0) {
        return i * 64 + static_cast<std::size_t>(std::countr_zero(w[i]));
      }
    }
    return bits_;
  }

  /// Number of set bits.
  std::size_t popcount() const {
    const std::uint64_t* w = words();
    std::size_t total = 0;
    for (std::size_t i = 0; i < nwords_; ++i) {
      total += static_cast<std::size_t>(std::popcount(w[i]));
    }
    return total;
  }

  bool operator==(const BitVector& other) const {
    if (bits_ != other.bits_) return false;
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  std::uint64_t* words() { return heap_ != nullptr ? heap_ : inline_words_; }
  const std::uint64_t* words() const {
    return heap_ != nullptr ? heap_ : inline_words_;
  }

  void reset_checked(std::size_t bits);
  void copy_from(const BitVector& other);
  void steal_from(BitVector& other) noexcept;

  std::size_t bits_ = 0;
  std::size_t nwords_ = 0;
  std::uint64_t inline_words_[kInlineWords] = {0, 0};
  std::uint64_t* heap_ = nullptr;   ///< Owned; null while inline.
  std::size_t heap_words_ = 0;      ///< Heap capacity in words.
};

/// dst[0..size) ^= src[0..size). Dispatches to the widest XOR kernel the
/// CPU supports (fountain/gf2_kernels.h); all variants are bit-identical.
void xor_bytes_raw(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t size);

/// dst ^= src (symbol payload accumulation). Sizes must match. Accepts
/// any contiguous byte containers (std::vector, AlignedBytes, ...).
template <typename DstBytes, typename SrcBytes>
void xor_bytes(DstBytes& dst, const SrcBytes& src) {
  FMTCP_DCHECK(dst.size() == src.size());
  xor_bytes_raw(dst.data(), src.data(), dst.size());
}

/// dst[0..size) = a[0..size) ^ b[0..size) in a single fused pass (no
/// pre-copy). dst must not overlap a or b.
void xor_into(std::uint8_t* dst, const std::uint8_t* a,
              const std::uint8_t* b, std::size_t size);

/// dst ^= srcs[0] ^ ... ^ srcs[n-1], folding up to four sources per pass
/// over dst so the destination is loaded/stored once per batch instead of
/// once per source.
void xor_accumulate(std::uint8_t* dst, const std::uint8_t* const* srcs,
                    std::size_t n, std::size_t size);

/// Batch width callers should gather source pointers in before flushing
/// through xor_accumulate (multiple of the kernel's four-way fold).
inline constexpr std::size_t kXorBatch = 8;

}  // namespace fmtcp::fountain
