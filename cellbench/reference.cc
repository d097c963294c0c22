#include "reference.h"

#include <chrono>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cellbench {
namespace {

constexpr std::size_t kRegionBytes = 8 * 1024;
// About 0.35 ms per call on the 4-vCPU Xeon this was tuned on.
constexpr int kShuffleRounds = 1024;
constexpr int kScalarRounds = 32;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// dst ^= lo[src & 15] ^ hi[src >> 4] over the region, `rounds` times.
void multiply_accumulate_scalar(const std::uint8_t* tables,
                                const std::uint8_t* src, std::uint8_t* dst,
                                int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kRegionBytes; ++i) {
      dst[i] ^= tables[src[i] & 0x0F] ^ tables[16 + (src[i] >> 4)];
    }
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void multiply_accumulate_avx2(
    const std::uint8_t* tables, const std::uint8_t* src, std::uint8_t* dst,
    int rounds) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tables)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tables + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kRegionBytes; i += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      const __m256i y = _mm256_xor_si256(
          _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask)),
          _mm256_shuffle_epi8(
              hi, _mm256_and_si256(_mm256_srli_epi16(x, 4), mask)));
      __m256i* d = reinterpret_cast<__m256i*>(dst + i);
      _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), y));
    }
  }
}
#endif

}  // namespace

Reference::Reference() : tables_(32), src_(kRegionBytes), dst_(kRegionBytes) {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  for (std::uint8_t& b : tables_) b = next();
  for (std::uint8_t& b : src_) b = next();
}

std::uint64_t Reference::time_ns() {
  // One untimed round first brings the region back into L1 after the
  // cell's slices evicted it, so the time tracks the core's speed and not
  // the cell's memory footprint.
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    multiply_accumulate_avx2(tables_.data(), src_.data(), dst_.data(), 1);
    const std::uint64_t begin = now_ns();
    multiply_accumulate_avx2(tables_.data(), src_.data(), dst_.data(),
                             kShuffleRounds);
    return now_ns() - begin;
  }
#endif
  multiply_accumulate_scalar(tables_.data(), src_.data(), dst_.data(), 1);
  const std::uint64_t begin = now_ns();
  multiply_accumulate_scalar(tables_.data(), src_.data(), dst_.data(),
                             kScalarRounds);
  return now_ns() - begin;
}

}  // namespace cellbench
