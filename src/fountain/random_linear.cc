#include "fountain/random_linear.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "fountain/gf2_kernels.h"

namespace fmtcp::fountain {

BitVector coefficients_from_seed(std::uint64_t seed, std::uint32_t k) {
  BitVector v;
  coefficients_from_seed_into(seed, k, v);
  return v;
}

void coefficients_from_seed_into(std::uint64_t seed, std::uint32_t k,
                                 BitVector& out) {
  Rng rng(seed);
  BitVector::random_into(k, rng, out);
  while (!out.any()) BitVector::random_into(k, rng, out);
}

AlignedBytes encode_with_coefficients(const BlockData& block,
                                      const BitVector& coeffs) {
  AlignedBytes out;
  encode_with_coefficients_into(block, coeffs, out);
  return out;
}

void encode_with_coefficients_into(const BlockData& block,
                                   const BitVector& coeffs,
                                   AlignedBytes& out) {
  FMTCP_CHECK(coeffs.size() == block.symbols());
  const std::size_t size = block.symbol_bytes();
  // A recycled pool buffer already has the size; no zero fill, since the
  // first pass below overwrites every byte.
  out.resize(size);
  const Gf2KernelOps& ops = gf2_kernel();
  const std::uint8_t* base = block.bytes().data();
  const std::uint64_t* words = coeffs.word_data();
  const std::size_t nwords = coeffs.word_count();
  // Gather the selected source pointers from up to kGatherWords
  // coefficient words, then fold them in with one kernel call: the
  // first pass writes out = a ^ b, so every k̂ <= 256 block encodes in
  // one xor_into plus one xor_accumulate.
  constexpr std::size_t kGatherWords = 4;
  bool written = false;
  for (std::size_t w0 = 0; w0 < nwords; w0 += kGatherWords) {
    const std::uint8_t* srcs[kGatherWords * 64];
    std::size_t n = 0;
    const std::size_t wend = std::min(nwords, w0 + kGatherWords);
    for (std::size_t w = w0; w < wend; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        srcs[n++] = base + i * size;
      }
    }
    std::size_t done = 0;
    if (!written && n > 0) {
      if (n == 1) {
        std::memcpy(out.data(), srcs[0], size);
        done = 1;
      } else {
        ops.xor_into(out.data(), srcs[0], srcs[1], size);
        done = 2;
      }
      written = true;
    }
    if (n > done) ops.xor_accumulate(out.data(), srcs + done, n - done, size);
  }
  if (!written) std::memset(out.data(), 0, size);
}

double decode_failure_probability(std::uint32_t k_hat, double received) {
  if (received < static_cast<double>(k_hat)) return 1.0;
  return std::exp2(-(received - static_cast<double>(k_hat)));
}

}  // namespace fmtcp::fountain
