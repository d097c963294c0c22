#include "fountain/random_linear.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

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
  out.assign(block.symbol_bytes(), 0);
  // Iterate set words, not per-bit get(i), and fold batches of source
  // symbols through one pass over the output.
  const std::uint8_t* srcs[kXorBatch];
  std::size_t n = 0;
  coeffs.for_each_set_bit([&](std::size_t i) {
    srcs[n++] = block.symbol(static_cast<std::uint32_t>(i));
    if (n == kXorBatch) {
      xor_accumulate(out.data(), srcs, n, out.size());
      n = 0;
    }
  });
  if (n > 0) xor_accumulate(out.data(), srcs, n, out.size());
}

double decode_failure_probability(std::uint32_t k_hat, double received) {
  if (received < static_cast<double>(k_hat)) return 1.0;
  return std::exp2(-(received - static_cast<double>(k_hat)));
}

}  // namespace fmtcp::fountain
