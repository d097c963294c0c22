#include "fountain/random_linear.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "fountain/codec.h"
#include "fountain/gf2_kernels.h"

namespace fmtcp::fountain {
namespace {

TEST(Coefficients, DeterministicFromSeed) {
  const BitVector a = coefficients_from_seed(42, 64);
  const BitVector b = coefficients_from_seed(42, 64);
  EXPECT_TRUE(a == b);
}

TEST(Coefficients, DifferentSeedsDiffer) {
  const BitVector a = coefficients_from_seed(1, 64);
  const BitVector b = coefficients_from_seed(2, 64);
  EXPECT_FALSE(a == b);
}

TEST(Coefficients, NeverAllZero) {
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    EXPECT_TRUE(coefficients_from_seed(seed, 4).any());
  }
}

TEST(Encode, XorOfSelectedSymbols) {
  BlockData block(3, 2);
  block.symbol(0)[0] = 0x01;
  block.symbol(0)[1] = 0x10;
  block.symbol(1)[0] = 0x02;
  block.symbol(1)[1] = 0x20;
  block.symbol(2)[0] = 0x04;
  block.symbol(2)[1] = 0x40;

  BitVector coeffs(3);
  coeffs.set(0, true);
  coeffs.set(2, true);
  const auto encoded = encode_with_coefficients(block, coeffs);
  EXPECT_EQ(encoded, (AlignedBytes{0x05, 0x50}));
}

TEST(Encode, SingleCoefficientCopiesSymbol) {
  const BlockData block = make_deterministic_block(3, 4, 8);
  BitVector coeffs(4);
  coeffs.set(2, true);
  EXPECT_EQ(encode_with_coefficients(block, coeffs), block.symbol_copy(2));
}

/// Per-bit reference for Eq. 1: XOR of every selected source symbol,
/// one coefficient bit and one byte at a time.
AlignedBytes reference_encode(const BlockData& block,
                              const BitVector& coeffs) {
  AlignedBytes out(block.symbol_bytes(), 0);
  for (std::uint32_t i = 0; i < block.symbols(); ++i) {
    if (!coeffs.get(i)) continue;
    for (std::size_t b = 0; b < out.size(); ++b) out[b] ^= block.symbol(i)[b];
  }
  return out;
}

TEST(Encode, MatchesPerBitReferenceUnderEveryKernel) {
  const std::string saved = gf2_kernel().name;
  Rng rng(77);
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    ASSERT_TRUE(gf2_set_kernel(ops->name));
    for (std::uint32_t k : {1u, 2u, 63u, 64u, 65u, 128u, 129u, 256u, 300u,
                            513u}) {
      for (std::size_t symbol_bytes : {1, 7, 8, 160, 161, 1400}) {
        const BlockData block =
            make_deterministic_block(k + symbol_bytes, k, symbol_bytes);
        // 1, 2, 3 and all k bits set, at random positions.
        for (std::uint32_t set : {1u, 2u, 3u, k}) {
          BitVector coeffs(k);
          std::uint32_t placed = 0;
          while (placed < std::min(set, k)) {
            const auto i = static_cast<std::size_t>(rng.next_below(k));
            if (coeffs.get(i)) continue;
            coeffs.set(i, true);
            ++placed;
          }
          SCOPED_TRACE(::testing::Message()
                       << ops->name << " k=" << k << " bytes="
                       << symbol_bytes << " bits=" << coeffs.popcount());
          const AlignedBytes want = reference_encode(block, coeffs);
          EXPECT_EQ(encode_with_coefficients(block, coeffs), want);
          // A recycled buffer of the right size and stale contents.
          AlignedBytes recycled(symbol_bytes, 0xa5);
          encode_with_coefficients_into(block, coeffs, recycled);
          EXPECT_EQ(recycled, want);
        }
      }
    }
  }
  ASSERT_TRUE(gf2_set_kernel(saved.c_str()));
}

TEST(Encode, ZeroCoefficientsGiveZeroSymbol) {
  const BlockData block = make_deterministic_block(5, 70, 9);
  AlignedBytes out(9, 0xff);
  encode_with_coefficients_into(block, BitVector(70), out);
  EXPECT_EQ(out, AlignedBytes(9, 0));
}

TEST(FailureProbability, PaperEquationTwo) {
  EXPECT_EQ(decode_failure_probability(64, 0), 1.0);
  EXPECT_EQ(decode_failure_probability(64, 63), 1.0);
  EXPECT_EQ(decode_failure_probability(64, 64), 1.0);  // 2^0.
  EXPECT_DOUBLE_EQ(decode_failure_probability(64, 65), 0.5);
  EXPECT_DOUBLE_EQ(decode_failure_probability(64, 70), 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(decode_failure_probability(64, 68.5),
                   std::exp2(-4.5));
}

TEST(Encoder, PayloadModeEncodesBytes) {
  Rng rng(5);
  SymbolEncoder encoder(CodingField::kGf2, 9,
                        make_deterministic_block(9, 8, 16), rng);
  const net::EncodedSymbol symbol = encoder.next_symbol();
  EXPECT_EQ(symbol.block, 9u);
  EXPECT_EQ(symbol.block_symbols, 8u);
  EXPECT_EQ(symbol.data.size(), 16u);
  // Re-encode with the regenerated coefficients: must match.
  const BitVector coeffs = coefficients_from_seed(symbol.coeff_seed, 8);
  EXPECT_EQ(symbol.data,
            encode_with_coefficients(make_deterministic_block(9, 8, 16),
                                     coeffs));
}

TEST(Encoder, SymbolsUseFreshSeeds) {
  Rng rng(5);
  SymbolEncoder encoder(CodingField::kGf2, 1,
                        make_deterministic_block(1, 8, 16), rng);
  const auto a = encoder.next_symbol();
  const auto b = encoder.next_symbol();
  EXPECT_NE(a.coeff_seed, b.coeff_seed);
}

}  // namespace
}  // namespace fmtcp::fountain
