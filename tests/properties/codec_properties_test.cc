// Property sweeps over the fountain codec: any (k, symbol size, seed)
// combination must round-trip, and measured redundancy must match the
// analytic expectation.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/coding_analysis.h"
#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/random_linear.h"

namespace fmtcp::fountain {
namespace {

using CodecParam = std::tuple<std::uint32_t /*k*/, std::size_t /*bytes*/,
                              std::uint64_t /*seed*/>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecRoundTrip, DecodesToOriginal) {
  const auto [k, symbol_bytes, seed] = GetParam();
  const BlockData original = make_deterministic_block(seed, k, symbol_bytes);
  SymbolEncoder encoder(CodingField::kGf2, seed, original,
                        Rng(seed * 31 + 7));
  BlockDecoder decoder(k, symbol_bytes);
  int guard = 0;
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next_symbol());
    ASSERT_LT(++guard, static_cast<int>(10 * k + 100));
  }
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
  EXPECT_EQ(decoder.rank(), k);
}

// Rank depends on the coefficients alone: an all-zero block, which
// carries no information, tracks the same rank symbol by symbol as real
// data coded with the same seeds.
TEST_P(CodecRoundTrip, RankOnlyModeTracksSameRank) {
  const auto [k, symbol_bytes, seed] = GetParam();
  SymbolEncoder data_encoder(CodingField::kGf2, seed,
                             make_deterministic_block(seed, k, symbol_bytes),
                             Rng(seed * 31 + 7));
  SymbolEncoder rank_encoder(CodingField::kGf2, seed,
                             BlockData(k, symbol_bytes), Rng(seed * 31 + 7));
  BlockDecoder data_decoder(k, symbol_bytes);
  BlockDecoder rank_decoder(k, symbol_bytes);
  for (std::uint32_t i = 0; i < 2 * k + 8; ++i) {
    const bool a = data_decoder.add_symbol(data_encoder.next_symbol());
    const bool b = rank_decoder.add_symbol(rank_encoder.next_symbol());
    ASSERT_EQ(a, b) << "symbol " << i;
    ASSERT_EQ(data_decoder.rank(), rank_decoder.rank());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 16u, 64u, 128u),
                       ::testing::Values(1u, 16u, 160u),
                       ::testing::Values(1u, 99u)));

class RedundancySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RedundancySweep, MeasuredOverheadMatchesAnalysis) {
  const std::uint32_t k = GetParam();
  Rng rng(k * 1000 + 5);
  double total = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    SymbolEncoder encoder(CodingField::kGf2, t, BlockData(k, 1), rng.fork());
    BlockDecoder decoder(k, 1);
    while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
    total += static_cast<double>(decoder.received_count());
  }
  const double expected = analysis::expected_symbols_to_decode(k);
  EXPECT_NEAR(total / trials, expected, 0.4) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, RedundancySweep,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

class FailureModelSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FailureModelSweep, EquationTwoBoundsEmpiricalFailure) {
  // Receive exactly k̂ + extra random symbols; failure to reach full rank
  // must happen at most ~2^-extra of the time (Eq. 2 is an upper bound).
  const std::uint32_t extra = GetParam();
  const std::uint32_t k = 16;
  Rng rng(extra * 77 + 3);
  int failures = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    SymbolEncoder encoder(CodingField::kGf2, t, BlockData(k, 1), rng.fork());
    BlockDecoder decoder(k, 1);
    for (std::uint32_t i = 0; i < k + extra; ++i) {
      decoder.add_symbol(encoder.next_symbol());
    }
    if (!decoder.complete()) ++failures;
  }
  const double empirical = static_cast<double>(failures) / trials;
  const double bound = decode_failure_probability(
      k, static_cast<double>(k + extra));
  EXPECT_LE(empirical, bound + 0.02) << "extra=" << extra;
}

INSTANTIATE_TEST_SUITE_P(Extras, FailureModelSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 6u));

}  // namespace
}  // namespace fmtcp::fountain
