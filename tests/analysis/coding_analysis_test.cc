#include "analysis/coding_analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "fountain/codec.h"

namespace fmtcp::analysis {
namespace {

TEST(CodingAnalysis, ExpectedPacketsDeliveredEq3) {
  EXPECT_DOUBLE_EQ(expected_packets_delivered(100, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(expected_packets_delivered(100, 0.5), 200.0);
  EXPECT_NEAR(expected_packets_delivered(64, 0.1), 64.0 / 0.9, 1e-12);
}

TEST(CodingAnalysis, BatchEqualsExpectedDelivered) {
  EXPECT_DOUBLE_EQ(fixed_rate_batch(64, 0.2),
                   expected_packets_delivered(64, 0.2));
}

TEST(CodingAnalysis, ActualDeliveredEq5) {
  // a = 100/(1-0.1); E(X_R) = 0.8 * a.
  EXPECT_NEAR(expected_actual_delivered(100, 0.1, 0.2),
              0.8 * 100.0 / 0.9, 1e-12);
}

TEST(CodingAnalysis, ChernoffBoundEq6) {
  const double bound = no_retransmission_probability_bound(100, 0.05, 0.15);
  const double expected =
      std::exp(-(0.1 * 0.1 * 100) / (3.0 * 0.95 * 0.85));
  EXPECT_NEAR(bound, expected, 1e-12);
}

TEST(CodingAnalysis, ChernoffDecreasesWithBlockSize) {
  const double small = no_retransmission_probability_bound(50, 0.05, 0.15);
  const double large = no_retransmission_probability_bound(500, 0.05, 0.15);
  EXPECT_LT(large, small);
}

TEST(CodingAnalysis, ChernoffEqualLossIsTrivial) {
  EXPECT_DOUBLE_EQ(no_retransmission_probability_bound(100, 0.1, 0.1), 1.0);
}

TEST(CodingAnalysis, FountainBoundEq7) {
  EXPECT_DOUBLE_EQ(fountain_expected_symbols_bound(64, 0.0), 68.0);
  EXPECT_DOUBLE_EQ(fountain_expected_symbols_bound(64, 0.5), 136.0);
}

TEST(CodingAnalysis, ExpectedSymbolsToDecodeApproaches1Point6) {
  const double overhead64 = expected_symbols_to_decode(64) - 64.0;
  EXPECT_NEAR(overhead64, 1.6067, 0.01);
  const double overhead8 = expected_symbols_to_decode(8) - 8.0;
  EXPECT_GT(overhead8, 1.5);
  EXPECT_LT(overhead8, 1.7);
}

TEST(CodingAnalysis, ExpectedSymbolsBelowPaperBound) {
  for (std::uint32_t k : {8u, 16u, 64u, 128u}) {
    EXPECT_LT(expected_symbols_to_decode(k),
              fountain_expected_symbols_bound(k, 0.0));
  }
}

TEST(CodingAnalysis, MonteCarloMatchesExpectedSymbols) {
  Rng rng(99);
  const std::uint32_t k = 16;
  double total = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    fountain::SymbolEncoder encoder(fountain::CodingField::kGf2, t,
                                    fountain::BlockData(k, 2), rng.fork());
    fountain::BlockDecoder decoder(k, 2);
    while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
    total += static_cast<double>(decoder.received_count());
  }
  EXPECT_NEAR(total / trials, expected_symbols_to_decode(k), 0.35);
}

TEST(CodingAnalysis, ExactTailRespectsChernoffBound) {
  for (std::uint32_t A : {50u, 100u, 200u}) {
    const double exact = no_retransmission_probability_exact(A, 0.05, 0.2);
    const double bound = no_retransmission_probability_bound(A, 0.05, 0.2);
    EXPECT_LE(exact, bound + 1e-9) << "A=" << A;
  }
}

TEST(CodingAnalysis, ExactTailSaneProbability) {
  const double p = no_retransmission_probability_exact(100, 0.05, 0.2);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  // Overprovisioned case: actual loss below assumed -> near certainty.
  const double good = no_retransmission_probability_exact(100, 0.2, 0.05);
  EXPECT_GT(good, 0.99);
}

}  // namespace
}  // namespace fmtcp::analysis
