// Mixed-stream decode equivalence. The streams, a partial systematic
// pass (weight-1 pivot rows) topped up with dense coded repair rows,
// shuffled, with duplicates, are the shape RFC 6330-style inactivation
// decoding is built for, hence the suite's name. The one elimination
// path must decode them to the known source block whatever the arrival
// order, the scratch reuse or the dispatched XOR kernel; across the k̂
// values they run both solves (the k̂ ≤ 64 register solve and the
// blocked M4R solve) and the direct and M4R payload compositions.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/gf2_kernels.h"

namespace fmtcp::fountain {
namespace {

/// Mixed stream: a partial systematic prefix (sparse rows) topped up with
/// dense coded repair symbols, shuffled, with duplicates sprinkled in.
/// `coded_fraction` steers how many rows are dense.
std::vector<net::EncodedSymbol> mixed_stream(std::uint64_t seed,
                                             std::uint32_t k,
                                             std::size_t symbol_bytes,
                                             double coded_fraction) {
  Rng rng(seed * 977 + 5);
  SymbolEncoder systematic(CodingField::kGf2, seed,
                           make_deterministic_block(seed, k, symbol_bytes),
                           rng.fork(), /*systematic=*/true);
  SymbolEncoder coded(CodingField::kGf2, seed,
                      make_deterministic_block(seed, k, symbol_bytes),
                      rng.fork(), /*systematic=*/false);
  std::vector<net::EncodedSymbol> pool;
  for (std::uint32_t i = 0; i < k; ++i) {
    // Drop a fraction of the systematic pass, as loss would.
    auto symbol = systematic.next_symbol();
    if (!rng.bernoulli(coded_fraction)) pool.push_back(std::move(symbol));
  }
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(k * coded_fraction) +
                                    k / 4 + 8;
       ++i) {
    pool.push_back(coded.next_symbol());
    if (rng.bernoulli(0.15)) pool.push_back(pool.back());  // Duplicate.
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  }
  return pool;
}

using Param = std::tuple<std::uint64_t /*seed*/, std::uint32_t /*k*/,
                         double /*coded_fraction*/>;

class InactivationEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(InactivationEquivalence, StrategiesDecodeIdenticalBytes) {
  const auto [seed, k, coded_fraction] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      mixed_stream(seed, k, symbol_bytes, coded_fraction);
  const BlockData expected = make_deterministic_block(seed, k, symbol_bytes);

  // Arrival order decides which symbols become pivots, so how sparse the
  // compositions are and which composition routine decode() picks; the
  // decoded bytes must not depend on it.
  BlockDecoder forward(k, symbol_bytes);
  BlockDecoder reversed(k, symbol_bytes);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    forward.add_symbol(stream[i]);
    reversed.add_symbol(stream[stream.size() - 1 - i]);
  }
  ASSERT_TRUE(forward.complete());
  ASSERT_TRUE(reversed.complete());

  DecodeScratch scratch;  // Shared: decode() must leave no stale state.
  EXPECT_EQ(forward.decode(scratch).bytes(), expected.bytes());
  EXPECT_EQ(reversed.decode(scratch).bytes(), expected.bytes());
}

TEST_P(InactivationEquivalence, StrategiesAgreeUnderEveryKernel) {
  const auto [seed, k, coded_fraction] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      mixed_stream(seed, k, symbol_bytes, coded_fraction);
  const BlockData expected = make_deterministic_block(seed, k, symbol_bytes);

  const std::string saved = gf2_kernel().name;
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    ASSERT_TRUE(gf2_set_kernel(ops->name));
    BlockDecoder decoder(k, symbol_bytes);
    for (const auto& symbol : stream) decoder.add_symbol(symbol);
    ASSERT_TRUE(decoder.complete()) << ops->name;
    EXPECT_EQ(decoder.decode().bytes(), expected.bytes()) << ops->name;
  }
  ASSERT_TRUE(gf2_set_kernel(saved.c_str()));
}

INSTANTIATE_TEST_SUITE_P(
    Streams, InactivationEquivalence,
    ::testing::Combine(::testing::Values(1u, 4u, 9u, 16u),
                       ::testing::Values(32u, 65u, 128u, 256u),
                       ::testing::Values(0.1, 0.45, 1.0)));

}  // namespace
}  // namespace fmtcp::fountain
