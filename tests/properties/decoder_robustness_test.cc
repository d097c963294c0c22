// Adversarial decoder properties: arbitrary reordering, duplication, and
// mixed systematic/repair arrivals must never corrupt a decode or break
// the rank invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"

namespace fmtcp::fountain {
namespace {

class DecoderChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderChaos, ShuffledAndDuplicatedSymbolsStillDecode) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::uint32_t k = 24;
  const BlockData original = make_deterministic_block(seed, k, 12);
  SymbolEncoder encoder(CodingField::kGf2, seed, original, rng.fork());

  // Generate a pool with duplicates, then shuffle it.
  std::vector<net::EncodedSymbol> pool;
  for (std::uint32_t i = 0; i < k + 8; ++i) {
    pool.push_back(encoder.next_symbol());
    if (rng.bernoulli(0.4)) pool.push_back(pool.back());  // Duplicate.
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  }

  BlockDecoder decoder(k, 12);
  std::uint32_t last_rank = 0;
  for (const auto& symbol : pool) {
    decoder.add_symbol(symbol);
    EXPECT_GE(decoder.rank(), last_rank);
    last_rank = decoder.rank();
  }
  // 8 extra symbols: failure probability ~2^-8 per seed; the fixed seeds
  // below are known-good.
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST_P(DecoderChaos, SystematicAndRepairInterleaved) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7 + 1);
  const std::uint32_t k = 16;
  const BlockData original = make_deterministic_block(seed, k, 8);
  SymbolEncoder encoder(CodingField::kGf2, seed, original, rng.fork(),
                        /*systematic=*/true);

  std::vector<net::EncodedSymbol> pool;
  for (std::uint32_t i = 0; i < 2 * k; ++i) {
    pool.push_back(encoder.next_symbol());
  }
  // Drop a random third, shuffle the rest.
  std::vector<net::EncodedSymbol> survivors;
  for (const auto& symbol : pool) {
    if (!rng.bernoulli(1.0 / 3.0)) survivors.push_back(symbol);
  }
  for (std::size_t i = survivors.size(); i > 1; --i) {
    std::swap(survivors[i - 1], survivors[rng.next_below(i)]);
  }

  BlockDecoder decoder(k, 8);
  for (const auto& symbol : survivors) {
    if (decoder.complete()) break;
    decoder.add_symbol(symbol);
  }
  if (decoder.complete()) {
    EXPECT_EQ(decoder.decode().bytes(), original.bytes());
  } else {
    // Not enough survivors this seed: more repair symbols must finish it.
    while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
    EXPECT_EQ(decoder.decode().bytes(), original.bytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderChaos,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(DecoderRobustness, RankNeverExceedsReceivedMinusRedundant) {
  Rng rng(99);
  const std::uint32_t k = 32;
  SymbolEncoder encoder(CodingField::kGf2, 1,
                        make_deterministic_block(1, k, 4), rng.fork());
  BlockDecoder decoder(k, 4);
  for (int i = 0; i < 200; ++i) {
    decoder.add_symbol(encoder.next_symbol());
    EXPECT_EQ(decoder.rank() + decoder.redundant_count(),
              decoder.received_count());
  }
}

TEST(DecoderRobustness, MixedBlocksNeverCrossContaminate) {
  // Two decoders fed from interleaved encoders stay independent.
  Rng rng(7);
  const std::uint32_t k = 16;
  const BlockData block_a = make_deterministic_block(100, k, 8);
  const BlockData block_b = make_deterministic_block(200, k, 8);
  SymbolEncoder enc_a(CodingField::kGf2, 100, block_a, rng.fork());
  SymbolEncoder enc_b(CodingField::kGf2, 200, block_b, rng.fork());
  BlockDecoder dec_a(k, 8);
  BlockDecoder dec_b(k, 8);
  while (!dec_a.complete() || !dec_b.complete()) {
    if (!dec_a.complete()) dec_a.add_symbol(enc_a.next_symbol());
    if (!dec_b.complete()) dec_b.add_symbol(enc_b.next_symbol());
  }
  EXPECT_EQ(dec_a.decode().bytes(), block_a.bytes());
  EXPECT_EQ(dec_b.decode().bytes(), block_b.bytes());
}

}  // namespace
}  // namespace fmtcp::fountain
