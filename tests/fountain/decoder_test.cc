#include "fountain/decoder.h"

#include <gtest/gtest.h>

#include "fountain/codec.h"
#include "fountain/random_linear.h"

namespace fmtcp::fountain {
namespace {

/// GF(2) encoder over block `id`'s deterministic content.
SymbolEncoder gf2_encoder(std::uint64_t id, std::uint32_t k,
                          std::size_t symbol_bytes, Rng rng) {
  return SymbolEncoder(CodingField::kGf2, id,
                       make_deterministic_block(id, k, symbol_bytes), rng);
}

TEST(BlockDecoder, RoundTrip) {
  const BlockData original = make_deterministic_block(1, 16, 32);
  Rng rng(3);
  SymbolEncoder encoder(CodingField::kGf2, 1, original, rng);
  BlockDecoder decoder(16, 32);
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next_symbol());
  }
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(BlockDecoder, RankMonotoneAndBounded) {
  Rng rng(5);
  auto encoder = gf2_encoder(1, 32, 8, rng);
  BlockDecoder decoder(32, 8);
  std::uint32_t last_rank = 0;
  for (int i = 0; i < 100; ++i) {
    decoder.add_symbol(encoder.next_symbol());
    EXPECT_GE(decoder.rank(), last_rank);
    EXPECT_LE(decoder.rank(), 32u);
    last_rank = decoder.rank();
  }
  EXPECT_TRUE(decoder.complete());
}

TEST(BlockDecoder, DuplicateSymbolIsRedundant) {
  Rng rng(7);
  auto encoder = gf2_encoder(1, 8, 4, rng);
  BlockDecoder decoder(8, 4);
  const net::EncodedSymbol symbol = encoder.next_symbol();
  EXPECT_TRUE(decoder.add_symbol(symbol));
  EXPECT_FALSE(decoder.add_symbol(symbol));
  EXPECT_EQ(decoder.rank(), 1u);
  EXPECT_EQ(decoder.redundant_count(), 1u);
  EXPECT_EQ(decoder.received_count(), 2u);
}

TEST(BlockDecoder, DependentCombinationIsRedundant) {
  // Insert e1, e2, then e1^e2: the third must be rejected.
  BlockDecoder decoder(4, 2);
  BitVector a(4);
  a.set(0, true);
  BitVector b(4);
  b.set(1, true);
  BitVector c(4);
  c.set(0, true);
  c.set(1, true);
  const AlignedBytes payload(2, 0);
  EXPECT_TRUE(decoder.add_symbol(a, payload));
  EXPECT_TRUE(decoder.add_symbol(b, payload));
  EXPECT_FALSE(decoder.add_symbol(c, payload));
  EXPECT_EQ(decoder.rank(), 2u);
}

TEST(BlockDecoder, SymbolsAfterCompletionRedundant) {
  Rng rng(9);
  auto encoder = gf2_encoder(1, 4, 4, rng);
  BlockDecoder decoder(4, 4);
  while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
  const std::uint64_t redundant_before = decoder.redundant_count();
  EXPECT_FALSE(decoder.add_symbol(encoder.next_symbol()));
  EXPECT_EQ(decoder.redundant_count(), redundant_before + 1);
}

TEST(BlockDecoder, DecodeWithExactBasis) {
  // Feed unit vectors: trivially decodable with exactly k symbols.
  const BlockData original = make_deterministic_block(2, 8, 16);
  BlockDecoder decoder(8, 16);
  for (std::uint32_t i = 0; i < 8; ++i) {
    BitVector coeffs(8);
    coeffs.set(i, true);
    EXPECT_TRUE(decoder.add_symbol(coeffs, original.symbol_copy(i)));
  }
  EXPECT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(BlockDecoder, DecodeWithDenseBasis) {
  // Feed prefix sums e0, e0^e1, e0^e1^e2, ...: decodable, needs real
  // back-substitution.
  const BlockData original = make_deterministic_block(3, 8, 8);
  BlockDecoder decoder(8, 8);
  BitVector coeffs(8);
  AlignedBytes acc(8, 0);
  for (std::uint32_t i = 0; i < 8; ++i) {
    coeffs.set(i, true);
    xor_bytes(acc, original.symbol_copy(i));
    EXPECT_TRUE(decoder.add_symbol(coeffs, acc));
  }
  EXPECT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(BlockDecoder, DecodeIdempotent) {
  const BlockData original = make_deterministic_block(4, 4, 4);
  Rng rng(11);
  SymbolEncoder encoder(CodingField::kGf2, 4, original, rng);
  BlockDecoder decoder(4, 4);
  while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
  const AlignedBytes first = decoder.decode().bytes();
  EXPECT_EQ(decoder.decode().bytes(), first);
}

TEST(BlockDecoder, BufferedBytesGrowWithRank) {
  Rng rng(13);
  auto encoder = gf2_encoder(1, 16, 10, rng);
  BlockDecoder decoder(16, 10);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  decoder.add_symbol(encoder.next_symbol());
  EXPECT_EQ(decoder.buffered_bytes(), 10u);
  while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
  EXPECT_EQ(decoder.buffered_bytes(), 160u);
}

TEST(BlockDecoder, WireSymbolMatchesExpandedInsert) {
  Rng rng(17);
  auto encoder = gf2_encoder(1, 8, 4, rng);
  const net::EncodedSymbol symbol = encoder.next_symbol();
  BlockDecoder a(8, 4);
  BlockDecoder b(8, 4);
  EXPECT_TRUE(a.add_symbol(symbol));
  EXPECT_TRUE(
      b.add_symbol(coefficients_from_seed(symbol.coeff_seed, 8), symbol.data));
  EXPECT_EQ(a.rank(), b.rank());
}

TEST(BlockDecoder, SingleSymbolBlock) {
  const BlockData original = make_deterministic_block(5, 1, 100);
  Rng rng(19);
  SymbolEncoder encoder(CodingField::kGf2, 5, original, rng);
  BlockDecoder decoder(1, 100);
  decoder.add_symbol(encoder.next_symbol());
  EXPECT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(BlockDecoder, TypicalOverheadIsSmall) {
  // Random linear fountain needs ~1.6 extra symbols on average.
  Rng rng(23);
  double total_received = 0.0;
  const int trials = 200;
  const std::uint32_t k = 32;
  for (int t = 0; t < trials; ++t) {
    auto encoder = gf2_encoder(t, k, 4, rng.fork());
    BlockDecoder decoder(k, 4);
    while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
    total_received += static_cast<double>(decoder.received_count());
  }
  const double mean_overhead = total_received / trials - k;
  EXPECT_GT(mean_overhead, 0.5);
  EXPECT_LT(mean_overhead, 3.5);
}

}  // namespace
}  // namespace fmtcp::fountain
