// Systematic random-linear fountain tests.
#include <gtest/gtest.h>

#include "fountain/codec.h"

namespace fmtcp::fountain {
namespace {

TEST(Systematic, FirstKSymbolsAreSource) {
  const BlockData original = make_deterministic_block(1, 8, 16);
  SymbolEncoder encoder(CodingField::kGf2, 1, original, Rng(3),
                        /*systematic=*/true);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const net::EncodedSymbol s = encoder.next_symbol();
    EXPECT_TRUE(s.is_systematic());
    EXPECT_EQ(s.systematic_index, i);
    EXPECT_EQ(s.data, original.symbol_copy(i));
  }
  const net::EncodedSymbol repair = encoder.next_symbol();
  EXPECT_FALSE(repair.is_systematic());
}

TEST(Systematic, LosslessDecodeWithExactlyK) {
  const BlockData original = make_deterministic_block(2, 16, 8);
  SymbolEncoder encoder(CodingField::kGf2, 2, original, Rng(5),
                        /*systematic=*/true);
  BlockDecoder decoder(16, 8);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(decoder.add_symbol(encoder.next_symbol()));
  }
  EXPECT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.received_count(), 16u);
  EXPECT_EQ(decoder.redundant_count(), 0u);
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(Systematic, RepairSymbolsRecoverErasures) {
  const BlockData original = make_deterministic_block(3, 16, 8);
  SymbolEncoder encoder(CodingField::kGf2, 3, original, Rng(7),
                        /*systematic=*/true);
  BlockDecoder decoder(16, 8);
  // Drop every fourth systematic symbol; feed repairs until complete.
  for (std::uint32_t i = 0; i < 16; ++i) {
    const net::EncodedSymbol s = encoder.next_symbol();
    if (i % 4 == 0) continue;
    decoder.add_symbol(s);
  }
  EXPECT_FALSE(decoder.complete());
  int repairs = 0;
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next_symbol());
    ASSERT_LT(++repairs, 64);
  }
  EXPECT_EQ(decoder.decode().bytes(), original.bytes());
}

TEST(Systematic, NonSystematicDefaultUnchanged) {
  SymbolEncoder encoder(CodingField::kGf2, 4,
                        make_deterministic_block(4, 8, 16), Rng(9));
  EXPECT_FALSE(encoder.next_symbol().is_systematic());
}

TEST(Systematic, DuplicateSourceSymbolRedundant) {
  const BlockData original = make_deterministic_block(6, 8, 4);
  SymbolEncoder encoder(CodingField::kGf2, 6, original, Rng(13),
                        /*systematic=*/true);
  const net::EncodedSymbol s = encoder.next_symbol();
  BlockDecoder decoder(8, 4);
  EXPECT_TRUE(decoder.add_symbol(s));
  EXPECT_FALSE(decoder.add_symbol(s));
  EXPECT_EQ(decoder.redundant_count(), 1u);
}

}  // namespace
}  // namespace fmtcp::fountain
