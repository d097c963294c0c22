#include "fountain/block.h"

#include <gtest/gtest.h>

namespace fmtcp::fountain {
namespace {

TEST(BlockData, Dimensions) {
  BlockData block(8, 32);
  EXPECT_EQ(block.symbols(), 8u);
  EXPECT_EQ(block.symbol_bytes(), 32u);
  EXPECT_EQ(block.total_bytes(), 256u);
}

TEST(BlockData, SymbolsAreContiguousSlices) {
  BlockData block(4, 3);
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::size_t b = 0; b < 3; ++b) {
      block.symbol(i)[b] = static_cast<std::uint8_t>(i * 10 + b);
    }
  }
  EXPECT_EQ(block.bytes()[0], 0);
  EXPECT_EQ(block.bytes()[3], 10);
  EXPECT_EQ(block.bytes()[11], 32);
  EXPECT_EQ(block.symbol_copy(2),
            (AlignedBytes{20, 21, 22}));
}

TEST(DeterministicBlock, SameIdSameBytes) {
  const BlockData a = make_deterministic_block(7, 16, 64);
  const BlockData b = make_deterministic_block(7, 16, 64);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(DeterministicBlock, DifferentIdsDiffer) {
  const BlockData a = make_deterministic_block(1, 16, 64);
  const BlockData b = make_deterministic_block(2, 16, 64);
  EXPECT_NE(a.bytes(), b.bytes());
}

TEST(DeterministicBlock, TailBytesDeterministicPerIdAndDistinctAcrossIds) {
  // 3 x 5 B = 15 bytes: one full 8-byte draw and a 7-byte tail.
  const BlockData a = make_deterministic_block(11, 3, 5);
  const BlockData b = make_deterministic_block(11, 3, 5);
  const BlockData c = make_deterministic_block(12, 3, 5);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_NE(a.bytes(), c.bytes());
  // The tails differ too, not only the full word.
  EXPECT_NE(AlignedBytes(a.bytes().begin() + 8, a.bytes().end()),
            AlignedBytes(c.bytes().begin() + 8, c.bytes().end()));
}

TEST(DeterministicBlock, MatchesComparesAgainstTheGenerator) {
  for (const std::size_t symbol_bytes : {1, 5, 8, 157, 160}) {
    BlockData block = make_deterministic_block(4, 3, symbol_bytes);
    EXPECT_TRUE(matches_deterministic_block(4, block));
    EXPECT_FALSE(matches_deterministic_block(5, block));
    // A flipped bit in the last (tail) byte is caught.
    block.bytes().back() ^= 0x80;
    EXPECT_FALSE(matches_deterministic_block(4, block));
  }
}

TEST(DeterministicBlock, BlockZeroIsNotAllZero) {
  const BlockData block = make_deterministic_block(0, 4, 32);
  bool nonzero = false;
  for (std::uint8_t byte : block.bytes()) nonzero = nonzero || byte != 0;
  EXPECT_TRUE(nonzero);
}

}  // namespace
}  // namespace fmtcp::fountain
