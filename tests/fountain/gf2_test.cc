#include "fountain/gf2.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace fmtcp::fountain {
namespace {

TEST(BitVector, StartsZero) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.any());
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_EQ(v.lowest_set_bit(), 100u);
}

TEST(BitVector, SetAndGet) {
  BitVector v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, LowestSetBit) {
  BitVector v(128);
  v.set(100, true);
  EXPECT_EQ(v.lowest_set_bit(), 100u);
  v.set(5, true);
  EXPECT_EQ(v.lowest_set_bit(), 5u);
}

TEST(BitVector, XorWith) {
  BitVector a(10);
  BitVector b(10);
  a.set(1, true);
  a.set(3, true);
  b.set(3, true);
  b.set(7, true);
  a.xor_with(b);
  EXPECT_TRUE(a.get(1));
  EXPECT_FALSE(a.get(3));
  EXPECT_TRUE(a.get(7));
  EXPECT_EQ(a.popcount(), 2u);
}

TEST(BitVector, XorSelfIsZero) {
  Rng rng(5);
  BitVector v = BitVector::random(200, rng);
  BitVector w = v;
  v.xor_with(w);
  EXPECT_FALSE(v.any());
}

TEST(BitVector, Equality) {
  BitVector a(16);
  BitVector b(16);
  EXPECT_TRUE(a == b);
  a.set(4, true);
  EXPECT_FALSE(a == b);
  b.set(4, true);
  EXPECT_TRUE(a == b);
}

TEST(BitVector, RandomRespectsPadding) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    BitVector v = BitVector::random(67, rng);
    // Popcount must only count the declared 67 bits.
    EXPECT_LE(v.popcount(), 67u);
    EXPECT_TRUE(v.lowest_set_bit() <= 67u);
  }
}

TEST(BitVector, RandomIsDense) {
  Rng rng(11);
  BitVector v = BitVector::random(1024, rng);
  // A fair random vector has ~512 set bits.
  EXPECT_GT(v.popcount(), 400u);
  EXPECT_LT(v.popcount(), 624u);
}

TEST(BitVector, ResetReusesStorageAndZeroes) {
  BitVector v(128);
  v.set(0, true);
  v.set(127, true);
  v.reset(128);
  EXPECT_FALSE(v.any());
  v.reset(64);
  EXPECT_EQ(v.size(), 64u);
  EXPECT_EQ(v.word_count(), 1u);
  v.reset(200);
  EXPECT_EQ(v.size(), 200u);
  EXPECT_EQ(v.word_count(), 4u);
  EXPECT_FALSE(v.any());
}

TEST(BitVector, MoveAndCopyAcrossInlineThreshold) {
  Rng rng(3);
  for (std::size_t bits : {60u, 128u, 129u, 500u}) {
    BitVector v = BitVector::random(bits, rng);
    BitVector copy = v;
    EXPECT_TRUE(copy == v);
    BitVector moved = std::move(copy);
    EXPECT_TRUE(moved == v);
    BitVector assigned(8);
    assigned = v;
    EXPECT_TRUE(assigned == v);
    BitVector move_assigned(8);
    move_assigned = std::move(moved);
    EXPECT_TRUE(move_assigned == v);
  }
}

TEST(BitVector, RandomIntoMatchesRandom) {
  for (std::size_t bits : {7u, 64u, 67u, 128u, 300u}) {
    Rng a(21);
    Rng b(21);
    const BitVector fresh = BitVector::random(bits, a);
    BitVector reused(512);  // Larger scratch; must shrink and match.
    BitVector::random_into(bits, b, reused);
    EXPECT_TRUE(fresh == reused) << bits;
  }
}

TEST(BitVector, WordDataExposesPacking) {
  BitVector v(70);
  v.set(1, true);
  v.set(64, true);
  EXPECT_EQ(v.word_count(), 2u);
  EXPECT_EQ(v.word_data()[0], 2ULL);
  EXPECT_EQ(v.word_data()[1], 1ULL);
}

TEST(XorBytes, ElementWise) {
  std::vector<std::uint8_t> a{0x0f, 0xf0, 0xaa};
  std::vector<std::uint8_t> b{0xff, 0xff, 0xaa};
  xor_bytes(a, b);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{0xf0, 0x0f, 0x00}));
}

TEST(XorBytes, RawHandlesUnalignedTailsAtEveryLength) {
  Rng rng(17);
  for (std::size_t size = 0; size <= 100; ++size) {
    std::vector<std::uint8_t> dst(size);
    std::vector<std::uint8_t> src(size);
    std::vector<std::uint8_t> want(size);
    for (std::size_t i = 0; i < size; ++i) {
      dst[i] = static_cast<std::uint8_t>(rng.next_u64());
      src[i] = static_cast<std::uint8_t>(rng.next_u64());
      want[i] = dst[i] ^ src[i];
    }
    xor_bytes_raw(dst.data(), src.data(), size);
    EXPECT_EQ(dst, want) << size;
  }
}

TEST(XorBytes, FusedXorIntoMatchesCopyThenXorAtEveryLength) {
  Rng rng(19);
  for (std::size_t size = 0; size <= 100; ++size) {
    std::vector<std::uint8_t> a(size);
    std::vector<std::uint8_t> b(size);
    std::vector<std::uint8_t> want(size);
    for (std::size_t i = 0; i < size; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.next_u64());
      b[i] = static_cast<std::uint8_t>(rng.next_u64());
      want[i] = a[i] ^ b[i];
    }
    std::vector<std::uint8_t> dst(size, 0xee);
    xor_into(dst.data(), a.data(), b.data(), size);
    EXPECT_EQ(dst, want) << size;
  }
}

TEST(XorAccumulate, MatchesSequentialXorForEveryBatchWidth) {
  Rng rng(23);
  const std::size_t size = 77;  // Exercises the scalar tail too.
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::vector<std::uint8_t>> sources(n);
    std::vector<const std::uint8_t*> ptrs(n);
    std::vector<std::uint8_t> dst(size);
    std::vector<std::uint8_t> want(size);
    for (std::size_t i = 0; i < size; ++i) {
      dst[i] = static_cast<std::uint8_t>(rng.next_u64());
      want[i] = dst[i];
    }
    for (std::size_t s = 0; s < n; ++s) {
      sources[s].resize(size);
      for (std::size_t i = 0; i < size; ++i) {
        sources[s][i] = static_cast<std::uint8_t>(rng.next_u64());
        want[i] ^= sources[s][i];
      }
      ptrs[s] = sources[s].data();
    }
    xor_accumulate(dst.data(), ptrs.data(), n, size);
    EXPECT_EQ(dst, want) << "n=" << n;
  }
}

}  // namespace
}  // namespace fmtcp::fountain
