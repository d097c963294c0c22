// Lazy-vs-eager decoder equivalence: the production BlockDecoder defers
// payload XORs to decode(); this suite keeps a reference *eager*
// implementation (payload eliminated on every arrival, as the decoder
// originally worked) and checks that for arbitrary symbol streams —
// mixed systematic/coded, duplicates, out-of-order, many seeds — the
// rank trajectory, redundant counts, and decoded bytes are identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/random_linear.h"

namespace fmtcp::fountain {
namespace {

/// Reference eager Gaussian-elimination decoder: every arriving symbol's
/// payload is XORed during online elimination, and back-substitution
/// XORs payloads row by row. Deliberately simple and independent of the
/// production decoder's lazy composition machinery.
class EagerDecoder {
 public:
  EagerDecoder(std::uint32_t symbols, std::size_t symbol_bytes)
      : symbols_(symbols), symbol_bytes_(symbol_bytes),
        pivot_rows_(symbols) {}

  bool add_symbol(const net::EncodedSymbol& symbol) {
    BitVector coeffs(symbols_);
    if (symbol.is_systematic()) {
      coeffs.set(symbol.systematic_index, true);
    } else {
      coeffs = coefficients_from_seed(symbol.coeff_seed, symbols_);
    }
    ++received_;
    if (rank_ == symbols_) {
      ++redundant_;
      return false;
    }
    Row row{coeffs, symbol.data};
    std::size_t pivot = row.coeffs.lowest_set_bit();
    while (pivot < symbols_ && pivot_rows_[pivot].has_value()) {
      row.coeffs.xor_with(pivot_rows_[pivot]->coeffs);
      xor_bytes(row.data, pivot_rows_[pivot]->data);
      pivot = row.coeffs.lowest_set_bit();
    }
    if (pivot >= symbols_) {
      ++redundant_;
      return false;
    }
    pivot_rows_[pivot] = std::move(row);
    ++rank_;
    return true;
  }

  std::uint32_t rank() const { return rank_; }
  std::uint64_t redundant_count() const { return redundant_; }
  std::uint64_t received_count() const { return received_; }
  bool complete() const { return rank_ == symbols_; }

  BlockData decode() {
    for (std::size_t p = symbols_; p-- > 0;) {
      for (std::size_t q = 0; q < p; ++q) {
        Row& upper = *pivot_rows_[q];
        if (upper.coeffs.get(p)) {
          upper.coeffs.xor_with(pivot_rows_[p]->coeffs);
          xor_bytes(upper.data, pivot_rows_[p]->data);
        }
      }
    }
    BlockData out(symbols_, symbol_bytes_);
    for (std::uint32_t i = 0; i < symbols_; ++i) {
      const Row& row = *pivot_rows_[i];
      std::copy(row.data.begin(), row.data.end(), out.symbol(i));
    }
    return out;
  }

 private:
  struct Row {
    BitVector coeffs;
    AlignedBytes data;
  };
  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  std::uint32_t rank_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t redundant_ = 0;
  std::vector<std::optional<Row>> pivot_rows_;
};

/// Builds a chaotic stream: systematic prefix mixed with coded repair
/// symbols, random duplicates, then a full shuffle.
std::vector<net::EncodedSymbol> chaotic_stream(std::uint64_t seed,
                                               std::uint32_t k,
                                               std::size_t symbol_bytes,
                                               bool systematic) {
  Rng rng(seed * 131 + 17);
  SymbolEncoder encoder(CodingField::kGf2, seed,
                        make_deterministic_block(seed, k, symbol_bytes),
                        rng.fork(), systematic);
  std::vector<net::EncodedSymbol> pool;
  for (std::uint32_t i = 0; i < 2 * k + 8; ++i) {
    pool.push_back(encoder.next_symbol());
    if (rng.bernoulli(0.3)) pool.push_back(pool.back());  // Duplicate.
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  }
  return pool;
}

using EquivParam = std::tuple<std::uint64_t /*seed*/, std::uint32_t /*k*/,
                              bool /*systematic*/>;

class LazyEagerEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(LazyEagerEquivalence, IdenticalTrajectoryAndDecode) {
  const auto [seed, k, systematic] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      chaotic_stream(seed, k, symbol_bytes, systematic);

  BlockDecoder lazy(k, symbol_bytes);
  EagerDecoder eager(k, symbol_bytes);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const bool a = lazy.add_symbol(stream[i]);
    const bool b = eager.add_symbol(stream[i]);
    ASSERT_EQ(a, b) << "symbol " << i;
    ASSERT_EQ(lazy.rank(), eager.rank()) << "symbol " << i;
    ASSERT_EQ(lazy.redundant_count(), eager.redundant_count())
        << "symbol " << i;
  }
  ASSERT_EQ(lazy.complete(), eager.complete());
  // 2k+8 generated symbols: every seed in the suite reaches full rank.
  ASSERT_TRUE(lazy.complete());
  EXPECT_EQ(lazy.decode().bytes(), eager.decode().bytes());
  EXPECT_EQ(lazy.decode().bytes(),
            make_deterministic_block(seed, k, symbol_bytes).bytes());
}

// The online phase is rank-only: add_symbol() eliminates coefficients
// and compositions and touches no payload byte, even on the decoder that
// stores payloads; decode() then composes every source row once.
TEST_P(LazyEagerEquivalence, RankOnlyModeTouchesZeroPayloadBytes) {
  const auto [seed, k, systematic] = GetParam();
  const std::vector<net::EncodedSymbol> stream =
      chaotic_stream(seed, k, 24, systematic);
  BlockDecoder decoder(k, 24);
  for (const auto& symbol : stream) {
    decoder.add_symbol(symbol);
    ASSERT_EQ(decoder.payload_bytes_xored(), 0u);
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.rows_composed(), 0u);
  decoder.decode();
  EXPECT_GT(decoder.payload_bytes_xored(), 0u);
  EXPECT_EQ(decoder.rows_composed(), k);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, LazyEagerEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u),
                       ::testing::Values(4u, 16u, 24u, 64u, 65u, 128u, 256u),
                       ::testing::Bool()));

}  // namespace
}  // namespace fmtcp::fountain
