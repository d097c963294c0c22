// GF(256) lazy-vs-eager decoder equivalence: the production
// Gf256RlcDecoder defers payload multiplies to decode(); this suite keeps
// a reference *eager* Gaussian-elimination implementation (payload
// eliminated on every arrival via plain gf256_mul loops, independent of
// the kernel plane) and checks that for arbitrary symbol streams — mixed
// systematic/coded, duplicates, out-of-order, many seeds — the rank
// trajectory, redundant counts, and decoded bytes are identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/gf256.h"
#include "fountain/gf256_rlc.h"
#include "obs/trace/tracer.h"

namespace fmtcp::fountain {
namespace {

/// Reference eager GF(256) Gaussian elimination, deliberately simple:
/// byte-by-byte gf256_mul everywhere, no kernels, no laziness.
class EagerGf256Decoder {
 public:
  EagerGf256Decoder(std::uint32_t symbols, std::size_t symbol_bytes)
      : symbols_(symbols), symbol_bytes_(symbol_bytes),
        pivot_rows_(symbols) {}

  bool add_symbol(const net::EncodedSymbol& symbol) {
    Row row;
    row.coeffs.assign(symbols_, 0);
    if (symbol.is_systematic()) {
      row.coeffs[symbol.systematic_index] = 1;
    } else {
      std::vector<std::uint8_t> expanded;
      gf256_coefficients_from_seed_into(symbol.coeff_seed, symbols_,
                                        expanded);
      row.coeffs = expanded;
    }
    row.data = symbol.data;
    ++received_;
    if (rank_ == symbols_) {
      ++redundant_;
      return false;
    }
    std::size_t pivot = first_nonzero(row.coeffs);
    while (pivot < symbols_ && pivot_rows_[pivot].has_value()) {
      eliminate(row, *pivot_rows_[pivot], row.coeffs[pivot]);
      pivot = first_nonzero(row.coeffs);
    }
    if (pivot >= symbols_) {
      ++redundant_;
      return false;
    }
    normalise(row, pivot);
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
        const std::uint8_t c = upper.coeffs[p];
        if (c != 0) eliminate(upper, *pivot_rows_[p], c);
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
    std::vector<std::uint8_t> coeffs;
    AlignedBytes data;
  };

  std::size_t first_nonzero(const std::vector<std::uint8_t>& v) const {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] != 0) return i;
    }
    return v.size();
  }

  /// row ^= c · other, coefficients and payload.
  void eliminate(Row& row, const Row& other, std::uint8_t c) {
    for (std::size_t i = 0; i < symbols_; ++i) {
      row.coeffs[i] ^= gf256_mul(c, other.coeffs[i]);
    }
    for (std::size_t j = 0; j < row.data.size(); ++j) {
      row.data[j] ^= gf256_mul(c, other.data[j]);
    }
  }

  /// row = pivot⁻¹ · row, so the pivot coefficient becomes 1.
  void normalise(Row& row, std::size_t pivot) {
    const std::uint8_t inv = gf256_inv(row.coeffs[pivot]);
    for (std::size_t i = 0; i < symbols_; ++i) {
      row.coeffs[i] = gf256_mul(inv, row.coeffs[i]);
    }
    for (std::size_t j = 0; j < row.data.size(); ++j) {
      row.data[j] = gf256_mul(inv, row.data[j]);
    }
  }

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
  SymbolEncoder encoder(CodingField::kGf256, seed,
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

class Gf256LazyEagerEquivalence
    : public ::testing::TestWithParam<EquivParam> {};

TEST_P(Gf256LazyEagerEquivalence, IdenticalTrajectoryAndDecode) {
  const auto [seed, k, systematic] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      chaotic_stream(seed, k, symbol_bytes, systematic);

  Gf256RlcDecoder lazy(k, symbol_bytes);
  EagerGf256Decoder eager(k, symbol_bytes);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    net::EncodedSymbol copy = stream[i];
    const bool a = lazy.add_symbol(std::move(copy));
    const bool b = eager.add_symbol(stream[i]);
    ASSERT_EQ(a, b) << "symbol " << i;
    ASSERT_EQ(lazy.rank(), eager.rank()) << "symbol " << i;
    ASSERT_EQ(lazy.redundant_count(), eager.redundant_count())
        << "symbol " << i;
  }
  ASSERT_EQ(lazy.complete(), eager.complete());
  // 2k+8 generated symbols: every seed in the suite reaches full rank
  // (a GF(256) draw is dependent with probability ≤ 2⁻⁸ per symbol).
  ASSERT_TRUE(lazy.complete());
  EXPECT_EQ(lazy.decode().bytes(), eager.decode().bytes());
  EXPECT_EQ(lazy.decode().bytes(),
            make_deterministic_block(seed, k, symbol_bytes).bytes());
}

// The online phase is rank-only: it eliminates coefficient bytes and
// touches no payload byte, even on the decoder that stores payloads.
TEST_P(Gf256LazyEagerEquivalence, RankOnlyModeTouchesZeroPayloadBytes) {
  const auto [seed, k, systematic] = GetParam();
  const std::vector<net::EncodedSymbol> stream =
      chaotic_stream(seed, k, 24, systematic);
  Gf256RlcDecoder decoder(k, 24);
  for (const auto& symbol : stream) {
    decoder.add_symbol(symbol);
    ASSERT_EQ(decoder.payload_bytes_multiplied(), 0u);
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.rows_composed(), 0u);
  decoder.decode();
  EXPECT_GT(decoder.payload_bytes_multiplied(), 0u);
  EXPECT_EQ(decoder.rows_composed(), k);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, Gf256LazyEagerEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u),
                       ::testing::Values(4u, 16u, 24u, 64u, 128u),
                       ::testing::Bool()));

TEST(Gf256ReceptionOverhead, DenserFieldNeedsFewerExtraSymbols) {
  // The CTCP argument, observed directly: over many random streams the
  // GF(256) decoder almost never sees a dependent draw before full rank,
  // while GF(2) routinely needs a few extra symbols.
  const std::uint32_t k = 64;
  std::uint64_t gf256_redundant = 0;
  std::uint64_t trials = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng(seed);
    SymbolEncoder encoder(CodingField::kGf256, seed,
                          make_deterministic_block(seed, k, 16), rng.fork());
    Gf256RlcDecoder decoder(k, 16);
    while (!decoder.complete()) {
      net::EncodedSymbol s = encoder.next_symbol();
      decoder.add_symbol(std::move(s));
      ++trials;
    }
    gf256_redundant += decoder.redundant_count();
  }
  // Expected redundancy ≈ trials / 255 ≈ 10 over 40×64 symbols; allow a
  // wide margin but catch a GF(2)-like decoder (which would see ~40).
  EXPECT_LE(gf256_redundant, 25u);
}

TEST(SymbolCodecWrapper, Gf256RoundTripBehindProtocolInterface) {
  // The codec the protocol layer holds: encode with a
  // SymbolEncoder(kGf256), decode with a SymbolDecoder(kGf256).
  const std::uint32_t k = 32;
  const std::size_t symbol_bytes = 40;
  Rng rng(7);
  SymbolEncoder encoder(CodingField::kGf256, 9,
                        make_deterministic_block(9, k, symbol_bytes),
                        rng.fork(), /*systematic=*/true);
  SymbolDecoder decoder(CodingField::kGf256, k, symbol_bytes);
  EXPECT_EQ(decoder.field(), CodingField::kGf256);
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next_symbol());
  }
  DecodeScratch scratch;
  EXPECT_EQ(decoder.decode(scratch).bytes(),
            make_deterministic_block(9, k, symbol_bytes).bytes());
}

// The span tracer's codec.add_symbol counter covers both fields: one
// per symbol handed to the decoder, innovative or not.
TEST(Gf256RlcDecoder, SpanTracerCountsEveryAddedSymbol) {
  const std::uint32_t k = 16;
  SymbolEncoder encoder(CodingField::kGf256, 1,
                        make_deterministic_block(1, k, 24), Rng(9));
  Gf256RlcDecoder decoder(k, 24);
  obs::trace::start({});
  std::uint64_t added = 0;
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next_symbol());
    ++added;
  }
  decoder.add_symbol(encoder.next_symbol());  // Late, still counted.
  ++added;
  decoder.decode();
  const obs::trace::TraceReport report = obs::trace::stop();

  std::uint64_t counted = 0;
  for (const obs::trace::CounterAggregate& counter : report.counters) {
    if (counter.name == "codec.add_symbol") counted = counter.value;
  }
  EXPECT_EQ(counted, added);
  EXPECT_EQ(decoder.received_count(), added);
}

}  // namespace
}  // namespace fmtcp::fountain
