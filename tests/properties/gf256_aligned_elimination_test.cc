// GF(256) elimination geometry equivalence: Gf256RlcDecoder starts its
// online row ops on the 64-byte line holding the pivot column and
// back-substitutes through the composition half only. This suite keeps
// the straightforward form of the same algorithm as the reference (each
// op over the record suffix from the pivot column, back-substitution
// over the whole suffix), runs it on the scalar kernel, and checks that
// for odd block sizes and symbol sizes, on every available kernel, the
// production decoder makes the same decision on every symbol, follows
// the same rank trajectory, decodes the same bytes and reports the same
// cost counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "fountain/block.h"
#include "fountain/gf256.h"
#include "fountain/gf256_kernels.h"
#include "fountain/gf256_rlc.h"

namespace fmtcp::fountain {

// Prints a kernel parameter as its name rather than its address, so the
// registered test names are the same in every build.
void PrintTo(const Gf256KernelOps* ops, std::ostream* os) {
  *os << ops->name;
}

namespace {

/// The suffix-at-pivot form of Gf256RlcDecoder's elimination, on the
/// scalar kernel: online ops cover record bytes [p, 2k̂), and
/// back-substitution folds row p into row q over the same suffix.
class SuffixReferenceDecoder {
 public:
  SuffixReferenceDecoder(std::uint32_t symbols, std::size_t symbol_bytes)
      : symbols_(symbols),
        symbol_bytes_(symbol_bytes),
        stride_(2 * static_cast<std::size_t>(symbols)),
        rows_(symbols * stride_, 0),
        present_(symbols, false),
        rec_(stride_, 0) {}

  bool add_symbol(const std::uint8_t* coeffs, const AlignedBytes& data) {
    if (complete()) return false;
    const std::uint32_t k = symbols_;
    std::memcpy(rec_.data(), coeffs, k);
    std::memset(rec_.data() + k, 0, k);
    rec_[k + stored_.size()] = 1;
    std::uint32_t p = 0;
    while (p < k) {
      if (rec_[p] == 0) {
        ++p;
        continue;
      }
      if (!present_[p]) break;
      ops_.mul_region(rec_.data() + p, row(p) + p, rec_[p], stride_ - p);
      coeff_bytes_eliminated_ += stride_ - p;
      ++p;
    }
    if (p == k) return false;
    ops_.scale_region(rec_.data() + p, gf256_inv(rec_[p]), stride_ - p);
    coeff_bytes_eliminated_ += stride_ - p;
    std::memcpy(row(p), rec_.data(), stride_);
    present_[p] = true;
    ++rank_;
    stored_.push_back(data);
    return true;
  }

  BlockData decode() {
    const std::uint32_t k = symbols_;
    for (std::uint32_t p = k; p-- > 0;) {
      for (std::uint32_t q = 0; q < p; ++q) {
        const std::uint8_t c = row(q)[p];
        if (c == 0) continue;
        ops_.mul_region(row(q) + p, row(p) + p, c, stride_ - p);
        coeff_bytes_eliminated_ += stride_ - p;
      }
    }
    BlockData out(k, symbol_bytes_);
    for (std::uint32_t p = 0; p < k; ++p) {
      const std::uint8_t* comp = row(p) + k;
      for (std::size_t j = 0; j < stored_.size(); ++j) {
        if (comp[j] == 0) continue;
        ops_.mul_region(out.symbol(p), stored_[j].data(), comp[j],
                        symbol_bytes_);
        payload_bytes_multiplied_ += symbol_bytes_;
      }
      ++rows_composed_;
    }
    return out;
  }

  bool complete() const { return rank_ == symbols_; }
  std::uint32_t rank() const { return rank_; }
  std::uint64_t coeff_bytes_eliminated() const {
    return coeff_bytes_eliminated_;
  }
  std::uint64_t payload_bytes_multiplied() const {
    return payload_bytes_multiplied_;
  }
  std::uint64_t rows_composed() const { return rows_composed_; }

 private:
  std::uint8_t* row(std::size_t p) { return rows_.data() + p * stride_; }

  const Gf256KernelOps& ops_ = gf256_scalar_kernel();
  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  std::size_t stride_;
  std::vector<std::uint8_t> rows_;
  std::vector<bool> present_;
  std::vector<std::uint8_t> rec_;
  std::vector<AlignedBytes> stored_;
  std::uint32_t rank_ = 0;
  std::uint64_t coeff_bytes_eliminated_ = 0;
  std::uint64_t payload_bytes_multiplied_ = 0;
  std::uint64_t rows_composed_ = 0;
};

struct StreamSymbol {
  std::vector<std::uint8_t> coeffs;
  AlignedBytes data;
};

/// payload = sum_i coeffs[i] · block.symbol(i), on the scalar kernel.
AlignedBytes combine(const BlockData& block,
                     const std::vector<std::uint8_t>& coeffs) {
  AlignedBytes out(block.symbol_bytes(), 0);
  for (std::uint32_t i = 0; i < block.symbols(); ++i) {
    gf256_scalar_kernel().mul_region(out.data(), block.symbol(i), coeffs[i],
                                     out.size());
  }
  return out;
}

/// A seeded stream that reaches full rank on the reference decoder and
/// then carries a few late symbols. It mixes dense coded symbols, coded
/// symbols whose first nonzero coefficient sits at a random column (so
/// pivots land on every line of the record), systematic symbols,
/// duplicates and combinations of two earlier symbols (always
/// dependent).
std::vector<StreamSymbol> odd_stream(std::uint64_t seed, std::uint32_t k,
                                     std::size_t symbol_bytes) {
  Rng rng(seed * 7919 + k * 131 + symbol_bytes);
  const BlockData block = make_deterministic_block(seed, k, symbol_bytes);
  SuffixReferenceDecoder probe(k, symbol_bytes);
  std::vector<StreamSymbol> stream;
  std::uint32_t late = 0;
  while (late < 3) {
    StreamSymbol s;
    const std::uint64_t kind = stream.size() < 2 ? 0 : rng.next_below(10);
    if (kind <= 2) {  // Dense coded.
      gf256_coefficients_from_seed_into(rng.next_u64(), k, s.coeffs);
      s.data = combine(block, s.coeffs);
    } else if (kind <= 4) {  // Coded, leading zeros up to a random column.
      gf256_coefficients_from_seed_into(rng.next_u64(), k, s.coeffs);
      const std::uint64_t first = rng.next_below(k);
      std::fill(s.coeffs.begin(), s.coeffs.begin() + first, 0);
      if (s.coeffs[first] == 0) s.coeffs[first] = 1;
      s.data = combine(block, s.coeffs);
    } else if (kind <= 6) {  // Systematic.
      s.coeffs.assign(k, 0);
      s.coeffs[rng.next_below(k)] = 1;
      s.data = combine(block, s.coeffs);
    } else if (kind == 7) {  // Duplicate.
      s = stream[rng.next_below(stream.size())];
    } else {  // a·x ^ b·y of two earlier symbols.
      const StreamSymbol& x = stream[rng.next_below(stream.size())];
      const StreamSymbol& y = stream[rng.next_below(stream.size())];
      const auto a = static_cast<std::uint8_t>(1 + rng.next_below(255));
      const auto b = static_cast<std::uint8_t>(1 + rng.next_below(255));
      s.coeffs.assign(k, 0);
      for (std::uint32_t i = 0; i < k; ++i) {
        s.coeffs[i] = gf256_mul(a, x.coeffs[i]) ^ gf256_mul(b, y.coeffs[i]);
      }
      s.data.assign(symbol_bytes, 0);
      gf256_scalar_kernel().mul_region(s.data.data(), x.data.data(), a,
                                       symbol_bytes);
      gf256_scalar_kernel().mul_region(s.data.data(), y.data.data(), b,
                                       symbol_bytes);
      // The pair can cancel (y a multiple of x); the wire never carries
      // an all-zero coefficient vector, so skip that draw.
      if (std::all_of(s.coeffs.begin(), s.coeffs.end(),
                      [](std::uint8_t c) { return c == 0; })) {
        continue;
      }
    }
    if (probe.complete()) ++late;
    probe.add_symbol(s.coeffs.data(), s.data);
    stream.push_back(std::move(s));
  }
  return stream;
}

/// Restores the process-wide kernel selection after the test switches it.
class KernelGuard {
 public:
  KernelGuard() : saved_(gf256_kernel().name) {}
  ~KernelGuard() { gf256_set_kernel(saved_.c_str()); }

 private:
  std::string saved_;
};

using GeometryParam = std::tuple<const Gf256KernelOps*, std::uint32_t /*k*/,
                                 std::size_t /*symbol_bytes*/>;

class Gf256AlignedElimination
    : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(Gf256AlignedElimination, MatchesSuffixReference) {
  const auto [kernel, k, symbol_bytes] = GetParam();
  KernelGuard guard;
  ASSERT_TRUE(gf256_set_kernel(kernel->name));
  for (std::uint64_t seed : {1u, 2u}) {
    const std::vector<StreamSymbol> stream = odd_stream(seed, k, symbol_bytes);
    Gf256RlcDecoder decoder(k, symbol_bytes);
    SuffixReferenceDecoder reference(k, symbol_bytes);
    std::uint64_t redundant = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const StreamSymbol& s = stream[i];
      const bool expected = reference.add_symbol(s.coeffs.data(), s.data);
      AlignedBytes payload = s.data;
      ASSERT_EQ(decoder.add_symbol(s.coeffs.data(), std::move(payload)),
                expected)
          << "seed " << seed << " symbol " << i;
      redundant += expected ? 0 : 1;
      ASSERT_EQ(decoder.rank(), reference.rank()) << "symbol " << i;
      ASSERT_EQ(decoder.redundant_count(), redundant) << "symbol " << i;
      ASSERT_EQ(decoder.coeff_bytes_eliminated(),
                reference.coeff_bytes_eliminated())
          << "seed " << seed << " symbol " << i;
    }
    ASSERT_TRUE(decoder.complete());
    const BlockData expected = reference.decode();
    EXPECT_EQ(decoder.decode().bytes(), expected.bytes()) << "seed " << seed;
    EXPECT_EQ(expected.bytes(),
              make_deterministic_block(seed, k, symbol_bytes).bytes());
    EXPECT_EQ(decoder.coeff_bytes_eliminated(),
              reference.coeff_bytes_eliminated());
    EXPECT_EQ(decoder.payload_bytes_multiplied(),
              reference.payload_bytes_multiplied());
    EXPECT_EQ(decoder.rows_composed(), reference.rows_composed());
  }
}

/// "avx2_k255_b160": kernel, k̂, symbol bytes.
std::string geometry_name(
    const ::testing::TestParamInfo<GeometryParam>& param_info) {
  const auto& [kernel, k, symbol_bytes] = param_info.param;
  return std::string(kernel->name) + "_k" + std::to_string(k) + "_b" +
         std::to_string(symbol_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    OddGeometry, Gf256AlignedElimination,
    ::testing::Combine(::testing::ValuesIn(gf256_available_kernels()),
                       ::testing::Values(1u, 2u, 13u, 31u, 32u, 33u, 64u,
                                         65u, 100u, 128u, 200u, 255u),
                       ::testing::Values(std::size_t{1}, std::size_t{31},
                                         std::size_t{160})),
    geometry_name);

}  // namespace
}  // namespace fmtcp::fountain
