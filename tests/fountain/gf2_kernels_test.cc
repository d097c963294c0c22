// Kernel-plane equivalence: every SIMD variant available in this build on
// this CPU must be bit-identical to the scalar reference for every entry
// point, across the awkward sizes (0, sub-word, vector-width ± 1) and
// every source/destination misalignment. This is the property that lets
// the runtime dispatcher change throughput without ever changing a
// simulation result.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "fountain/gf2_kernels.h"

namespace fmtcp::fountain {

// Prints a test parameter as its kernel's name rather than its address,
// so the registered test names are the same in every build.
void PrintTo(const Gf2KernelOps* ops, std::ostream* os) {
  *os << ops->name;
}

namespace {

/// Restores the process-wide kernel selection after a test that switches
/// it, so suites sharing this binary see the default dispatch again.
class KernelGuard {
 public:
  KernelGuard() : saved_(gf2_kernel().name) {}
  ~KernelGuard() { gf2_set_kernel(saved_.c_str()); }

 private:
  std::string saved_;
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

class KernelEquivalence : public ::testing::TestWithParam<const Gf2KernelOps*> {
};

TEST_P(KernelEquivalence, XorBytesRawMatchesScalarAllSizesAndOffsets) {
  const Gf2KernelOps& ops = *GetParam();
  const Gf2KernelOps& ref = gf2_scalar_kernel();
  Rng rng(2024);
  // Slack beyond the largest size so offset + size stays in bounds.
  const std::size_t max_size = 257;
  for (std::size_t dst_off : {0u, 1u, 3u, 7u}) {
    for (std::size_t src_off : {0u, 2u, 5u}) {
      for (std::size_t size = 0; size <= max_size; ++size) {
        const auto dst0 = random_bytes(rng, max_size + 8);
        const auto src = random_bytes(rng, max_size + 8);
        auto got = dst0;
        auto want = dst0;
        ops.xor_bytes_raw(got.data() + dst_off, src.data() + src_off, size);
        ref.xor_bytes_raw(want.data() + dst_off, src.data() + src_off, size);
        ASSERT_EQ(got, want) << ops.name << " size=" << size
                             << " dst_off=" << dst_off
                             << " src_off=" << src_off;
      }
    }
  }
}

TEST_P(KernelEquivalence, XorIntoMatchesScalar) {
  const Gf2KernelOps& ops = *GetParam();
  const Gf2KernelOps& ref = gf2_scalar_kernel();
  Rng rng(77);
  for (std::size_t off : {0u, 1u, 6u}) {
    for (std::size_t size = 0; size <= 257; ++size) {
      const auto a = random_bytes(rng, 257 + 8);
      const auto b = random_bytes(rng, 257 + 8);
      std::vector<std::uint8_t> got(257 + 8, 0xAA), want(257 + 8, 0xAA);
      ops.xor_into(got.data() + off, a.data() + off, b.data() + off, size);
      ref.xor_into(want.data() + off, a.data() + off, b.data() + off, size);
      ASSERT_EQ(got, want) << ops.name << " size=" << size << " off=" << off;
    }
  }
}

TEST_P(KernelEquivalence, XorAccumulateMatchesScalarAllFanIns) {
  const Gf2KernelOps& ops = *GetParam();
  const Gf2KernelOps& ref = gf2_scalar_kernel();
  Rng rng(91);
  for (std::size_t n = 0; n <= 9; ++n) {  // Exercises the 4-way fold + tail.
    for (std::size_t size : {0u, 1u, 15u, 16u, 63u, 64u, 160u, 257u}) {
      std::vector<std::vector<std::uint8_t>> srcs;
      std::vector<const std::uint8_t*> ptrs;
      for (std::size_t i = 0; i < n; ++i) {
        srcs.push_back(random_bytes(rng, size));
        ptrs.push_back(srcs.back().data());
      }
      const auto dst0 = random_bytes(rng, size);
      auto got = dst0;
      auto want = dst0;
      ops.xor_accumulate(got.data(), ptrs.data(), n, size);
      ref.xor_accumulate(want.data(), ptrs.data(), n, size);
      ASSERT_EQ(got, want) << ops.name << " n=" << n << " size=" << size;
    }
  }
}

TEST_P(KernelEquivalence, XorWordsMatchesScalar) {
  const Gf2KernelOps& ops = *GetParam();
  const Gf2KernelOps& ref = gf2_scalar_kernel();
  Rng rng(123);
  for (std::size_t nwords = 0; nwords <= 33; ++nwords) {
    std::vector<std::uint64_t> src(nwords + 1), got(nwords + 1),
        want(nwords + 1);
    for (auto& w : src) w = rng.next_u64();
    for (std::size_t i = 0; i < got.size(); ++i) got[i] = want[i] = rng.next_u64();
    ops.xor_words(got.data(), src.data(), nwords);
    ref.xor_words(want.data(), src.data(), nwords);
    ASSERT_EQ(got, want) << ops.name << " nwords=" << nwords;
  }
}

/// Builds a random pivot arena in reduced form (pivot row p has lowest
/// bit p, and only bits ≥ p set) plus its present bitmap, then checks
/// reduce_row against the scalar reference: identical record bytes,
/// identical returned pivot, identical step count.
TEST_P(KernelEquivalence, ReduceRowMatchesScalar) {
  const Gf2KernelOps& ops = *GetParam();
  const Gf2KernelOps& ref = gf2_scalar_kernel();
  Rng rng(31337);
  for (std::uint32_t k : {8u, 64u, 65u, 128u, 256u, 320u, 512u}) {
    const std::size_t cw = (k + 63) / 64;
    for (std::size_t stride : {cw, 2 * cw}) {  // Coefficients alone, fused.
      AlignedWords arena(k * stride);
      std::vector<std::uint64_t> present(cw, 0);
      for (std::uint32_t p = 0; p < k; ++p) {
        if (!rng.bernoulli(0.7)) continue;  // Leave some pivots absent.
        present[p >> 6] |= 1ULL << (p & 63);
        std::uint64_t* rec = arena.data() + p * stride;
        rec[p >> 6] |= 1ULL << (p & 63);
        for (std::uint32_t b = p + 1; b < k; ++b) {
          if (rng.bernoulli(0.4)) rec[b >> 6] |= 1ULL << (b & 63);
        }
        for (std::size_t w = cw; w < stride; ++w) rec[w] = rng.next_u64();
      }
      for (int trial = 0; trial < 32; ++trial) {
        AlignedWords got(stride), want(stride);
        for (std::size_t w = 0; w < cw; ++w) {
          got[w] = rng.next_u64();
          if ((w + 1) * 64 > k) got[w] &= (1ULL << (k & 63)) - 1;
        }
        for (std::size_t w = cw; w < stride; ++w) got[w] = rng.next_u64();
        std::memcpy(want.data(), got.data(), stride * 8);
        std::size_t got_steps = 0, want_steps = 0;
        const std::size_t got_pivot =
            ops.reduce_row(got.data(), arena.data(), present.data(), k, cw,
                           stride, &got_steps);
        const std::size_t want_pivot =
            ref.reduce_row(want.data(), arena.data(), present.data(), k, cw,
                           stride, &want_steps);
        ASSERT_EQ(got_pivot, want_pivot)
            << ops.name << " k=" << k << " stride=" << stride;
        ASSERT_EQ(got_steps, want_steps);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(), stride * 8));
        // Contract: fully reduced — no coefficient bit on a present pivot.
        for (std::size_t w = 0; w < cw; ++w) {
          ASSERT_EQ(got[w] & present[w], 0u);
        }
        if (got_pivot < k) {
          ASSERT_TRUE((got[got_pivot >> 6] >> (got_pivot & 63)) & 1ULL);
        } else {
          ASSERT_EQ(got_pivot, k);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, KernelEquivalence,
    ::testing::ValuesIn(gf2_available_kernels()),
    [](const ::testing::TestParamInfo<const Gf2KernelOps*>& param_info) {
      return std::string(param_info.param->name);
    });

TEST(KernelDispatch, AvailableKernelsStartWithScalarAndHaveUniqueNames) {
  const auto kernels = gf2_available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "scalar");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    for (std::size_t j = i + 1; j < kernels.size(); ++j) {
      EXPECT_STRNE(kernels[i]->name, kernels[j]->name);
    }
  }
}

TEST(KernelDispatch, SetKernelSwitchesAndRejectsUnknown) {
  KernelGuard guard;
  EXPECT_FALSE(gf2_set_kernel("mmx"));
  EXPECT_FALSE(gf2_set_kernel(""));
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    ASSERT_TRUE(gf2_set_kernel(ops->name));
    EXPECT_STREQ(gf2_kernel().name, ops->name);
  }
}

}  // namespace
}  // namespace fmtcp::fountain
