// GF(256) kernel-plane equivalence: every SIMD variant available in this
// build on this CPU must be bit-identical to the scalar reference for
// every entry point, across the awkward sizes (0, sub-vector,
// vector-width ± 1) and every source/destination misalignment — the
// property that lets the dispatcher change throughput without changing a
// codec result. The scalar kernel itself is additionally anchored to the
// gf256_mul field reference, so the chain field → scalar → SIMD is
// closed.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fountain/gf256.h"
#include "fountain/gf256_kernels.h"

namespace fmtcp::fountain {

// Prints a test parameter as its kernel's name rather than its address,
// so the registered test names are the same in every build.
void PrintTo(const Gf256KernelOps* ops, std::ostream* os) {
  *os << ops->name;
}

namespace {

/// Restores the process-wide kernel selection after a test that switches
/// it, so suites sharing this binary see the default dispatch again.
class KernelGuard {
 public:
  KernelGuard() : saved_(gf256_kernel().name) {}
  ~KernelGuard() { gf256_set_kernel(saved_.c_str()); }

 private:
  std::string saved_;
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// Coefficients cycled through every region test: the special cases
/// (annihilator, identity) plus generic bytes.
constexpr std::uint8_t kCoeffs[] = {0, 1, 2, 3, 0x53, 0x8E, 0xFF};

TEST(Gf256ScalarKernel, MulRegionMatchesFieldReference) {
  const Gf256KernelOps& ref = gf256_scalar_kernel();
  Rng rng(1);
  for (std::uint8_t c : kCoeffs) {
    for (std::size_t size : {0u, 1u, 7u, 160u, 257u}) {
      const auto src = random_bytes(rng, size);
      const auto dst0 = random_bytes(rng, size);
      auto got = dst0;
      ref.mul_region(got.data(), src.data(), c, size);
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(got[i], dst0[i] ^ gf256_mul(c, src[i]))
            << "c=" << int(c) << " size=" << size << " i=" << i;
      }
    }
  }
}

class Gf256KernelEquivalence
    : public ::testing::TestWithParam<const Gf256KernelOps*> {};

TEST_P(Gf256KernelEquivalence, MulRegionMatchesScalarAllSizesAndOffsets) {
  const Gf256KernelOps& ops = *GetParam();
  const Gf256KernelOps& ref = gf256_scalar_kernel();
  Rng rng(2026);
  // Slack beyond the largest size so offset + size stays in bounds.
  const std::size_t max_size = 257;
  for (std::size_t dst_off : {0u, 1u, 3u, 7u}) {
    for (std::size_t src_off : {0u, 2u, 5u}) {
      for (std::size_t size = 0; size <= max_size; ++size) {
        const auto c = static_cast<std::uint8_t>(rng.next_below(256));
        const auto dst0 = random_bytes(rng, max_size + 8);
        const auto src = random_bytes(rng, max_size + 8);
        auto got = dst0;
        auto want = dst0;
        ops.mul_region(got.data() + dst_off, src.data() + src_off, c, size);
        ref.mul_region(want.data() + dst_off, src.data() + src_off, c, size);
        ASSERT_EQ(got, want) << ops.name << " c=" << int(c)
                             << " size=" << size << " dst_off=" << dst_off
                             << " src_off=" << src_off;
      }
    }
  }
  // The special coefficients across one vector-spanning size each.
  for (std::uint8_t c : kCoeffs) {
    const auto dst0 = random_bytes(rng, 257);
    const auto src = random_bytes(rng, 257);
    auto got = dst0;
    auto want = dst0;
    ops.mul_region(got.data(), src.data(), c, 257);
    ref.mul_region(want.data(), src.data(), c, 257);
    ASSERT_EQ(got, want) << ops.name << " c=" << int(c);
  }
}

TEST_P(Gf256KernelEquivalence, ScaleRegionMatchesScalar) {
  const Gf256KernelOps& ops = *GetParam();
  const Gf256KernelOps& ref = gf256_scalar_kernel();
  Rng rng(88);
  for (std::size_t off : {0u, 1u, 6u}) {
    for (std::size_t size = 0; size <= 257; ++size) {
      const auto c = static_cast<std::uint8_t>(rng.next_below(256));
      const auto dst0 = random_bytes(rng, 257 + 8);
      auto got = dst0;
      auto want = dst0;
      ops.scale_region(got.data() + off, c, size);
      ref.scale_region(want.data() + off, c, size);
      ASSERT_EQ(got, want) << ops.name << " c=" << int(c) << " size=" << size
                           << " off=" << off;
    }
  }
  for (std::uint8_t c : kCoeffs) {
    auto got = random_bytes(rng, 257);
    auto want = got;
    ops.scale_region(got.data(), c, 257);
    ref.scale_region(want.data(), c, 257);
    ASSERT_EQ(got, want) << ops.name << " c=" << int(c);
  }
}

TEST_P(Gf256KernelEquivalence, MulAccumulateMatchesScalarAllFanIns) {
  const Gf256KernelOps& ops = *GetParam();
  const Gf256KernelOps& ref = gf256_scalar_kernel();
  Rng rng(91);
  for (std::size_t n = 0; n <= 9; ++n) {  // Exercises the 4-way fold + tail.
    for (std::size_t size : {0u, 1u, 15u, 16u, 63u, 64u, 160u, 257u}) {
      std::vector<std::vector<std::uint8_t>> srcs;
      std::vector<const std::uint8_t*> ptrs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t i = 0; i < n; ++i) {
        srcs.push_back(random_bytes(rng, size));
        ptrs.push_back(srcs.back().data());
        // Bias towards the special values so zero-skipping and the XOR
        // fast path hit inside every fold shape.
        coeffs.push_back(
            rng.bernoulli(0.3)
                ? static_cast<std::uint8_t>(rng.next_below(2))
                : static_cast<std::uint8_t>(rng.next_below(256)));
      }
      const auto dst0 = random_bytes(rng, size);
      auto got = dst0;
      auto want = dst0;
      ops.mul_accumulate(got.data(), ptrs.data(), coeffs.data(), n, size);
      ref.mul_accumulate(want.data(), ptrs.data(), coeffs.data(), n, size);
      ASSERT_EQ(got, want) << ops.name << " n=" << n << " size=" << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, Gf256KernelEquivalence,
    ::testing::ValuesIn(gf256_available_kernels()),
    [](const ::testing::TestParamInfo<const Gf256KernelOps*>& param_info) {
      return std::string(param_info.param->name);
    });

TEST(Gf256KernelDispatch, AvailableKernelsStartWithScalarAndHaveUniqueNames) {
  const auto kernels = gf256_available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "scalar");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    for (std::size_t j = i + 1; j < kernels.size(); ++j) {
      EXPECT_STRNE(kernels[i]->name, kernels[j]->name);
    }
  }
}

TEST(Gf256KernelDispatch, SetKernelSwitchesAndRejectsUnknown) {
  KernelGuard guard;
  EXPECT_FALSE(gf256_set_kernel("mmx"));
  EXPECT_FALSE(gf256_set_kernel(""));
  EXPECT_FALSE(gf256_set_kernel("avx512"));
  for (const Gf256KernelOps* ops : gf256_available_kernels()) {
    ASSERT_TRUE(gf256_set_kernel(ops->name));
    EXPECT_STREQ(gf256_kernel().name, ops->name);
  }
}

TEST(Gf256KernelDispatch, Sse2AliasSelectsScalar) {
  // Pre-SSSE3 x86 has no PSHUFB, so the GF(2) plane's "sse2" value maps
  // to the scalar table walk here — one FMTCP_FORCE_KERNEL value stays
  // valid for both planes.
  KernelGuard guard;
  ASSERT_TRUE(gf256_set_kernel("sse2"));
  EXPECT_STREQ(gf256_kernel().name, "scalar");
}

}  // namespace
}  // namespace fmtcp::fountain
