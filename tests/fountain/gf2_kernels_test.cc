// Kernel-plane equivalence: every SIMD variant available in this build on
// this CPU must be bit-identical to the scalar reference for every entry
// point, across the awkward sizes (0, sub-word, vector-width ± 1) and
// every source/destination misalignment. This is the property that lets
// the runtime dispatcher change throughput without ever changing a
// simulation result.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

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
  EXPECT_FALSE(gf2_set_kernel("avx512"));
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    ASSERT_TRUE(gf2_set_kernel(ops->name));
    EXPECT_STREQ(gf2_kernel().name, ops->name);
  }
}

TEST(KernelDispatch, Ssse3AliasSelectsSse2) {
  // SSSE3 adds no XOR width, so the GF(256) plane's "ssse3" value maps to
  // sse2 here — one FMTCP_FORCE_KERNEL value stays valid for both planes.
  KernelGuard guard;
  bool have_sse2 = false;
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    have_sse2 = have_sse2 || std::string(ops->name) == "sse2";
  }
  if (!have_sse2) {
    EXPECT_FALSE(gf2_set_kernel("ssse3"));
    return;
  }
  ASSERT_TRUE(gf2_set_kernel("ssse3"));
  EXPECT_STREQ(gf2_kernel().name, "sse2");
}

}  // namespace
}  // namespace fmtcp::fountain
