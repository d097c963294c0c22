// One FMTCP_FORCE_KERNEL vocabulary for both kernel planes: every name
// either plane reports must pin both the GF(2) and the GF(256) plane, so
// one environment value can never accept one plane and abort the other.
// (On x86 the union holds both aliases: sse2 is GF(256)'s scalar and
// ssse3 is GF(2)'s sse2; each plane's own suite checks its alias.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "fountain/gf256_kernels.h"
#include "fountain/gf2_kernels.h"

namespace fmtcp::fountain {
namespace {

TEST(KernelVocabulary, EveryReportedNameSetsBothPlanes) {
  const std::string gf2_saved = gf2_kernel().name;
  const std::string gf256_saved = gf256_kernel().name;
  std::set<std::string> names;
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    names.insert(ops->name);
  }
  for (const Gf256KernelOps* ops : gf256_available_kernels()) {
    names.insert(ops->name);
  }
  for (const std::string& name : names) {
    EXPECT_TRUE(gf2_set_kernel(name.c_str())) << name;
    EXPECT_TRUE(gf256_set_kernel(name.c_str())) << name;
  }
  gf2_set_kernel(gf2_saved.c_str());
  gf256_set_kernel(gf256_saved.c_str());
}

TEST(KernelVocabulary, DefaultIsTheWidestAvailable) {
  // Unforced, each plane picks the last (widest) entry of its list.
  const char* force = std::getenv("FMTCP_FORCE_KERNEL");
  if (force != nullptr && *force != '\0') {
    GTEST_SKIP() << "FMTCP_FORCE_KERNEL pins the planes";
  }
  EXPECT_STREQ(gf2_kernel().name, gf2_available_kernels().back()->name);
  EXPECT_STREQ(gf256_kernel().name, gf256_available_kernels().back()->name);
}

}  // namespace
}  // namespace fmtcp::fountain
