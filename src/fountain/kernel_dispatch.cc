#include "fountain/kernel_dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace fmtcp::fountain::detail {
namespace {

/// FMTCP_FORCE_KERNEL names one plane lacks, mapped to that plane's kernel
/// of the same instruction-set era, so every documented value pins both.
struct KernelAlias {
  const char* plane;
  const char* name;
  const char* target;
};
constexpr KernelAlias kAliases[] = {
    {"GF(256)", "sse2", "scalar"},  // No PSHUFB before SSSE3.
    {"GF(2)", "ssse3", "sse2"},     // SSSE3 adds no XOR width.
};

}  // namespace

const char* resolve_kernel_alias(const char* plane, const char* name) {
  for (const KernelAlias& alias : kAliases) {
    if (std::strcmp(alias.plane, plane) == 0 &&
        std::strcmp(alias.name, name) == 0) {
      return alias.target;
    }
  }
  return name;
}

const char* forced_kernel_name() {
  const char* force = std::getenv("FMTCP_FORCE_KERNEL");
  return force != nullptr && *force != '\0' ? force : nullptr;
}

void abort_unknown_kernel(const char* plane, const char* name,
                          const std::vector<const char*>& names) {
  std::string list;
  for (const char* n : names) {
    if (!list.empty()) list += ',';
    list += n;
  }
  std::fprintf(stderr,
               "FMTCP_FORCE_KERNEL=%s: unknown or unavailable %s kernel "
               "(available: %s)\n",
               name, plane, list.c_str());
  std::abort();
}

}  // namespace fmtcp::fountain::detail
