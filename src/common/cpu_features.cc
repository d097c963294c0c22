#include "common/cpu_features.h"

namespace fmtcp {
namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // The one sanctioned machine probe in the codebase: kernel dispatch.
  // Every kernel variant computes bit-identical XOR, so this cannot
  // change any simulation result — see docs/ARCHITECTURE.md §9.
  __builtin_cpu_init();        // NOLINT-DETERMINISM(kernel dispatch only; all variants bit-identical)
  f.sse2 = __builtin_cpu_supports("sse2");        // NOLINT-DETERMINISM(kernel dispatch only; all variants bit-identical)
  f.ssse3 = __builtin_cpu_supports("ssse3");      // NOLINT-DETERMINISM(kernel dispatch only; all variants bit-identical)
  f.avx2 = __builtin_cpu_supports("avx2");        // NOLINT-DETERMINISM(kernel dispatch only; all variants bit-identical)
#elif defined(__aarch64__)
  f.neon = true;  // Advanced SIMD is architecturally baseline on AArch64.
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

std::string cpu_features_string() {
  const CpuFeatures& f = cpu_features();
  std::string out;
  // Fixed order, narrowest first, so the string is stable on a given
  // machine and diffs between machines read as capability deltas.
  for (const auto& [on, name] : {
           std::pair<bool, const char*>{f.sse2, "sse2"},
           {f.ssse3, "ssse3"},
           {f.avx2, "avx2"},
           {f.neon, "neon"},
       }) {
    if (!on) continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  if (out.empty()) out = "none";
  return out;
}

}  // namespace fmtcp
