// Runtime CPU feature detection for kernel dispatch.
//
// Queried once (cached) at first use; the GF(2) and GF(256) kernel
// planes pick the widest available kernel from this. Detection is inherently
// machine-dependent, which is why it lives behind one narrow, documented
// interface: every kernel variant is bit-identical XOR, so the selection
// can never change a simulation result — only how fast it is produced.
// tools/lint_determinism.py bans cpuid-style probes everywhere else.
#pragma once

#include <string>

namespace fmtcp {

struct CpuFeatures {
  bool sse2 = false;        ///< x86-64 baseline (always true there).
  bool ssse3 = false;       ///< PSHUFB — the GF(256) split-nibble multiply.
  bool avx2 = false;
  bool neon = false;        ///< AArch64 baseline (always true there).
};

/// Detected features of the running CPU (cached after the first call;
/// thread-safe via static initialisation).
const CpuFeatures& cpu_features();

/// Deterministically ordered comma-separated feature list, e.g.
/// "sse2,ssse3,avx2" — recorded in BENCH_codec.json so regression
/// comparisons are like-with-like.
std::string cpu_features_string();

}  // namespace fmtcp
