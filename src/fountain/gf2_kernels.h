// Runtime-dispatched GF(2) XOR kernel plane.
//
// One kernel table per instruction set (scalar always; SSE2/AVX2 on
// x86-64, NEON on AArch64), compiled into every build via per-function
// target attributes — a generic -O2 build ships the AVX2 path and picks
// at runtime. Every variant computes bit-identical XOR: the dispatch
// decision can change throughput only, never a simulation result
// (fig3–7 / Table I are byte-identical under any kernel).
//
// Selection (kernel_dispatch.h, shared with the GF(256) plane): the
// kernel FMTCP_FORCE_KERNEL=scalar|sse2|ssse3|avx2|neon names ("ssse3"
// is an alias for sse2 here), else the widest the CPU supports
// (common/cpu_features). Builds configured with -DFMTCP_SIMD=OFF compile
// the scalar table only.
//
// Alignment contract: kernels use unaligned-tolerant loads throughout, so
// any pointer/length is correct; 64-byte-aligned buffers (common/aligned.h)
// are the fast path the allocators arrange, not a requirement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fmtcp::fountain {

/// One instruction-set variant of the XOR kernel family. All function
/// pointers are non-null; all variants are bit-identical.
struct Gf2KernelOps {
  /// Stable lowercase identifier ("scalar", "sse2", "avx2", "neon") —
  /// the FMTCP_FORCE_KERNEL vocabulary and what BENCH_codec.json
  /// records.
  const char* name;

  /// dst[0..size) ^= src[0..size).
  void (*xor_bytes_raw)(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t size);

  /// dst[0..size) = a[0..size) ^ b[0..size), fused single pass.
  /// dst must not overlap a or b.
  void (*xor_into)(std::uint8_t* dst, const std::uint8_t* a,
                   const std::uint8_t* b, std::size_t size);

  /// dst ^= srcs[0] ^ ... ^ srcs[n-1], folding up to four sources per
  /// pass over dst.
  void (*xor_accumulate)(std::uint8_t* dst,
                         const std::uint8_t* const* srcs, std::size_t n,
                         std::size_t size);
};

/// The active kernel table (selected on first call, then stable for the
/// process unless gf2_set_kernel intervenes). Hot loops should hoist
/// `const Gf2KernelOps& ops = gf2_kernel();` out of their inner loop.
const Gf2KernelOps& gf2_kernel();

/// The scalar table — always available, the reference all SIMD variants
/// are property-tested against.
const Gf2KernelOps& gf2_scalar_kernel();

/// Every kernel usable in this build on this CPU, deterministically
/// ordered narrowest first (scalar, sse2, avx2 / neon); the last entry
/// is the default pick.
std::vector<const Gf2KernelOps*> gf2_available_kernels();

/// Switches the active kernel by name (accepts the "ssse3" alias for
/// sse2). Returns false (no change) if the name is unknown or the kernel
/// is unavailable here. Test hook; not thread-safe against concurrent
/// kernel calls by design — callers switch only between decode runs.
bool gf2_set_kernel(const char* name);

}  // namespace fmtcp::fountain
