// Runtime-dispatched GF(256) multiply kernel plane.
//
// The byte-coefficient sibling of gf2_kernels.h: one kernel table per
// instruction set (scalar always; SSSE3/AVX2 on x86-64, NEON on AArch64),
// compiled into every build via per-function target attributes and
// picked at runtime. All variants compute the multiply through the same
// constexpr split-nibble tables (fountain/gf256.h), so every variant is
// bit-identical: dispatch changes throughput only, never a codec result.
//
// The SIMD trick is the classic table-driven galois multiply: for a
// constant c, two 16-entry tables T_lo[n] = c·n and T_hi[n] = c·(n<<4)
// fit one vector register each, and c·v = T_lo[v & 0xF] ^ T_hi[v >> 4]
// becomes two byte shuffles (PSHUFB / vtbl) plus an XOR — 16 or 32
// products per instruction pair instead of one table walk per byte.
//
// Selection (kernel_dispatch.h, shared with the GF(2) plane so one
// FMTCP_FORCE_KERNEL value pins the whole process): the kernel
// FMTCP_FORCE_KERNEL=scalar|sse2|ssse3|avx2|neon names, else the widest
// the CPU supports (common/cpu_features). "sse2" (a GF(2) name) is an
// alias for scalar here: pre-SSSE3 x86 has no PSHUFB, so the scalar
// table walk IS the SSE2-era GF(256) kernel. Builds configured with
// -DFMTCP_SIMD=OFF compile the scalar table only.
//
// Alignment contract: unaligned-tolerant loads throughout; 64-byte
// aligned buffers (common/aligned.h) are the fast path, not a
// requirement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fmtcp::fountain {

/// One instruction-set variant of the GF(256) multiply kernel family.
/// All function pointers are non-null; all variants are bit-identical.
struct Gf256KernelOps {
  /// Stable lowercase identifier ("scalar", "ssse3", "avx2", "neon") —
  /// the FMTCP_FORCE_KERNEL vocabulary and what BENCH_codec.json records
  /// as "gf256_kernel".
  const char* name;

  /// dst[0..size) ^= c · src[0..size). c == 0 is a no-op; c == 1 takes
  /// a pure-XOR path. dst must not overlap src.
  void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t size);

  /// dst[0..size) = c · dst[0..size) in place. c == 1 is a no-op;
  /// c == 0 zeroes the region (pivot normalisation uses c = pivot⁻¹).
  void (*scale_region)(std::uint8_t* dst, std::uint8_t c, std::size_t size);

  /// dst ^= coeffs[0]·srcs[0] ^ ... ^ coeffs[n-1]·srcs[n-1], folding up
  /// to four sources per pass over dst (the GF(256) analogue of
  /// xor_accumulate). Zero coefficients are skipped without a pass.
  void (*mul_accumulate)(std::uint8_t* dst, const std::uint8_t* const* srcs,
                         const std::uint8_t* coeffs, std::size_t n,
                         std::size_t size);
};

/// The active kernel table (selected on first call, then stable for the
/// process unless gf256_set_kernel intervenes). Hot loops should hoist
/// `const Gf256KernelOps& ops = gf256_kernel();` out of their inner loop.
const Gf256KernelOps& gf256_kernel();

/// The scalar table — always available, the reference all SIMD variants
/// are property-tested against.
const Gf256KernelOps& gf256_scalar_kernel();

/// Every kernel usable in this build on this CPU, deterministically
/// ordered narrowest first (scalar, ssse3, avx2 / neon); the last entry
/// is the default pick.
std::vector<const Gf256KernelOps*> gf256_available_kernels();

/// Switches the active kernel by name (accepts the "sse2" alias for
/// scalar). Returns false (no change) if the name is unknown or the
/// kernel is unavailable here. Test hook; not thread-safe against
/// concurrent kernel calls by design — callers switch only between
/// decode runs.
bool gf256_set_kernel(const char* name);

}  // namespace fmtcp::fountain
