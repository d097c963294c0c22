#include "fountain/gf2_kernels.h"

#include "common/cpu_features.h"
#include "fountain/kernel_dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && !defined(FMTCP_SIMD_DISABLED)
#define FMTCP_HAVE_X86_SIMD 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(FMTCP_SIMD_DISABLED)
#define FMTCP_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace fmtcp::fountain {
namespace {

// ---- Scalar stamp (always compiled; the reference implementation). ----
#define FMTCP_ISA_NS scalar_impl
#define FMTCP_ISA_NAME "scalar"
#define FMTCP_ISA_TARGET
#define FMTCP_VEC_BYTES 8
#define FMTCP_VLOAD(p) lo64(p)
#define FMTCP_VSTORE(p, v) st64(p, v)
#define FMTCP_VXOR(a, b) ((a) ^ (b))
#include "fountain/gf2_kernels_simd.inc"

#if defined(FMTCP_HAVE_X86_SIMD)

#define FMTCP_ISA_NS sse2_impl
#define FMTCP_ISA_NAME "sse2"
#define FMTCP_ISA_TARGET __attribute__((target("sse2")))
#define FMTCP_VEC_BYTES 16
#define FMTCP_VLOAD(p) \
  _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
#define FMTCP_VSTORE(p, v) \
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), (v))
#define FMTCP_VXOR(a, b) _mm_xor_si128((a), (b))
#include "fountain/gf2_kernels_simd.inc"

#define FMTCP_ISA_NS avx2_impl
#define FMTCP_ISA_NAME "avx2"
#define FMTCP_ISA_TARGET __attribute__((target("avx2")))
#define FMTCP_VEC_BYTES 32
#define FMTCP_VLOAD(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define FMTCP_VSTORE(p, v) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (v))
#define FMTCP_VXOR(a, b) _mm256_xor_si256((a), (b))
#include "fountain/gf2_kernels_simd.inc"

#endif  // FMTCP_HAVE_X86_SIMD

#if defined(FMTCP_HAVE_NEON)

#define FMTCP_ISA_NS neon_impl
#define FMTCP_ISA_NAME "neon"
#define FMTCP_ISA_TARGET
#define FMTCP_VEC_BYTES 16
#define FMTCP_VLOAD(p) vld1q_u8(p)
#define FMTCP_VSTORE(p, v) vst1q_u8((p), (v))
#define FMTCP_VXOR(a, b) veorq_u8((a), (b))
#include "fountain/gf2_kernels_simd.inc"

#endif  // FMTCP_HAVE_NEON

constinit detail::KernelDispatcher<Gf2KernelOps> g_dispatch{
    "GF(2)", &gf2_available_kernels};

}  // namespace

const Gf2KernelOps& gf2_kernel() { return g_dispatch.active(); }

const Gf2KernelOps& gf2_scalar_kernel() { return scalar_impl::kOps; }

std::vector<const Gf2KernelOps*> gf2_available_kernels() {
  std::vector<const Gf2KernelOps*> out;
  out.push_back(&scalar_impl::kOps);
#if defined(FMTCP_HAVE_X86_SIMD)
  const CpuFeatures& f = cpu_features();
  if (f.sse2) out.push_back(&sse2_impl::kOps);
  if (f.avx2) out.push_back(&avx2_impl::kOps);
#endif
#if defined(FMTCP_HAVE_NEON)
  if (cpu_features().neon) out.push_back(&neon_impl::kOps);
#endif
  return out;
}

bool gf2_set_kernel(const char* name) { return g_dispatch.set(name); }

}  // namespace fmtcp::fountain
