#include "fountain/gf256_kernels.h"

#include <cstring>

#include "common/cpu_features.h"
#include "fountain/gf256.h"
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
// FMTCP_VEC_BYTES 1 compiles the vector blocks out of the .inc, leaving
// pure split-nibble table walks; the vector macros are placeholders.
#define FMTCP_ISA_NS scalar_impl
#define FMTCP_ISA_NAME "scalar"
#define FMTCP_ISA_TARGET
#define FMTCP_VEC_BYTES 1
#define FMTCP_VLOAD(p) (*(p))
#define FMTCP_VSTORE(p, v) (*(p) = (v))
#define FMTCP_VXOR(a, b) ((a) ^ (b))
#define FMTCP_MT_T const Gf256NibbleTables*
#define FMTCP_MT_PREP(t) (&(t))
#define FMTCP_VMUL(mt, v) mul1(*(mt), (v))
#include "fountain/gf256_kernels_simd.inc"

#if defined(FMTCP_HAVE_X86_SIMD)

// Prepared split-nibble tables of one constant, staged into registers.
// The lookup is two PSHUFB-family shuffles + XOR per vector: lo table
// indexed by v & 0xF, hi table indexed by v >> 4.
struct Mt128 {
  __m128i lo, hi;
};

__attribute__((target("ssse3"))) static inline Mt128 mt128_prep(
    const Gf256NibbleTables& t) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi))};
}

__attribute__((target("ssse3"))) static inline __m128i mt128_mul(Mt128 mt,
                                                                 __m128i v) {
  const __m128i mask = _mm_set1_epi8(0x0F);
  return _mm_xor_si128(
      _mm_shuffle_epi8(mt.lo, _mm_and_si128(v, mask)),
      _mm_shuffle_epi8(mt.hi, _mm_and_si128(_mm_srli_epi16(v, 4), mask)));
}

#define FMTCP_ISA_NS ssse3_impl
#define FMTCP_ISA_NAME "ssse3"
#define FMTCP_ISA_TARGET __attribute__((target("ssse3")))
#define FMTCP_VEC_BYTES 16
#define FMTCP_VLOAD(p) \
  _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
#define FMTCP_VSTORE(p, v) \
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), (v))
#define FMTCP_VXOR(a, b) _mm_xor_si128((a), (b))
#define FMTCP_MT_T Mt128
#define FMTCP_MT_PREP(t) mt128_prep(t)
#define FMTCP_VMUL(mt, v) mt128_mul((mt), (v))
#include "fountain/gf256_kernels_simd.inc"

struct Mt256 {
  __m256i lo, hi;
};

__attribute__((target("avx2"))) static inline Mt256 mt256_prep(
    const Gf256NibbleTables& t) {
  // VPSHUFB shuffles within each 128-bit lane, so the 16-byte tables are
  // broadcast to both lanes.
  return {_mm256_broadcastsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo))),
          _mm256_broadcastsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi)))};
}

__attribute__((target("avx2"))) static inline __m256i mt256_mul(Mt256 mt,
                                                                __m256i v) {
  const __m256i mask = _mm256_set1_epi8(0x0F);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(mt.lo, _mm256_and_si256(v, mask)),
      _mm256_shuffle_epi8(mt.hi,
                          _mm256_and_si256(_mm256_srli_epi16(v, 4), mask)));
}

#define FMTCP_ISA_NS avx2_impl
#define FMTCP_ISA_NAME "avx2"
#define FMTCP_ISA_TARGET __attribute__((target("avx2")))
#define FMTCP_VEC_BYTES 32
#define FMTCP_VLOAD(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define FMTCP_VSTORE(p, v) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (v))
#define FMTCP_VXOR(a, b) _mm256_xor_si256((a), (b))
#define FMTCP_MT_T Mt256
#define FMTCP_MT_PREP(t) mt256_prep(t)
#define FMTCP_VMUL(mt, v) mt256_mul((mt), (v))
#include "fountain/gf256_kernels_simd.inc"

#endif  // FMTCP_HAVE_X86_SIMD

#if defined(FMTCP_HAVE_NEON)

struct MtNeon {
  uint8x16_t lo, hi;
};

static inline MtNeon mtneon_prep(const Gf256NibbleTables& t) {
  return {vld1q_u8(t.lo), vld1q_u8(t.hi)};
}

static inline uint8x16_t mtneon_mul(MtNeon mt, uint8x16_t v) {
  // vqtbl1q is a true 16-entry byte table lookup; vshrq_n_u8 shifts per
  // byte, so the hi index needs no mask.
  return veorq_u8(vqtbl1q_u8(mt.lo, vandq_u8(v, vdupq_n_u8(0x0F))),
                  vqtbl1q_u8(mt.hi, vshrq_n_u8(v, 4)));
}

#define FMTCP_ISA_NS neon_impl
#define FMTCP_ISA_NAME "neon"
#define FMTCP_ISA_TARGET
#define FMTCP_VEC_BYTES 16
#define FMTCP_VLOAD(p) vld1q_u8(p)
#define FMTCP_VSTORE(p, v) vst1q_u8((p), (v))
#define FMTCP_VXOR(a, b) veorq_u8((a), (b))
#define FMTCP_MT_T MtNeon
#define FMTCP_MT_PREP(t) mtneon_prep(t)
#define FMTCP_VMUL(mt, v) mtneon_mul((mt), (v))
#include "fountain/gf256_kernels_simd.inc"

#endif  // FMTCP_HAVE_NEON

constinit detail::KernelDispatcher<Gf256KernelOps> g_dispatch{
    "GF(256)", &gf256_available_kernels};

}  // namespace

const Gf256KernelOps& gf256_kernel() { return g_dispatch.active(); }

const Gf256KernelOps& gf256_scalar_kernel() { return scalar_impl::kOps; }

std::vector<const Gf256KernelOps*> gf256_available_kernels() {
  std::vector<const Gf256KernelOps*> out;
  out.push_back(&scalar_impl::kOps);
#if defined(FMTCP_HAVE_X86_SIMD)
  const CpuFeatures& f = cpu_features();
  if (f.ssse3) out.push_back(&ssse3_impl::kOps);
  if (f.avx2) out.push_back(&avx2_impl::kOps);
#endif
#if defined(FMTCP_HAVE_NEON)
  if (cpu_features().neon) out.push_back(&neon_impl::kOps);
#endif
  return out;
}

bool gf256_set_kernel(const char* name) { return g_dispatch.set(name); }

}  // namespace fmtcp::fountain
