// Random linear fountain code over GF(2) (paper Eq. 1–2).
//
// Each encoded symbol c_n = sum_k rho_k * g_nk over GF(2), with the
// coefficient vector (g_nk) drawn uniformly at random. Packets carry only
// the 64-bit seed that regenerates the coefficients (both ends expand the
// seed identically), as practical fountain systems do. The per-block
// encoder is fountain::SymbolEncoder (codec.h).
#pragma once

#include <cstdint>

#include "fountain/block.h"
#include "fountain/gf2.h"

namespace fmtcp::fountain {

/// Expands a coefficient seed into the k-bit vector both ends agree on.
/// All-zero draws are re-rolled deterministically, so the result always
/// has at least one set bit.
BitVector coefficients_from_seed(std::uint64_t seed, std::uint32_t k);

/// As above, but expands into a caller-owned scratch vector (storage
/// reused across calls) instead of allocating a fresh BitVector. Produces
/// the same bits as coefficients_from_seed for the same seed.
void coefficients_from_seed_into(std::uint64_t seed, std::uint32_t k,
                                 BitVector& out);

/// XOR of the block's symbols selected by `coeffs` (Eq. 1).
AlignedBytes encode_with_coefficients(const BlockData& block,
                                      const BitVector& coeffs);

/// As above, but writes into `out` (resized to the symbol size) so a
/// recycled buffer's storage is reused instead of allocating a fresh
/// vector.
void encode_with_coefficients_into(const BlockData& block,
                                   const BitVector& coeffs,
                                   AlignedBytes& out);

/// Decoding-failure probability after receiving `received` random symbols
/// of a k̂-symbol block (paper Eq. 2): 1 if received < k̂, else
/// 2^-(received - k̂).
double decode_failure_probability(std::uint32_t k_hat, double received);

}  // namespace fmtcp::fountain
