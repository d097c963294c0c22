// Coefficient-field selection for the coding plane.
//
// Kept in its own tiny header so core/params.h can carry the knob
// without pulling the codec implementations in; fountain/codec.h has the
// wrappers that act on it.
#pragma once

#include <cstdint>
#include <optional>

namespace fmtcp::fountain {

/// Which coefficient field the random linear codec draws from.
///   kGf2   — bit coefficients, XOR kernels (the paper's code; default).
///   kGf256 — byte coefficients, PSHUFB/NEON multiply kernels (CTCP-style
///            ablation: lower reception overhead, costlier decode).
enum class CodingField : std::uint8_t { kGf2, kGf256 };

/// Stable lowercase name ("gf2", "gf256") — the --coding flag vocabulary
/// and what sweep outputs record.
const char* coding_field_name(CodingField field);

/// Parses a --coding flag value; nullopt if unknown.
std::optional<CodingField> parse_coding_field(const char* name);

}  // namespace fmtcp::fountain
