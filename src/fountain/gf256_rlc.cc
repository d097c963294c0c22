#include "fountain/gf256_rlc.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "fountain/gf2.h"
#include "fountain/gf256.h"
#include "fountain/gf256_kernels.h"
#include "obs/trace/span.h"

namespace fmtcp::fountain {

void gf256_coefficients_from_seed_into(std::uint64_t seed, std::uint32_t k,
                                       std::vector<std::uint8_t>& out) {
  out.resize(k);
  Rng rng(seed);
  for (;;) {
    // Eight coefficient bytes per PRNG draw, little-endian like the
    // GF(2) expansion, truncated to k.
    for (std::uint32_t i = 0; i < k; i += 8) {
      std::uint64_t w = rng.next_u64();
      const std::uint32_t n = k - i < 8 ? k - i : 8;
      std::memcpy(out.data() + i, &w, n);
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      if (out[i] != 0) return;
    }
    // All-zero draw (k < 8 only, in practice): re-roll deterministically.
  }
}

void gf256_encode_with_coefficients_into(const BlockData& block,
                                         const std::uint8_t* coeffs,
                                         AlignedBytes& out) {
  out.assign(block.symbol_bytes(), 0);
  const Gf256KernelOps& ops = gf256_kernel();
  // Fold batches of source symbols through one fused pass over the
  // output, mirroring the GF(2) kXorBatch idiom.
  const std::uint8_t* srcs[kXorBatch];
  std::uint8_t cs[kXorBatch];
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < block.symbols(); ++i) {
    if (coeffs[i] == 0) continue;
    srcs[n] = block.symbol(i);
    cs[n] = coeffs[i];
    if (++n == kXorBatch) {
      ops.mul_accumulate(out.data(), srcs, cs, n, out.size());
      n = 0;
    }
  }
  if (n > 0) ops.mul_accumulate(out.data(), srcs, cs, n, out.size());
}

Gf256RlcDecoder::Gf256RlcDecoder(std::uint32_t symbols,
                                 std::size_t symbol_bytes, BufferPool* pool)
    : symbols_(symbols),
      symbol_bytes_(symbol_bytes),
      pool_(pool),
      stride_(2 * static_cast<std::size_t>(symbols)),
      rows_(symbols * stride_, 0),
      present_((symbols + 63) / 64, 0),
      scratch_record_(stride_, 0) {
  FMTCP_CHECK(symbols > 0);
  FMTCP_CHECK(symbol_bytes > 0);
  stored_.reserve(symbols);
}

bool Gf256RlcDecoder::add_symbol(const std::uint8_t* coeffs,
                                 AlignedBytes&& data) {
  FMTCP_COUNT("codec.add_symbol", 1);
  ++received_;
  if (complete()) {
    // Late symbol for an already-decodable block: count and recycle.
    ++redundant_;
    if (pool_ != nullptr && !data.empty()) pool_->release(std::move(data));
    return false;
  }
  const std::uint32_t k = symbols_;
  FMTCP_CHECK(data.size() == symbol_bytes_);
  std::uint8_t* rec = scratch_record_.data();
  std::memcpy(rec, coeffs, k);
  // Composition starts as "this symbol alone"; elimination folds pivot
  // rows' compositions in through the same fused suffix ops.
  std::memset(rec + k, 0, k);
  rec[k + stored_.size()] = 1;
  const Gf256KernelOps& ops = gf256_kernel();
  // Forward elimination with partial pivoting: scan for the first
  // nonzero coefficient; eliminate while that column already has a
  // pivot. One fused mul_region over the record suffix handles
  // coefficients and composition. It starts at line_start(p), not at p:
  // rec[<p] and pivot row p's coeffs[<p] are both zero, so the extra
  // bytes XOR c·0, and each op reloads exactly the lines the previous
  // one stored (store-to-load forwarding; see the header).
  std::uint32_t p = 0;
  while (p < k) {
    if (rec[p] == 0) {
      ++p;
      continue;
    }
    if (!has_pivot(p)) break;
    const std::uint8_t factor = rec[p];  // Pivot coefficient is 1.
    const std::size_t from = line_start(p);
    ops.mul_region(rec + from, row(p) + from, factor, stride_ - from);
    coeff_bytes_eliminated_ += stride_ - p;
    // rec[p] is now zero by construction; continue at the next column.
    ++p;
  }
  if (p == k) {
    ++redundant_;
    if (pool_ != nullptr && !data.empty()) pool_->release(std::move(data));
    return false;
  }
  // Innovative: normalise so the pivot coefficient is 1 (bytes before p
  // are zero already, so the scale starts on the same line boundary),
  // then the row enters the arena at p.
  const std::uint8_t inv = gf256_inv(rec[p]);
  const std::size_t from = line_start(p);
  ops.scale_region(rec + from, inv, stride_ - from);
  coeff_bytes_eliminated_ += stride_ - p;
  std::memcpy(row(p), rec, stride_);
  present_[p >> 6] |= 1ULL << (p & 63);
  ++rank_;
  stored_.push_back(std::move(data));
  return true;
}

bool Gf256RlcDecoder::add_symbol(net::EncodedSymbol&& symbol) {
  FMTCP_CHECK(symbol.block_symbols == symbols_);
  if (symbol.is_systematic()) {
    FMTCP_CHECK(symbol.systematic_index < symbols_);
    scratch_coeffs_.assign(symbols_, 0);
    scratch_coeffs_[symbol.systematic_index] = 1;
  } else {
    gf256_coefficients_from_seed_into(symbol.coeff_seed, symbols_,
                                      scratch_coeffs_);
  }
  return add_symbol(scratch_coeffs_.data(), std::move(symbol.data));
}

bool Gf256RlcDecoder::add_symbol(const net::EncodedSymbol& symbol) {
  net::EncodedSymbol copy;
  copy.block = symbol.block;
  copy.block_symbols = symbol.block_symbols;
  copy.coeff_seed = symbol.coeff_seed;
  copy.systematic_index = symbol.systematic_index;
  copy.data = symbol.data;
  return add_symbol(std::move(copy));
}

const BlockData& Gf256RlcDecoder::decode() {
  if (decoded_.has_value()) return *decoded_;
  FMTCP_CHECK(complete());
  FMTCP_SPAN("gf256.decode");
  const std::uint32_t k = symbols_;
  const Gf256KernelOps& ops = gf256_kernel();
  // Back-substitution on the fused records, descending. At step p row
  // p's coefficients are the unit vector e_p and row q's are clear above
  // column p, so folding row p into row q zeroes rq[p] and touches only
  // the k composition bytes. The counter keeps the logical suffix
  // length [p, stride).
  for (std::uint32_t p = k; p-- > 0;) {
    const std::uint8_t* comp_p = row(p) + k;
    for (std::uint32_t q = 0; q < p; ++q) {
      std::uint8_t* rq = row(q);
      const std::uint8_t c = rq[p];
      if (c == 0) continue;
      rq[p] = 0;
      ops.mul_region(rq + k, comp_p, c, k);
      coeff_bytes_eliminated_ += stride_ - p;
    }
  }
  // Materialise each source symbol as one fused multiply-accumulate of
  // the stored payloads selected by its composition row.
  decoded_.emplace(symbols_, symbol_bytes_);
  std::vector<const std::uint8_t*> ptrs(stored_.size());
  for (std::size_t j = 0; j < stored_.size(); ++j) ptrs[j] = stored_[j].data();
  for (std::uint32_t p = 0; p < k; ++p) {
    const std::uint8_t* comp = row(p) + k;
    ops.mul_accumulate(decoded_->symbol(p), ptrs.data(), comp,
                       stored_.size(), symbol_bytes_);
    std::size_t nnz = 0;
    for (std::size_t j = 0; j < stored_.size(); ++j) nnz += comp[j] != 0;
    payload_bytes_multiplied_ += nnz * symbol_bytes_;
    ++rows_composed_;
  }
  if (pool_ != nullptr) {
    for (AlignedBytes& s : stored_) pool_->release(std::move(s));
  }
  stored_.clear();
  return *decoded_;
}

}  // namespace fmtcp::fountain
