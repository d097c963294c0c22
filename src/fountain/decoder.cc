#include "fountain/decoder.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "fountain/gf2_kernels.h"
#include "fountain/random_linear.h"
#include "obs/trace/span.h"

namespace fmtcp::fountain {

namespace {

/// M4R payload-table strip budget: tables stay around L2-sized so the
/// build/apply loop streams from cache.
constexpr std::size_t kStripTableBytes = 192 * 1024;

std::size_t round_up_64(std::size_t n) { return (n + 63) & ~std::size_t{63}; }

/// Inline word XORs for the symbolic (coefficient/composition) side.
/// Operands here are W = ceil(k̂/64) words — 16..64 bytes — where an
/// indirect call into the dispatched kernel costs more than the XOR
/// itself; the dispatched kernels are reserved for payload-sized passes.
inline void xw(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

inline void xw3(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
}

}  // namespace

BlockDecoder::BlockDecoder(std::uint32_t symbols, std::size_t symbol_bytes,
                           BufferPool* pool)
    : symbols_(symbols),
      symbol_bytes_(symbol_bytes),
      pool_(pool),
      coeff_words_((symbols + 63) / 64),
      stride_words_(2 * coeff_words_),
      rows_(static_cast<std::size_t>(symbols) * stride_words_, 0),
      present_((symbols + 63) / 64, 0),
      scratch_row_(stride_words_, 0) {
  FMTCP_CHECK(symbols > 0);
  FMTCP_CHECK(symbol_bytes > 0);
  stored_.reserve(symbols);
}

AlignedBytes BlockDecoder::copy_payload(const AlignedBytes& data) {
  // Copy through the pool when one is attached: steady-state feeding
  // then recycles the buffers decode() releases instead of paying a
  // fresh allocation per symbol.
  if (pool_ == nullptr) return data;
  AlignedBytes copy = pool_->acquire(data.size());
  std::memcpy(copy.data(), data.data(), data.size());
  return copy;
}

bool BlockDecoder::add_symbol(const BitVector& coeffs,
                              const AlignedBytes& data) {
  return add_symbol(coeffs, copy_payload(data));
}

bool BlockDecoder::add_symbol(const BitVector& coeffs, AlignedBytes&& data) {
  FMTCP_CHECK(coeffs.size() == symbols_);
  FMTCP_COUNT("codec.add_symbol", 1);
  ++received_;
  if (complete()) {
    ++redundant_;
    if (pool_ != nullptr) pool_->release(std::move(data));
    return false;
  }

  // Assemble the incoming fused record in scratch (no allocation): the
  // expanded coefficients, then a composition half that starts as the
  // singleton {rank_}, the stored_ slot this payload will occupy if it
  // proves innovative.
  FMTCP_CHECK(data.size() == symbol_bytes_);
  std::memcpy(scratch_row_.data(), coeffs.word_data(),
              coeff_words_ * sizeof(std::uint64_t));
  std::fill_n(scratch_row_.data() + coeff_words_, coeff_words_, 0ULL);
  scratch_row_[coeff_words_ + (rank_ >> 6)] = 1ULL << (rank_ & 63);

  // Reduce against existing pivot rows until the leading bit is free —
  // coefficients and composition only; payload bytes are untouched.
  std::uint64_t words = 0;
  std::size_t pivot;
  if (symbols_ <= 64) {
    // One-word fast path: both halves live in registers across the whole
    // reduction, instead of being reloaded every iteration (the compiler
    // cannot prove the scratch record and the arena don't alias). The
    // scan walks set bits of cw & present directly, so every iteration
    // eliminates and the loop branch stays predictable.
    std::uint64_t cw = scratch_row_[0];
    std::uint64_t pv = scratch_row_[1];
    std::uint64_t m = cw & present_[0];
    while (m != 0) {
      const auto p = static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t* prow = row(p);
      cw ^= prow[0];
      pv ^= prow[1];
      words += 2;
      m = cw & present_[0];
    }
    pivot = cw != 0 ? static_cast<std::size_t>(std::countr_zero(cw))
                    : symbols_;
    scratch_row_[0] = cw;
    scratch_row_[1] = pv;
  } else {
    pivot = reduce_record(words);
  }
  coeff_word_xors_ += words;

  if (pivot >= symbols_) {
    ++redundant_;  // Linearly dependent; dropped (paper §III-B).
    if (pool_ != nullptr) pool_->release(std::move(data));
    return false;
  }

  stored_.push_back(std::move(data));
  std::memcpy(row(pivot), scratch_row_.data(),
              stride_words_ * sizeof(std::uint64_t));
  present_[pivot >> 6] |= 1ULL << (pivot & 63);
  ++rank_;
  return true;
}

void BlockDecoder::expand_coefficients(const net::EncodedSymbol& symbol) {
  if (symbol.is_systematic()) {
    FMTCP_CHECK(symbol.systematic_index < symbols_);
    scratch_coeffs_.reset(symbols_);
    scratch_coeffs_.set(symbol.systematic_index, true);
  } else {
    coefficients_from_seed_into(symbol.coeff_seed, symbols_,
                                scratch_coeffs_);
  }
}

bool BlockDecoder::add_symbol(const net::EncodedSymbol& symbol) {
  FMTCP_CHECK(symbol.block_symbols == symbols_);
  expand_coefficients(symbol);
  return add_symbol(scratch_coeffs_, copy_payload(symbol.data));
}

bool BlockDecoder::add_symbol(net::EncodedSymbol&& symbol) {
  FMTCP_CHECK(symbol.block_symbols == symbols_);
  expand_coefficients(symbol);
  return add_symbol(scratch_coeffs_, std::move(symbol.data));
}

std::size_t BlockDecoder::buffered_bytes() const {
  if (complete() && decoded_.has_value()) return 0;
  return static_cast<std::size_t>(rank_) * symbol_bytes_;
}

const BlockData& BlockDecoder::decode() {
  DecodeScratch scratch;
  return decode(scratch);
}

const BlockData& BlockDecoder::decode(DecodeScratch& scratch) {
  FMTCP_CHECK(complete());
  if (decoded_.has_value()) return *decoded_;
  FMTCP_SPAN_ARG("codec.decode", symbols_);

  const std::size_t k = symbols_;
  std::uint64_t words = 0;
  BlockData out(symbols_, symbol_bytes_);
  if (symbols_ <= 64) {
    // One-word fast path (registers; see add_symbol). When row q is
    // processed every row p > q is already the singleton {p}, so
    // eliminating bit p XORs row p's composition only.
    for (std::size_t q = symbols_; q-- > 0;) {
      FMTCP_DCHECK(has_pivot(q));
      std::uint64_t* r = row(q);
      std::uint64_t rest = r[0] ^ (1ULL << q);
      if (rest == 0) continue;
      std::uint64_t pv = r[1];
      while (rest != 0) {
        const auto p = static_cast<std::size_t>(std::countr_zero(rest));
        rest &= rest - 1;
        pv ^= row(p)[1];
        ++words;
      }
      r[1] = pv;
      r[0] = 1ULL << q;
    }
  } else {
    words += solve_symbolic_blocked(scratch);
  }
  scratch.comp_ptrs_.resize(k);
  scratch.dst_ptrs_.resize(k);
  for (std::size_t q = 0; q < k; ++q) {
    scratch.comp_ptrs_[q] = row_comp(q);
    scratch.dst_ptrs_[q] = out.symbol(static_cast<std::uint32_t>(q));
  }
  const std::uint64_t bytes = compose_rows(
      scratch.comp_ptrs_.data(), scratch.dst_ptrs_.data(), k, scratch);

  coeff_word_xors_ += words;
  rows_composed_ += symbols_;
  payload_bytes_xored_ += bytes;

  for (auto& buf : stored_) {
    if (pool_ != nullptr) pool_->release(std::move(buf));
  }
  stored_.clear();
  decoded_ = std::move(out);
  return *decoded_;
}

std::size_t BlockDecoder::reduce_record(std::uint64_t& words) {
  // Narrow records (k̂ ≤ 256) reduce fastest fully register-resident;
  // wider ones leave the off-chain half to the dispatched kernel's
  // fused reduce, whose vector width covers the record in a few ops.
  switch (coeff_words_) {
    case 2: return reduce_record_impl<2>(words);
    case 3: return reduce_record_impl<3>(words);
    case 4: return reduce_record_impl<0>(words);
    default: return reduce_record_impl<0>(words);
  }
}

template <std::size_t WC>
std::size_t BlockDecoder::reduce_record_impl(std::uint64_t& words) {
  if constexpr (WC == 0) {
    // Uncommon width: the dispatched kernel's fused reduce runs the
    // whole eliminate-and-rescan loop in one call.
    std::size_t steps = 0;
    const std::size_t pivot = gf2_kernel().reduce_row(
        scratch_row_.data(), rows_.data(), present_.data(), symbols_,
        coeff_words_, stride_words_, &steps);
    words += steps * stride_words_;
    return pivot;
  } else {
    // The whole fused record lives in a constant-size local array the
    // compiler keeps in registers, so the serial chain per step is just
    // load-XOR-ctz: no store-to-load round trip through the scratch
    // row. The scan iterates set bits of rec & present directly — every
    // loop iteration is a real elimination, so the loop branch is
    // predictable (free set bits never enter the mask). Eliminating at
    // pivot p only touches bits ≥ p, so the recomputed mask advances
    // monotonically and the row ends fully reduced against all pivots;
    // its lowest surviving bit is the new (free) pivot position.
    // Records have compile-time stride 2·WC, so the row
    // address is a shift, not an imul, on the serial address chain; the
    // unrolled word loop makes every rec index a constant, letting the
    // scan word live in a register across the whole inner loop.
    constexpr std::size_t kStride = 2 * WC;
    const std::uint64_t* arena = rows_.data();
    const std::uint64_t* pres = present_.data();
    std::uint64_t rec[2 * WC];
    std::memcpy(rec, scratch_row_.data(), sizeof(rec));
    std::size_t steps = 0;
#pragma GCC unroll 8
    for (std::size_t w = 0; w < WC; ++w) {
      std::uint64_t cur = rec[w];
      const std::uint64_t pw = pres[w];
      std::uint64_t m = cur & pw;
      while (m != 0) {
        const std::size_t p =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        const std::uint64_t* pr = arena + p * kStride;
        ++steps;
        cur ^= pr[w];
        for (std::size_t i = w + 1; i < 2 * WC; ++i) rec[i] ^= pr[i];
        m = cur & pw;
      }
      rec[w] = cur;
    }
    std::size_t pivot = symbols_;
    for (std::size_t w = 0; w < WC; ++w) {
      if (rec[w] != 0) {
        pivot = w * 64 + static_cast<std::size_t>(std::countr_zero(rec[w]));
        break;
      }
    }
    std::memcpy(scratch_row_.data(), rec, sizeof(rec));
    words += steps * stride_words_;
    return pivot;
  }
}

std::uint64_t BlockDecoder::solve_symbolic_blocked(DecodeScratch& scratch) {
  switch (coeff_words_) {
    case 2: return solve_symbolic_blocked_impl<2>(scratch);
    case 3: return solve_symbolic_blocked_impl<3>(scratch);
    case 4: return solve_symbolic_blocked_impl<4>(scratch);
    case 6: return solve_symbolic_blocked_impl<6>(scratch);
    case 8: return solve_symbolic_blocked_impl<8>(scratch);
    default: return solve_symbolic_blocked_impl<0>(scratch);
  }
}

template <std::size_t WC>
std::uint64_t BlockDecoder::solve_symbolic_blocked_impl(
    DecodeScratch& scratch) {
  // Symbolic back-substitution, 8 pivot columns at a time (method of
  // four Russians on the composition rows). Blocks are processed from
  // the top down; when block B = [b0, b0+m) is reached, every row in B
  // already had its higher-block coefficient bits folded in by earlier
  // apply passes, so after the in-block descending substitution the
  // compositions of B's rows are final. One 2^m-entry subset-XOR table
  // over those m compositions then folds B's contribution into every
  // lower row with a single fused XOR per row — instead of one XOR per
  // set bit. Each coefficient byte is consumed exactly once, so rows
  // never need their coefficients cleared.
  const std::size_t k = symbols_;
  const std::size_t W = WC != 0 ? WC : coeff_words_;
  std::uint64_t words = 0;
  scratch.solve_tables_.resize(512 * W);
  std::uint64_t* tbl_lo = scratch.solve_tables_.data();
  std::uint64_t* tbl_hi = tbl_lo + 256 * W;

  // In-block back-substitution, descending. Row q's bits below q are
  // zero (pivot invariant) and bits in higher blocks were consumed by
  // earlier applies, so only bits (q, b0+m) matter.
  const auto subst = [&](std::size_t b0, std::size_t m, std::size_t word,
                         unsigned shift, std::uint32_t mask) {
    for (std::size_t q = b0 + m; q-- > b0;) {
      FMTCP_DCHECK(has_pivot(q));
      std::uint32_t above = (static_cast<std::uint32_t>(row(q)[word] >> shift) &
                             mask) >>
                            (q - b0 + 1);
      while (above != 0) {
        const std::size_t j =
            (q - b0 + 1) + static_cast<std::size_t>(std::countr_zero(above));
        above &= above - 1;
        xw(row_comp(q), row_comp(b0 + j), W);
        words += W;
      }
    }
  };

  // Subset-XOR table over finalised compositions: entry v holds the
  // XOR of comp rows (base + set bits of v), built incrementally (one
  // fused pass each) from entry v with its lowest bit dropped.
  const auto build_subset = [&](std::uint64_t* t, std::size_t base,
                                std::uint32_t top) {
    for (std::uint32_t v = 1; v <= top; ++v) {
      std::uint64_t* dst = t + static_cast<std::size_t>(v) * W;
      const std::uint64_t* crow =
          row_comp(base + static_cast<std::size_t>(std::countr_zero(v)));
      const std::uint32_t parent = v & (v - 1);
      if (parent == 0) {
        std::memcpy(dst, crow, W * sizeof(std::uint64_t));
      } else {
        xw3(dst, t + static_cast<std::size_t>(parent) * W, crow, W);
        words += W;
      }
    }
  };

  // One block's fold structure. Table size is amortised over the rows
  // below, so the regime is picked by that count alone (a pure function
  // of k̂ — never of the machine): the full 2^m-entry table past ~112
  // rows, two 16-entry nibble tables past ~20, direct per-bit
  // application for short tails (lo == nullptr).
  struct Fold {
    const std::uint64_t* lo = nullptr;
    const std::uint64_t* hi = nullptr;
    std::size_t b0 = 0;
    std::size_t lom = 0;
    std::uint32_t lomask = 0;
  };
  const auto build_fold = [&](std::uint64_t* t, std::size_t b0, std::size_t m,
                              std::uint32_t mask,
                              std::size_t rows_below) -> Fold {
    Fold f;
    f.b0 = b0;
    if (rows_below < 20) return f;
    if (rows_below >= 112) {
      build_subset(t, b0, mask);
      f.lo = t;
      f.lom = m;
      f.lomask = mask;
      return f;
    }
    f.lom = m < 4 ? m : 4;
    f.lomask = static_cast<std::uint32_t>((1u << f.lom) - 1);
    build_subset(t, b0, f.lomask);
    f.lo = t;
    if (m > f.lom) {
      build_subset(t + 16 * W, b0 + f.lom, mask >> f.lom);
      f.hi = t + 16 * W;
    }
    return f;
  };
  const auto apply_fold = [&](const Fold& f, std::uint32_t v,
                              std::uint64_t* comp) {
    if (f.lo == nullptr) {
      while (v != 0) {
        const std::size_t j = static_cast<std::size_t>(std::countr_zero(v));
        v &= v - 1;
        xw(comp, row_comp(f.b0 + j), W);
        words += W;
      }
      return;
    }
    const std::uint32_t vlo = v & f.lomask;
    const std::uint32_t vhi = v >> f.lom;
    if (vlo != 0) {
      xw(comp, f.lo + static_cast<std::size_t>(vlo) * W, W);
      words += W;
    }
    if (vhi != 0) {
      xw(comp, f.hi + static_cast<std::size_t>(vhi) * W, W);
      words += W;
    }
  };

  // Blocks are consumed from the top down, two per sweep: the high
  // block is substituted and folded into the low block's eight rows,
  // the low block substituted, and then one pass over all remaining
  // rows folds BOTH blocks — each row's coefficient and composition
  // lines are touched once per pair instead of once per block, halving
  // the dominant sweep traffic. Each coefficient byte is consumed
  // exactly once, so rows never need their coefficients cleared.
  const std::size_t nblocks = (k + 7) / 8;
  std::size_t bi = nblocks;
  while (bi > 0) {
    const std::size_t h0 = (bi - 1) * 8;
    const std::size_t mh = std::min<std::size_t>(8, k - h0);
    const std::size_t hword = h0 >> 6;
    const auto hshift = static_cast<unsigned>(h0 & 63);
    const auto hmask = static_cast<std::uint32_t>((1u << mh) - 1);
    subst(h0, mh, hword, hshift, hmask);
    if (h0 == 0) break;

    const std::size_t l0 = h0 - 8;
    const Fold fh = build_fold(tbl_hi, h0, mh, hmask, h0);
    const std::size_t lword = l0 >> 6;
    const auto lshift = static_cast<unsigned>(l0 & 63);
    for (std::size_t q = l0; q < h0; ++q) {
      apply_fold(fh,
                 static_cast<std::uint32_t>(row(q)[hword] >> hshift) & hmask,
                 row_comp(q));
    }
    subst(l0, 8, lword, lshift, 0xffu);
    if (l0 == 0) break;

    const Fold fl = build_fold(tbl_lo, l0, 8, 0xffu, l0);
    for (std::size_t q = 0; q < l0; ++q) {
      const std::uint64_t* rq = row(q);
      std::uint64_t* cq = row_comp(q);
      apply_fold(fh, static_cast<std::uint32_t>(rq[hword] >> hshift) & hmask,
                 cq);
      apply_fold(fl, static_cast<std::uint32_t>(rq[lword] >> lshift) & 0xffu,
                 cq);
    }
    bi -= 2;
  }
  return words;
}

std::uint64_t BlockDecoder::compose_rows(const std::uint64_t* const* comps,
                                         std::uint8_t* const* dsts,
                                         std::size_t nrows,
                                         DecodeScratch& scratch) {
  // Pick the cheaper application strategy by predicted output-sized
  // passes. Direct: one pass per set bit. M4R with g-bit groups: one
  // pass per table entry plus (at most) one per row per group; 4-bit
  // groups win at moderate k, 8-bit at large k where the per-row group
  // count halves.
  const std::size_t k = symbols_;
  std::size_t set_bits = 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    for (std::size_t w = 0; w < coeff_words_; ++w) {
      set_bits += static_cast<std::size_t>(std::popcount(comps[i][w]));
    }
  }
  const std::size_t groups4 = (k + 3) / 4;
  const std::size_t groups8 = (k + 7) / 8;
  const std::size_t cost4 = groups4 * 15 + nrows * groups4;
  const std::size_t cost8 = groups8 * 255 + nrows * groups8;
  const std::size_t cost_m4r = std::min(cost4, cost8);
  if (set_bits <= cost_m4r) return compose_rows_direct(comps, dsts, nrows);
  return compose_rows_m4r(comps, dsts, nrows, cost4 <= cost8 ? 4 : 8,
                          scratch);
}

std::uint64_t BlockDecoder::compose_rows_direct(
    const std::uint64_t* const* comps, std::uint8_t* const* dsts,
    std::size_t nrows) {
  const Gf2KernelOps& ops = gf2_kernel();
  std::uint64_t bytes = 0;
  const std::uint8_t* srcs[kXorBatch];
  for (std::size_t i = 0; i < nrows; ++i) {
    std::uint8_t* dst = dsts[i];
    std::size_t n = 0;
    for (std::size_t w = 0; w < coeff_words_; ++w) {
      std::uint64_t bits = comps[i][w];
      while (bits != 0) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        FMTCP_DCHECK(j < stored_.size());
        srcs[n++] = stored_[j].data();
        if (n == kXorBatch) {
          ops.xor_accumulate(dst, srcs, n, symbol_bytes_);
          bytes += n * symbol_bytes_;
          n = 0;
        }
      }
    }
    if (n > 0) {
      ops.xor_accumulate(dst, srcs, n, symbol_bytes_);
      bytes += n * symbol_bytes_;
    }
  }
  return bytes;
}

std::uint64_t BlockDecoder::compose_rows_m4r(
    const std::uint64_t* const* comps, std::uint8_t* const* dsts,
    std::size_t nrows, std::size_t group_bits, DecodeScratch& scratch) {
  // Method of four Russians over stored payloads, strip-processed: the
  // slot axis is cut into strips of a few groups whose subset-XOR tables
  // fit in cache; each strip builds its tables once, then folds into all
  // rows (accumulating into dst, so strips compose). Entry v of a group
  // holds the XOR of the group's stored payloads selected by v's bits —
  // built incrementally, one fused pass per entry. Table rows are padded
  // to 64-byte stride so every entry starts a fresh cache line.
  const Gf2KernelOps& ops = gf2_kernel();
  const std::size_t k = symbols_;
  const std::size_t g = group_bits;
  const std::size_t entries = (std::size_t{1} << g) - 1;
  const std::size_t sbpad = round_up_64(symbol_bytes_);
  const std::size_t per_group = entries * sbpad;
  const std::size_t strip = std::max<std::size_t>(
      1, kStripTableBytes / per_group);
  const std::size_t ngroups = (k + g - 1) / g;
  scratch.payload_tables_.resize(std::min(strip, ngroups) * per_group);
  std::uint8_t* tables = scratch.payload_tables_.data();
  std::uint64_t bytes = 0;
  const std::uint8_t* srcs[kXorBatch];

  for (std::size_t gs = 0; gs < ngroups; gs += strip) {
    const std::size_t ge = std::min(gs + strip, ngroups);
    for (std::size_t gi = gs; gi < ge; ++gi) {
      const std::size_t base = gi * g;
      const std::size_t m = std::min(g, k - base);
      std::uint8_t* tbl = tables + (gi - gs) * per_group;
      for (std::size_t v = 1; v < (std::size_t{1} << m); ++v) {
        std::uint8_t* dst = tbl + (v - 1) * sbpad;
        const std::size_t low = v & (~v + 1);
        const std::size_t rest = v ^ low;
        const std::uint8_t* a =
            stored_[base + static_cast<std::size_t>(
                               std::countr_zero(low))]
                .data();
        if (rest == 0) {
          std::memcpy(dst, a, symbol_bytes_);
        } else {
          ops.xor_into(dst, tbl + (rest - 1) * sbpad, a, symbol_bytes_);
          bytes += symbol_bytes_;
        }
      }
    }

    // Apply the strip: one table lookup per non-zero g-bit field of each
    // row's composition (fields never straddle words: g divides 64).
    for (std::size_t i = 0; i < nrows; ++i) {
      const std::uint64_t* cw = comps[i];
      std::uint8_t* dst = dsts[i];
      std::size_t n = 0;
      for (std::size_t gi = gs; gi < ge; ++gi) {
        const std::size_t field =
            g == 4 ? (static_cast<std::size_t>(cw[gi >> 4] >>
                                               ((gi & 15) * 4)) &
                      0xF)
                   : (static_cast<std::size_t>(cw[gi >> 3] >>
                                               ((gi & 7) * 8)) &
                      0xFF);
        if (field == 0) continue;
        srcs[n++] = tables + (gi - gs) * per_group + (field - 1) * sbpad;
        if (n == kXorBatch) {
          ops.xor_accumulate(dst, srcs, n, symbol_bytes_);
          bytes += n * symbol_bytes_;
          n = 0;
        }
      }
      if (n > 0) {
        ops.xor_accumulate(dst, srcs, n, symbol_bytes_);
        bytes += n * symbol_bytes_;
      }
    }
  }
  return bytes;
}

}  // namespace fmtcp::fountain
