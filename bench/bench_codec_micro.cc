// Fountain codec microbenchmarks.
//
// Two modes:
//  - Default: google-benchmark micros (encode throughput vs k̂ and symbol
//    size — the §III-B "coding complexity" constraint on block size).
//  - --json=FILE / --guard=FILE: a self-contained decode-throughput
//    harness (MB/s of recovered source data and symbols/s) across
//    k ∈ {16, 32, 64, 128}, systematic-heavy vs dense-coded streams, and
//    eager-equivalent vs lazy decoding; plus new-decoder-only cases at
//    k ∈ {256, 512} (dense) and an MTU-sized 1400-byte-symbol case.
//    --json writes the numbers (the committed BENCH_codec.json baseline
//    at the repo root, produced by tools/bench.sh); --guard re-runs the
//    harness and fails if any case regressed more than --max-regression
//    (default 0.20) against the baseline file (tools/check.sh
//    FMTCP_BENCH_GUARD=1).
//    The harness also covers the GF(256) RLC ablation codec
//    (gf256_dense_k* / gf256_systematic_k*, and its online phase alone
//    in gf256_add_symbol_k128), the raw gf256 multiply
//    kernel (gf256_mul_region vs gf256_mul_region_scalar — the
//    split-nibble SIMD speedup on record) and encode throughput at
//    k̂ = 128 in both fields (encode_k128 / gf256_encode_k128: symbols
//    through SymbolEncoder::next_symbol). The JSON records the active
//    GF(2) and GF(256) kernels and CPU features; a guard run whose
//    active kernels differ from the baseline's skips (exit 0) rather
//    than compare across unlike machines, and a full guard run fails if
//    any committed case is no longer measured by the harness.
//  - --cases=REGEX (POSIX extended) restricts the harness (json and
//    guard modes) to case names matching the regex; a filtered --json
//    run keeps the previous recordings of the cases it skipped.
//  - --symbol-bytes=N changes the harness's default symbol size (160).
#include <benchmark/benchmark.h>
#include <regex.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json_baseline.h"
#include "common/check.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/gf2_kernels.h"
#include "fountain/gf256_kernels.h"
#include "fountain/random_linear.h"

namespace {

using namespace fmtcp;
using namespace fmtcp::fountain;
using namespace fmtcp::benchjson;

// --------------------------------------------------------------------------
// google-benchmark micros (default mode)
// --------------------------------------------------------------------------

void BM_EncodeSymbol(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto symbol_bytes = static_cast<std::size_t>(state.range(1));
  SymbolEncoder encoder(CodingField::kGf2, 1,
                        make_deterministic_block(1, k, symbol_bytes), Rng(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.next_symbol());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbol_bytes));
}
BENCHMARK(BM_EncodeSymbol)
    ->Args({16, 160})
    ->Args({64, 160})
    ->Args({128, 160})
    ->Args({64, 1024});

void BM_DecodeBlock(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto symbol_bytes = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    SymbolEncoder encoder(CodingField::kGf2, 1,
                          make_deterministic_block(1, k, symbol_bytes),
                          rng.fork());
    std::vector<net::EncodedSymbol> symbols;
    for (std::uint32_t i = 0; i < k + 8; ++i) {
      symbols.push_back(encoder.next_symbol());
    }
    state.ResumeTiming();

    BlockDecoder decoder(k, symbol_bytes);
    for (const auto& symbol : symbols) {
      if (decoder.complete()) break;
      decoder.add_symbol(symbol);
    }
    // ~2^-8 of iterations the k+8 symbols are rank-deficient; skip those.
    if (decoder.complete()) benchmark::DoNotOptimize(decoder.decode());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k) *
                          static_cast<std::int64_t>(symbol_bytes));
}
BENCHMARK(BM_DecodeBlock)
    ->Args({16, 160})
    ->Args({64, 160})
    ->Args({128, 160})
    ->Args({256, 160})
    ->Args({512, 160});

void BM_CoefficientsFromSeed(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  BitVector scratch;
  for (auto _ : state) {
    coefficients_from_seed_into(seed++, k, scratch);
    benchmark::DoNotOptimize(scratch.word_data());
  }
}
BENCHMARK(BM_CoefficientsFromSeed)->Arg(64)->Arg(256);

void BM_Gf256EncodeSymbol(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto symbol_bytes = static_cast<std::size_t>(state.range(1));
  SymbolEncoder encoder(CodingField::kGf256, 1,
                        make_deterministic_block(1, k, symbol_bytes), Rng(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.next_symbol());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbol_bytes));
}
BENCHMARK(BM_Gf256EncodeSymbol)
    ->Args({16, 160})
    ->Args({64, 160})
    ->Args({128, 160})
    ->Args({64, 1024});

void BM_Gf256DecodeBlock(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto symbol_bytes = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    SymbolEncoder encoder(CodingField::kGf256, 1,
                          make_deterministic_block(1, k, symbol_bytes),
                          rng.fork());
    std::vector<net::EncodedSymbol> symbols;
    for (std::uint32_t i = 0; i < k + 4; ++i) {
      symbols.push_back(encoder.next_symbol());
    }
    state.ResumeTiming();

    Gf256RlcDecoder decoder(k, symbol_bytes);
    for (const auto& symbol : symbols) {
      if (decoder.complete()) break;
      decoder.add_symbol(symbol);
    }
    // ~256^-4 of iterations the k+4 symbols are rank-deficient; skip.
    if (decoder.complete()) benchmark::DoNotOptimize(decoder.decode());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k) *
                          static_cast<std::int64_t>(symbol_bytes));
}
BENCHMARK(BM_Gf256DecodeBlock)
    ->Args({16, 160})
    ->Args({64, 160})
    ->Args({128, 160});

void BM_Gf256MulRegion(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  std::vector<std::uint8_t> dst(size);
  std::vector<std::uint8_t> src(size);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  const Gf256KernelOps& ops = gf256_kernel();
  std::uint8_t c = 2;  // Stays off the c==0/1 fast paths.
  for (auto _ : state) {
    ops.mul_region(dst.data(), src.data(), c, size);
    benchmark::DoNotOptimize(dst.data());
    c = c == 255 ? 2 : static_cast<std::uint8_t>(c + 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_Gf256MulRegion)->Arg(160)->Arg(1400)->Arg(65536);

// --------------------------------------------------------------------------
// Decode-throughput harness (--json / --guard modes)
// --------------------------------------------------------------------------

std::size_t g_symbol_bytes = 160;  ///< --symbol-bytes=N overrides.

/// The --cases=REGEX filter. POSIX <regex.h> rather than std::regex:
/// GCC 12's <regex> fails -Werror=maybe-uninitialized in sanitizer
/// builds.
struct CasesFilter {
  CasesFilter() = default;
  CasesFilter(const CasesFilter&) = delete;
  CasesFilter& operator=(const CasesFilter&) = delete;
  ~CasesFilter() {
    if (active) regfree(&regex);
  }

  regex_t regex{};
  bool active = false;
};
CasesFilter g_cases_filter;

/// True when `name` should run under the active --cases filter.
bool case_enabled(const std::string& name) {
  return !g_cases_filter.active ||
         regexec(&g_cases_filter.regex, name.c_str(), 0, nullptr, 0) == 0;
}
constexpr std::size_t kMtuSymbolBytes = 1400;
constexpr std::uint32_t kKs[] = {16, 32, 64, 128};
constexpr std::uint32_t kLargeKs[] = {256, 512};  ///< New decoder only.
constexpr int kStreamsPerCase = 16;
constexpr double kMinSeconds = 0.25;

/// The pre-overhaul decoder, faithfully reproducing the seed
/// implementation's cost profile: a heap-backed std::vector<uint64_t>
/// bit vector allocated per coefficient expansion and per row, a full
/// EncodedSymbol payload copy on every arrival (the seed's const&
/// overload did `net::EncodedSymbol copy = symbol`), payload bytes
/// XORed eagerly on every elimination step, and the original scalar
/// word-at-a-time kernel. This is the "before" of every before/after
/// number in BENCH_codec.json.
class EagerReferenceDecoder {
 public:
  EagerReferenceDecoder(std::uint32_t symbols, std::size_t symbol_bytes)
      : symbols_(symbols), symbol_bytes_(symbol_bytes),
        pivot_rows_(symbols) {}

  bool add_symbol(const net::EncodedSymbol& symbol) {
    // Seed: full copy first (into plain heap storage).
    std::vector<std::uint8_t> data(symbol.data.begin(), symbol.data.end());
    RefBitVector coeffs(symbols_);
    if (symbol.is_systematic()) {
      coeffs.set(symbol.systematic_index);
    } else {
      coeffs = ref_coefficients_from_seed(symbol.coeff_seed, symbols_);
    }
    if (rank_ == symbols_) return false;
    Row row{std::move(coeffs), std::move(data)};
    std::size_t pivot = row.coeffs.lowest_set_bit();
    while (pivot < symbols_ && pivot_rows_[pivot].has_value()) {
      row.coeffs.xor_with(pivot_rows_[pivot]->coeffs);
      scalar_xor(row.data, pivot_rows_[pivot]->data);
      pivot = row.coeffs.lowest_set_bit();
    }
    if (pivot >= symbols_) return false;
    pivot_rows_[pivot] = std::move(row);
    ++rank_;
    return true;
  }

  bool complete() const { return rank_ == symbols_; }

  BlockData decode() {
    for (std::size_t p = symbols_; p-- > 0;) {
      for (std::size_t q = 0; q < p; ++q) {
        Row& upper = *pivot_rows_[q];
        if (upper.coeffs.get(p)) {
          upper.coeffs.xor_with(pivot_rows_[p]->coeffs);
          scalar_xor(upper.data, pivot_rows_[p]->data);
        }
      }
    }
    BlockData out(symbols_, symbol_bytes_);
    for (std::uint32_t i = 0; i < symbols_; ++i) {
      const auto& data = pivot_rows_[i]->data;
      std::memcpy(out.symbol(i), data.data(), data.size());
    }
    return out;
  }

 private:
  /// The seed's BitVector: heap storage, allocated per construction.
  struct RefBitVector {
    explicit RefBitVector(std::size_t bit_count)
        : bits(bit_count), words((bit_count + 63) / 64, 0) {}
    void set(std::size_t i) { words[i / 64] |= 1ULL << (i % 64); }
    bool get(std::size_t i) const {
      return (words[i / 64] >> (i % 64)) & 1ULL;
    }
    bool any() const {
      for (std::uint64_t w : words) {
        if (w != 0) return true;
      }
      return false;
    }
    void xor_with(const RefBitVector& other) {
      for (std::size_t w = 0; w < words.size(); ++w) {
        words[w] ^= other.words[w];
      }
    }
    std::size_t lowest_set_bit() const {
      for (std::size_t w = 0; w < words.size(); ++w) {
        if (words[w] != 0) {
          return w * 64 +
                 static_cast<std::size_t>(std::countr_zero(words[w]));
        }
      }
      return bits;
    }
    std::size_t bits;
    std::vector<std::uint64_t> words;
  };

  struct Row {
    RefBitVector coeffs;
    std::vector<std::uint8_t> data;
  };

  /// Same Rng stream as coefficients_from_seed, same per-call heap
  /// allocation as the seed's implementation.
  static RefBitVector ref_coefficients_from_seed(std::uint64_t seed,
                                                 std::uint32_t k) {
    Rng rng(seed);
    RefBitVector v = ref_random(k, rng);
    while (!v.any()) v = ref_random(k, rng);
    return v;
  }

  static RefBitVector ref_random(std::uint32_t k, Rng& rng) {
    RefBitVector v(k);
    for (auto& word : v.words) word = rng.next_u64();
    const std::size_t tail = k % 64;
    if (tail != 0) v.words.back() &= (~0ULL >> (64 - tail));
    return v;
  }

  static void scalar_xor(std::vector<std::uint8_t>& dst,
                         const std::vector<std::uint8_t>& src) {
    std::size_t i = 0;
    for (; i + 8 <= dst.size(); i += 8) {
      std::uint64_t d;
      std::uint64_t s;
      __builtin_memcpy(&d, dst.data() + i, 8);
      __builtin_memcpy(&s, src.data() + i, 8);
      d ^= s;
      __builtin_memcpy(dst.data() + i, &d, 8);
    }
    for (; i < dst.size(); ++i) dst[i] ^= src[i];
  }

  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  std::uint32_t rank_ = 0;
  std::vector<std::optional<Row>> pivot_rows_;
};

/// A symbol stream guaranteed to reach full rank when fed in order.
/// Dense: non-systematic random linear symbols. Systematic-heavy: a
/// systematic encoder's output thinned by 12% i.i.d. loss (so most
/// symbols are plain source symbols plus a few coded repairs).
std::vector<net::EncodedSymbol> make_stream(CodingField field,
                                            std::uint32_t k,
                                            std::size_t symbol_bytes,
                                            bool dense, std::uint64_t seed) {
  Rng loss_rng(seed * 977 + 11);
  SymbolEncoder encoder(field, seed,
                        make_deterministic_block(seed, k, symbol_bytes),
                        Rng(seed * 31 + 7), /*systematic=*/!dense);
  std::vector<net::EncodedSymbol> stream;
  SymbolDecoder probe(field, k, symbol_bytes);
  while (!probe.complete()) {
    net::EncodedSymbol s = encoder.next_symbol();
    if (!dense && loss_rng.bernoulli(0.12)) continue;  // Lost in transit.
    probe.add_symbol(s);
    stream.push_back(std::move(s));
  }
  return stream;
}

std::vector<std::vector<net::EncodedSymbol>> make_streams(
    CodingField field, std::uint32_t k, std::size_t symbol_bytes,
    bool dense) {
  std::vector<std::vector<net::EncodedSymbol>> streams;
  for (int s = 0; s < kStreamsPerCase; ++s) {
    streams.push_back(make_stream(field, k, symbol_bytes, dense,
                                  static_cast<std::uint64_t>(s) + 1));
  }
  return streams;
}

struct CaseResult {
  std::string name;
  double mbytes_per_sec = 0.0;
  double symbols_per_sec = 0.0;
};

/// Shared payload recycler, like the simulator's per-run pool: decoders
/// release decoded blocks' symbol buffers here and the next block's
/// copies re-acquire them.
BufferPool& bench_pool() {
  static BufferPool p;
  return p;
}

/// Decodes whole blocks; with `decode` false, stops each block at full
/// rank (the online add_symbol phase alone).
template <typename Decoder>
CaseResult run_case(const std::string& name, std::uint32_t k,
                    std::size_t symbol_bytes,
                    const std::vector<std::vector<net::EncodedSymbol>>&
                        streams,
                    bool decode = true) {
  // Warm-up + timed loop: decode whole blocks round-robin over the
  // pre-generated streams until the clock budget is spent.
  std::uint64_t blocks = 0;
  std::uint64_t symbols_fed = 0;
  std::size_t next = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    const auto& stream = streams[next];
    next = (next + 1) % streams.size();
    Decoder decoder(k, symbol_bytes);
    for (const auto& symbol : stream) {
      decoder.add_symbol(symbol);
      ++symbols_fed;
    }
    FMTCP_CHECK(decoder.complete());
    if (decode) benchmark::DoNotOptimize(decoder.decode());
    ++blocks;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < kMinSeconds);

  CaseResult result;
  result.name = name;
  result.mbytes_per_sec = static_cast<double>(blocks) * k * symbol_bytes /
                          elapsed / 1e6;
  result.symbols_per_sec = static_cast<double>(symbols_fed) / elapsed;
  return result;
}

/// Adapters giving both decoders the same (k, symbol_bytes) constructor
/// and decode() shape for run_case.
struct LazyAdapter {
  LazyAdapter(std::uint32_t k, std::size_t bytes)
      : decoder(k, bytes, &bench_pool()) {}
  void add_symbol(const net::EncodedSymbol& s) {
    if (!decoder.complete()) decoder.add_symbol(s);
  }
  bool complete() const { return decoder.complete(); }
  const BlockData& decode() { return decoder.decode(scratch()); }
  /// Shared across blocks, like the receiver's per-connection scratch.
  static DecodeScratch& scratch() {
    static DecodeScratch s;
    return s;
  }
  BlockDecoder decoder;
};

struct EagerAdapter {
  EagerAdapter(std::uint32_t k, std::size_t bytes) : decoder(k, bytes) {}
  void add_symbol(const net::EncodedSymbol& s) {
    if (!decoder.complete()) decoder.add_symbol(s);
  }
  bool complete() const { return decoder.complete(); }
  BlockData decode() { return decoder.decode(); }
  EagerReferenceDecoder decoder;
};

struct Gf256Adapter {
  Gf256Adapter(std::uint32_t k, std::size_t bytes)
      : decoder(k, bytes, &bench_pool()) {}
  void add_symbol(const net::EncodedSymbol& s) {
    if (!decoder.complete()) decoder.add_symbol(s);
  }
  bool complete() const { return decoder.complete(); }
  const BlockData& decode() { return decoder.decode(); }
  Gf256RlcDecoder decoder;
};

/// Raw gf256 mul_region throughput (dst ^= c·src over a 64 KiB region):
/// the number the split-nibble SIMD kernels exist to move. Coefficients
/// cycle through [2, 255] so the c==0/1 fast paths never fire.
CaseResult run_mul_region_case(const std::string& name,
                               const Gf256KernelOps& ops) {
  constexpr std::size_t kBufBytes = 64 * 1024;
  Rng rng(12345);
  std::vector<std::uint8_t> dst(kBufBytes);
  std::vector<std::uint8_t> src(kBufBytes);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::uint8_t c = 2;
  std::uint64_t passes = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    ops.mul_region(dst.data(), src.data(), c, kBufBytes);
    benchmark::DoNotOptimize(dst.data());
    c = c == 255 ? 2 : static_cast<std::uint8_t>(c + 1);
    ++passes;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < kMinSeconds);
  CaseResult result;
  result.name = name;
  result.mbytes_per_sec =
      static_cast<double>(passes) * kBufBytes / elapsed / 1e6;
  result.symbols_per_sec = static_cast<double>(passes) / elapsed;
  return result;
}

/// Encode throughput at one k̂: symbols through SymbolEncoder::next_symbol,
/// each payload handed back to the pool as the simulator's receiver does,
/// so the loop measures coefficient expansion and the encode kernels.
CaseResult run_encode_case(const std::string& name, CodingField field,
                           std::uint32_t k, std::size_t symbol_bytes) {
  SymbolEncoder encoder(field, 1, make_deterministic_block(1, k, symbol_bytes),
                        Rng(7), /*systematic=*/false, &bench_pool());
  constexpr int kBatch = 256;
  std::uint64_t symbols = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < kBatch; ++i) {
      net::EncodedSymbol symbol = encoder.next_symbol();
      benchmark::DoNotOptimize(symbol.data.data());
      bench_pool().release(std::move(symbol.data));
    }
    symbols += kBatch;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < kMinSeconds);
  CaseResult result;
  result.name = name;
  result.mbytes_per_sec =
      static_cast<double>(symbols) * symbol_bytes / elapsed / 1e6;
  result.symbols_per_sec = static_cast<double>(symbols) / elapsed;
  return result;
}

/// Best-of-N repetitions of `fn`, so a background burst on this
/// (single-core) box degrades one repetition, not the result.
template <typename Fn>
CaseResult best_of(int reps, Fn&& fn) {
  CaseResult best;
  for (int rep = 0; rep < reps; ++rep) {
    const CaseResult r = fn();
    if (r.mbytes_per_sec > best.mbytes_per_sec) best = r;
    best.name = r.name;
  }
  return best;
}

std::vector<CaseResult> run_harness() {
  std::vector<CaseResult> results;
  for (std::uint32_t k : kKs) {
    for (bool dense : {false, true}) {
      const std::string suffix =
          std::string(dense ? "dense" : "systematic") + "_k" +
          std::to_string(k);
      const bool want_eager = case_enabled("eager_" + suffix);
      const bool want_lazy = case_enabled("lazy_" + suffix);
      if (!want_eager && !want_lazy) continue;
      const auto streams =
          make_streams(CodingField::kGf2, k, g_symbol_bytes, dense);
      // Alternate decoders across repetitions (see best_of).
      CaseResult eager;
      CaseResult lazy;
      for (int rep = 0; rep < 5; ++rep) {
        if (want_eager) {
          const CaseResult e = run_case<EagerAdapter>(
              "eager_" + suffix, k, g_symbol_bytes, streams);
          if (e.mbytes_per_sec > eager.mbytes_per_sec) eager = e;
        }
        if (want_lazy) {
          const CaseResult l = run_case<LazyAdapter>(
              "lazy_" + suffix, k, g_symbol_bytes, streams);
          if (l.mbytes_per_sec > lazy.mbytes_per_sec) lazy = l;
        }
      }
      if (want_eager && want_lazy) {
        std::printf("  %-20s eager %8.1f MB/s   lazy %8.1f MB/s   (%.2fx)\n",
                    suffix.c_str(), eager.mbytes_per_sec,
                    lazy.mbytes_per_sec,
                    lazy.mbytes_per_sec / eager.mbytes_per_sec);
      } else {
        const CaseResult& only = want_eager ? eager : lazy;
        std::printf("  %-26s %8.1f MB/s\n", only.name.c_str(),
                    only.mbytes_per_sec);
      }
      if (want_eager) results.push_back(eager);
      if (want_lazy) results.push_back(lazy);
    }
  }

  // Large-k̂ dense cases, new decoder only (the eager reference is
  // quadratic in payload work and would dominate harness runtime). A
  // 0.25 s repetition holds few k̂ = 512 blocks, and the best of five
  // read 60-101 MB/s over nine runs of unchanged code (4-vCPU Xeon VM),
  // so that case takes the best of fifteen.
  for (std::uint32_t k : kLargeKs) {
    const std::string name = "lazy_dense_k" + std::to_string(k);
    if (!case_enabled(name)) continue;
    const auto streams =
        make_streams(CodingField::kGf2, k, g_symbol_bytes, /*dense=*/true);
    const CaseResult r = best_of(k >= 512 ? 15 : 5, [&] {
      return run_case<LazyAdapter>(name, k, g_symbol_bytes, streams);
    });
    std::printf("  %-20s                     lazy %8.1f MB/s\n",
                name.c_str() + 5, r.mbytes_per_sec);
    results.push_back(r);
  }

  // MTU-sized symbols: payload kernels dominate at 1400 bytes/symbol.
  if (case_enabled("lazy_dense_k128_sb1400")) {
    const std::uint32_t k = 128;
    const auto streams =
        make_streams(CodingField::kGf2, k, kMtuSymbolBytes, /*dense=*/true);
    const CaseResult r = best_of(5, [&] {
      return run_case<LazyAdapter>("lazy_dense_k128_sb1400", k,
                                   kMtuSymbolBytes, streams);
    });
    std::printf("  %-20s                     lazy %8.1f MB/s\n",
                "dense_k128_sb1400", r.mbytes_per_sec);
    results.push_back(r);
  }

  // GF(256) RLC ablation codec: decode throughput over the same stream
  // shapes, byte coefficients through the multiply kernels.
  for (std::uint32_t k : kKs) {
    for (bool dense : {false, true}) {
      const std::string name = std::string("gf256_") +
                               (dense ? "dense" : "systematic") + "_k" +
                               std::to_string(k);
      if (!case_enabled(name)) continue;
      const auto streams =
          make_streams(CodingField::kGf256, k, g_symbol_bytes, dense);
      const CaseResult r = best_of(5, [&] {
        return run_case<Gf256Adapter>(name, k, g_symbol_bytes, streams);
      });
      std::printf("  %-26s %8.1f MB/s\n", name.c_str(), r.mbytes_per_sec);
      results.push_back(r);
    }
  }

  // The GF(256) online phase alone at the default cell's k̂ = 128: dense
  // symbols through add_symbol until full rank, no decode(). MB/s counts
  // the source bytes of the blocks brought to full rank.
  if (case_enabled("gf256_add_symbol_k128")) {
    const std::uint32_t k = 128;
    const auto streams =
        make_streams(CodingField::kGf256, k, g_symbol_bytes, /*dense=*/true);
    const CaseResult r = best_of(5, [&] {
      return run_case<Gf256Adapter>("gf256_add_symbol_k128", k,
                                    g_symbol_bytes, streams,
                                    /*decode=*/false);
    });
    std::printf("  %-26s %8.1f MB/s   %10.0f symbols/s\n",
                "gf256_add_symbol_k128", r.mbytes_per_sec,
                r.symbols_per_sec);
    results.push_back(r);
  }

  // Encode throughput at the default cell's k̂ = 128, both fields.
  for (const CodingField field : {CodingField::kGf2, CodingField::kGf256}) {
    const std::string name = field == CodingField::kGf2
                                 ? "encode_k128"
                                 : "gf256_encode_k128";
    if (!case_enabled(name)) continue;
    const CaseResult r = best_of(5, [&] {
      return run_encode_case(name, field, 128, g_symbol_bytes);
    });
    std::printf("  %-26s %8.1f MB/s   %10.0f symbols/s\n", name.c_str(),
                r.mbytes_per_sec, r.symbols_per_sec);
    results.push_back(r);
  }

  // Raw gf256 multiply-kernel throughput, dispatched vs forced-scalar:
  // the split-nibble SIMD speedup on record (>= 4x expected wherever
  // PSHUFB or vtbl is available).
  {
    const bool want_simd = case_enabled("gf256_mul_region");
    const bool want_scalar = case_enabled("gf256_mul_region_scalar");
    CaseResult simd;
    CaseResult scalar;
    if (want_simd) {
      simd = best_of(5, [&] {
        return run_mul_region_case("gf256_mul_region", gf256_kernel());
      });
      results.push_back(simd);
    }
    if (want_scalar) {
      scalar = best_of(5, [&] {
        return run_mul_region_case("gf256_mul_region_scalar",
                                   gf256_scalar_kernel());
      });
      results.push_back(scalar);
    }
    if (want_simd && want_scalar) {
      std::printf(
          "  gf256_mul_region (%s) %8.1f MB/s   scalar %8.1f MB/s   "
          "(%.2fx)\n",
          gf256_kernel().name, simd.mbytes_per_sec, scalar.mbytes_per_sec,
          simd.mbytes_per_sec / scalar.mbytes_per_sec);
    }
  }

  // Deterministic JSON: case keys sorted by name.
  std::sort(results.begin(), results.end(),
            [](const CaseResult& a, const CaseResult& b) {
              return a.name < b.name;
            });
  return results;
}

void write_json(const std::string& path, std::vector<CaseResult> results,
                bool merge_min) {
  if (merge_min) {
    // Fold the previous recording in, keeping the elementwise minimum:
    // repeated passes (separate processes, so independent heap layouts)
    // converge on a floor a guard run on an idle box can always meet.
    const std::string prev = read_file(path);
    for (CaseResult& r : results) {
      const std::optional<double> mb =
          baseline_field(prev, r.name, "mbytes_per_sec");
      const std::optional<double> sym =
          baseline_field(prev, r.name, "symbols_per_sec");
      if (mb.has_value() && *mb < r.mbytes_per_sec) r.mbytes_per_sec = *mb;
      if (sym.has_value() && *sym < r.symbols_per_sec) {
        r.symbols_per_sec = *sym;
      }
    }
  }
  if (g_cases_filter.active) {
    // A filtered re-recording keeps the previous numbers of every case
    // it skipped, so --cases cannot silently shrink the baseline.
    const std::string prev = read_file(path);
    for (const std::string& name : baseline_case_names(prev)) {
      const bool measured =
          std::any_of(results.begin(), results.end(),
                      [&](const CaseResult& r) { return r.name == name; });
      if (measured) continue;
      const std::optional<double> mb =
          baseline_field(prev, name, "mbytes_per_sec");
      const std::optional<double> sym =
          baseline_field(prev, name, "symbols_per_sec");
      if (mb.has_value() && sym.has_value()) {
        results.push_back({name, *mb, *sym});
      }
    }
    std::sort(results.begin(), results.end(),
              [](const CaseResult& a, const CaseResult& b) {
                return a.name < b.name;
              });
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::perror(("cannot open " + path).c_str());
    std::exit(1);
  }
  std::fprintf(file,
               "{\n"
               "  \"symbol_bytes\": %zu,\n"
               "  \"kernel\": \"%s\",\n"
               "  \"gf256_kernel\": \"%s\",\n"
               "  \"cpu_features\": \"%s\",\n"
               "  \"cases\": {\n",
               g_symbol_bytes, gf2_kernel().name, gf256_kernel().name,
               cpu_features_string().c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(file,
                 "    \"%s\": {\"mbytes_per_sec\": %.1f, "
                 "\"symbols_per_sec\": %.0f}%s\n",
                 r.name.c_str(), r.mbytes_per_sec, r.symbols_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(file, "  }\n}\n");
  FMTCP_CHECK(std::fclose(file) == 0);
  std::printf("json: -> %s\n", path.c_str());
}

int run_guard(const std::string& baseline_path, double max_regression) {
  const std::string json = read_file(baseline_path);
  if (json.empty()) {
    std::fprintf(stderr, "guard: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }

  // Like-with-like: numbers recorded under one kernel are not comparable
  // to a run dispatched to another (different machine, FMTCP_FORCE_KERNEL,
  // or an -DFMTCP_SIMD=OFF build). Skip cleanly instead of flagging a
  // phantom regression.
  const std::optional<std::string> base_kernel =
      baseline_string(json, "kernel");
  if (base_kernel.has_value() && *base_kernel != gf2_kernel().name) {
    std::printf(
        "guard: baseline kernel \"%s\" != active kernel \"%s\"; "
        "skipping (not comparable)\n",
        base_kernel->c_str(), gf2_kernel().name);
    return 0;
  }
  const std::optional<std::string> base_gf256_kernel =
      baseline_string(json, "gf256_kernel");
  if (base_gf256_kernel.has_value() &&
      *base_gf256_kernel != gf256_kernel().name) {
    std::printf(
        "guard: baseline gf256_kernel \"%s\" != active \"%s\"; "
        "skipping (not comparable)\n",
        base_gf256_kernel->c_str(), gf256_kernel().name);
    return 0;
  }

  const std::vector<CaseResult> results = run_harness();
  int failures = 0;
  if (!g_cases_filter.active) {
    // Completeness: every committed case must still be measured by a
    // full harness run, or a dropped case would silently leave the gate.
    for (const std::string& name : baseline_case_names(json)) {
      const bool measured =
          std::any_of(results.begin(), results.end(),
                      [&](const CaseResult& r) { return r.name == name; });
      if (!measured) {
        std::printf("guard: %-24s in baseline but NOT MEASURED\n",
                    name.c_str());
        ++failures;
      }
    }
  }
  for (const CaseResult& r : results) {
    const std::optional<double> base =
        baseline_field(json, r.name, "mbytes_per_sec");
    if (!base.has_value()) {
      std::printf("guard: %-24s no baseline, skipped\n", r.name.c_str());
      continue;
    }
    const double floor = *base * (1.0 - max_regression);
    if (r.mbytes_per_sec < floor) {
      std::printf("guard: %-24s REGRESSED %.1f MB/s < %.1f (baseline %.1f)\n",
                  r.name.c_str(), r.mbytes_per_sec, floor, *base);
      ++failures;
    } else {
      std::printf("guard: %-24s ok %.1f MB/s (baseline %.1f)\n",
                  r.name.c_str(), r.mbytes_per_sec, *base);
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "guard: %d case(s) regressed > %.0f%%\n", failures,
                 max_regression * 100.0);
    return 1;
  }
  std::printf("guard: all cases within %.0f%% of baseline\n",
              max_regression * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> symbol_bytes =
      flag_value(argc, argv, "symbol-bytes");
  if (symbol_bytes.has_value()) {
    g_symbol_bytes = static_cast<std::size_t>(std::stoul(*symbol_bytes));
    FMTCP_CHECK(g_symbol_bytes > 0);
  }
  const std::optional<std::string> cases = flag_value(argc, argv, "cases");
  if (cases.has_value()) {
    const int error = regcomp(&g_cases_filter.regex, cases->c_str(),
                              REG_EXTENDED | REG_NOSUB);
    if (error != 0) {
      char message[256];
      regerror(error, &g_cases_filter.regex, message, sizeof message);
      std::fprintf(stderr, "bad --cases regex '%s': %s\n", cases->c_str(),
                   message);
      return 2;
    }
    g_cases_filter.active = true;
  }
  const std::optional<std::string> json_path =
      flag_value(argc, argv, "json");
  const std::optional<std::string> guard_path =
      flag_value(argc, argv, "guard");
  if (guard_path.has_value()) {
    const std::optional<std::string> tolerance =
        flag_value(argc, argv, "max-regression");
    const double max_regression =
        tolerance.has_value() ? std::stod(*tolerance) : 0.20;
    return run_guard(*guard_path, max_regression);
  }
  if (json_path.has_value()) {
    bool merge_min = false;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--merge-min") == 0) merge_min = true;
    }
    std::printf("codec throughput (%zu-byte symbols, %s kernel, cpu %s):\n",
                g_symbol_bytes, fmtcp::fountain::gf2_kernel().name,
                fmtcp::cpu_features_string().c_str());
    write_json(*json_path, run_harness(), merge_min);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
