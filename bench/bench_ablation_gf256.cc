// Ablation A7 — coefficient field: GF(2) vs GF(256) random linear
// coding (fig4-style loss sweep at the codec level, plus a
// protocol-level run with params.coding_field flipped).
//
// The tradeoff on record: byte coefficients make a dependent reception
// ~128× less likely per extra symbol (reception overhead → 0), but every
// elimination/composition step runs through GF(256) multiply kernels
// instead of pure XOR (decode cost up). The codec-level numbers are
// deterministic counts (symbols, redundancy, kernel bytes), so the
// committed BENCH_gf256_ablation.json is machine-independent.
//
//   bench_ablation_gf256 [--json=FILE] [--trials=N] [--duration=S]
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "fountain/codec.h"
#include "harness/printer.h"
#include "harness/runner.h"
#include "harness/table1.h"

using namespace fmtcp;
using namespace fmtcp::fountain;
using namespace fmtcp::harness;

namespace {

constexpr std::uint32_t kKs[] = {16, 64, 128};
constexpr int kLossPcts[] = {0, 5, 10, 20, 30};
constexpr std::size_t kSymbolBytes = 160;

/// Per-(field, k, loss) deterministic averages over the trial seeds.
struct SweepPoint {
  std::string name;
  double received = 0.0;        ///< Mean symbols accepted until full rank.
  double redundant = 0.0;       ///< Mean linearly dependent receptions.
  double overhead_pct = 0.0;    ///< 100·(received/k − 1).
  double payload_kernel_bytes = 0.0;  ///< Mean decode()-phase kernel bytes.
  double coeff_cost_bytes = 0.0;      ///< Mean elimination coefficient bytes.
};

/// One decode-to-completion trial; adds its received and redundant
/// symbol counts and kernel costs to `acc`.
void run_trial(CodingField field, std::uint32_t k, double loss,
               std::uint64_t seed, SweepPoint& acc) {
  Rng channel(seed * 7919 + 13);
  const BlockData block = make_deterministic_block(seed, k, kSymbolBytes);
  SymbolEncoder encoder(field, seed, block, Rng(seed * 31 + 7));
  SymbolDecoder decoder(field, k, kSymbolBytes);
  while (!decoder.complete()) {
    net::EncodedSymbol s = encoder.next_symbol();
    if (channel.bernoulli(loss)) continue;
    decoder.add_symbol(std::move(s));
  }
  FMTCP_CHECK(decoder.decode().bytes() == block.bytes());
  acc.received += static_cast<double>(decoder.received_count());
  acc.redundant += static_cast<double>(decoder.redundant_count());
  acc.payload_kernel_bytes += static_cast<double>(decoder.payload_bytes());
  // GF(2) eliminates coefficients a 64-bit word at a time.
  acc.coeff_cost_bytes += static_cast<double>(decoder.coeff_work()) *
                          (field == CodingField::kGf2 ? 8.0 : 1.0);
}

SweepPoint run_point(CodingField field, std::uint32_t k, int loss_pct,
                     int trials) {
  SweepPoint point;
  point.name = std::string(coding_field_name(field)) + "_k" +
               std::to_string(k) + "_p" + std::to_string(loss_pct);
  for (int t = 0; t < trials; ++t) {
    run_trial(field, k, loss_pct / 100.0, static_cast<std::uint64_t>(t) + 1,
              point);
  }
  point.received /= trials;
  point.redundant /= trials;
  point.payload_kernel_bytes /= trials;
  point.coeff_cost_bytes /= trials;
  point.overhead_pct = 100.0 * (point.received / k - 1.0);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int trials = flags.get_int("trials", 50, "decode trials per point");
  const double duration_s =
      flags.get_double("duration", 30.0, "protocol-level simulated seconds");
  const std::string json_path = flags.get_string(
      "json", "", "write the sweep as JSON (BENCH_gf256_ablation.json)");
  if (flags.get_bool("help", false, "show this help")) {
    std::printf("usage: %s [flags]\n%s", flags.program().c_str(),
                flags.usage().c_str());
    return 0;
  }
  for (const std::string& flag : flags.unknown_flags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", flag.c_str());
    return 2;
  }

  print_header(
      "Ablation A7: coefficient field GF(2) vs GF(256), erasure sweep");

  std::vector<SweepPoint> points;
  std::vector<std::vector<std::string>> rows;
  for (std::uint32_t k : kKs) {
    for (int loss_pct : kLossPcts) {
      const SweepPoint gf2 =
          run_point(CodingField::kGf2, k, loss_pct, trials);
      const SweepPoint gf256 =
          run_point(CodingField::kGf256, k, loss_pct, trials);
      rows.push_back(
          {std::to_string(k), std::to_string(loss_pct),
           fmt(gf2.overhead_pct, 2), fmt(gf256.overhead_pct, 2),
           fmt(gf2.redundant, 2), fmt(gf256.redundant, 2),
           fmt(gf2.payload_kernel_bytes / 1e3, 1),
           fmt(gf256.payload_kernel_bytes / 1e3, 1)});
      points.push_back(gf2);
      points.push_back(gf256);
    }
  }
  print_table({"k", "loss(%)", "ovh gf2(%)", "ovh gf256(%)", "redun gf2",
               "redun gf256", "payload gf2(KB)", "payload gf256(KB)"},
              rows);
  std::printf(
      "\n(reception overhead = symbols accepted beyond k; GF(256) payload\n"
      " bytes run through multiply kernels, GF(2) through XOR kernels)\n");

  // Protocol-level: the same FMTCP cell (test case 3: 100 ms, 10% loss)
  // with only params.coding_field flipped.
  print_header("Protocol level: fmtcp with coding_field gf2 vs gf256");
  RunResult proto[2];
  const char* field_names[2] = {"gf2", "gf256"};
  for (int f = 0; f < 2; ++f) {
    Scenario scenario = table1_scenario(2);
    scenario.duration = from_seconds(duration_s);
    ProtocolOptions options = ProtocolOptions::defaults();
    options.fmtcp.coding_field =
        f == 0 ? CodingField::kGf2 : CodingField::kGf256;
    proto[f] = run_scenario(Protocol::kFmtcp, scenario, options);
    FMTCP_CHECK(proto[f].payload_ok);
  }
  std::vector<std::vector<std::string>> proto_rows;
  const std::uint32_t k_hat = ProtocolOptions::defaults().fmtcp.block_symbols;
  for (int f = 0; f < 2; ++f) {
    proto_rows.push_back(
        {field_names[f], fmt(proto[f].goodput_MBps, 4),
         fmt(proto[f].mean_delay_ms, 1), fmt(proto[f].jitter_ms, 1),
         fmt(proto[f].coding_overhead(k_hat) * 100, 2),
         std::to_string(proto[f].redundant_symbols)});
  }
  print_table({"field", "goodput(MB/s)", "delay(ms)", "jitter(ms)",
               "overhead(%)", "redundant"},
              proto_rows);

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::perror(("cannot open " + json_path).c_str());
      return 1;
    }
    std::fprintf(file,
                 "{\n"
                 "  \"symbol_bytes\": %zu,\n"
                 "  \"trials\": %d,\n"
                 "  \"cases\": {\n",
                 kSymbolBytes, trials);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(file,
                   "    \"%s\": {\"received\": %.2f, \"redundant\": %.2f, "
                   "\"overhead_pct\": %.3f, \"payload_kernel_bytes\": %.0f, "
                   "\"coeff_cost_bytes\": %.0f}%s\n",
                   p.name.c_str(), p.received, p.redundant, p.overhead_pct,
                   p.payload_kernel_bytes, p.coeff_cost_bytes,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(file, "  },\n  \"protocol\": {\n");
    for (int f = 0; f < 2; ++f) {
      std::fprintf(file,
                   "    \"%s\": {\"goodput_MBps\": %.4f, "
                   "\"mean_delay_ms\": %.1f, \"overhead_pct\": %.2f, "
                   "\"redundant_symbols\": %llu}%s\n",
                   field_names[f], proto[f].goodput_MBps,
                   proto[f].mean_delay_ms,
                   proto[f].coding_overhead(k_hat) * 100,
                   static_cast<unsigned long long>(
                       proto[f].redundant_symbols),
                   f == 0 ? "," : "");
    }
    std::fprintf(file, "  }\n}\n");
    FMTCP_CHECK(std::fclose(file) == 0);
    std::printf("json: -> %s\n", json_path.c_str());
  }
  return 0;
}
