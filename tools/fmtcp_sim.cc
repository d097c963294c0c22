// fmtcp_sim — command-line front end for the simulator.
//
// Runs one protocol over the two-disjoint-path topology with every knob
// exposed as a flag, printing the paper's metrics (and optionally the
// per-second goodput series). `--obs-dir=DIR` writes everything the run
// produced: DIR/metrics.json (protocol metrics plus span.* and trace.*
// profiles), DIR/timeline.jsonl (protocol and packet events) and
// DIR/spans.json (Chrome/Perfetto span trace); with --seeds > 1 only
// spans.json.
//
// Examples:
//   fmtcp_sim --protocol=fmtcp --loss2=0.15 --duration=60
//   fmtcp_sim --protocol=mptcp --loss2=0.10 --reinjection --sack
//   fmtcp_sim --protocol=fmtcp --surge=50:0.35,200:0.01 --series
//   fmtcp_sim --protocol=fmtcp --obs-dir=/tmp/run --duration=5
//   fmtcp_sim --protocol=fmtcp --profile --duration=10
#include <sys/stat.h>

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "fountain/coding_field.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "obs/observer.h"
#include "obs/trace/chrome_trace.h"
#include "obs/trace/span_metrics.h"
#include "obs/trace/tracer.h"

using namespace fmtcp;
using namespace fmtcp::harness;

namespace {

/// Upper bound on every time given in seconds, so it converts to the
/// nanosecond clock without overflow (about 31 years).
constexpr double kMaxSeconds = 1e9;

/// Exits 2 naming `flag` unless `ok`, so an out-of-range value is a
/// usage error rather than a CHECK abort deep in the run.
void require(bool ok, const char* flag, const char* range) {
  if (ok) return;
  std::fprintf(stderr, "--%s must be %s\n", flag, range);
  std::exit(2);
}

/// Parses "t1:rate1,t2:rate2,..." into a loss schedule (seconds:rate)
/// that starts at `initial_rate`; an entry at t=0 replaces that rate.
std::vector<net::TimeVaryingLoss::Step> parse_surge(
    const std::string& spec, double initial_rate) {
  std::vector<net::TimeVaryingLoss::Step> steps;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* colon = nullptr;
    const double t = std::strtod(item.c_str(), &colon);
    char* end = colon;
    const double rate = *colon == ':' ? std::strtod(colon + 1, &end) : 0.0;
    const bool in_range = t >= 0 && t <= kMaxSeconds;
    const SimTime start = in_range ? from_seconds(t) : 0;
    const bool ok = colon != item.c_str() && *colon == ':' &&
                    end != colon + 1 && *end == '\0' && in_range &&
                    (steps.empty() || start > steps.back().start) &&
                    rate >= 0.0 && rate <= 1.0;
    if (!ok) {
      std::fprintf(stderr,
                   "bad --surge entry '%s' (want t:rate, t >= 0 and "
                   "increasing, rate in [0,1])\n",
                   item.c_str());
      std::exit(2);
    }
    steps.push_back({start, rate});
  }
  if (steps.empty() || steps.front().start != 0) {
    steps.insert(steps.begin(), {0, initial_rate});
  }
  return steps;
}

/// Opens `dir/name` (creating `dir` if missing) before the run, so a bad
/// --obs-dir fails fast with exit 1 naming the path instead of after the
/// whole simulation.
std::FILE* open_output(const std::string& dir, const char* name) {
  const std::string path = dir + "/" + name;
  std::FILE* file = nullptr;
  if (mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) {
    file = std::fopen(path.c_str(), "w");
  }
  if (file == nullptr) {
    std::fprintf(stderr, "--obs-dir: cannot write '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  return file;
}

void write_and_close(const std::string& text, std::FILE* file) {
  FMTCP_CHECK(std::fwrite(text.data(), 1, text.size(), file) == text.size());
  FMTCP_CHECK(std::fclose(file) == 0);
}

/// Stops the span tracer and emits its outputs: spans.json (when
/// --obs-dir is set), the aggregate table (--profile), and — when a
/// metrics registry is being written — the span.* / trace.* metrics.
void finish_tracing(std::FILE* spans_file, const std::string& obs_dir,
                    bool profile, obs::MetricsRegistry* metrics) {
  const obs::trace::TraceReport report = obs::trace::stop();
  if (metrics != nullptr) obs::trace::merge_report(report, *metrics);
  if (spans_file != nullptr) {
    write_and_close(obs::trace::to_chrome_trace_json(report), spans_file);
    std::printf("span trace:      %zu records -> %s/spans.json\n",
                report.records.size(), obs_dir.c_str());
  }
  if (profile) {
    std::printf("\n%s", obs::trace::format_span_table(report).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const std::string protocol_name = flags.get_string(
      "protocol", "fmtcp", "fmtcp | mptcp | hmtp | fixedrate");

  Scenario scenario;
  scenario.path1.delay_ms =
      flags.get_double("delay1", 100.0, "path-1 one-way delay (ms)");
  scenario.path1.loss =
      flags.get_double("loss1", 0.0, "path-1 loss rate [0,1] (1 = dead path)");
  scenario.path2.delay_ms =
      flags.get_double("delay2", 100.0, "path-2 one-way delay (ms)");
  scenario.path2.loss =
      flags.get_double("loss2", 0.1, "path-2 loss rate [0,1] (1 = dead path)");
  const double bandwidth_mbps =
      flags.get_double("bandwidth_mbps", 5.0, "per-path rate (Mb/s)");
  scenario.bandwidth_Bps = bandwidth_mbps * 1e6 / 8.0;
  const std::int64_t queue_packets =
      flags.get_int("queue", 100, "drop-tail queue (packets, 0 = unlimited)");
  scenario.queue_packets = static_cast<std::size_t>(queue_packets);
  const double duration_s =
      flags.get_double("duration", 60.0, "simulated seconds");
  scenario.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 1, "RNG seed (reproducible runs)"));

  const std::string surge = flags.get_string(
      "surge", "", "path-2 loss schedule t:rate,... (rate in [0,1])");
  if (!surge.empty()) {
    scenario.path2_loss_schedule =
        parse_surge(surge, scenario.path2.loss);
  }

  ProtocolOptions options = ProtocolOptions::defaults();
  const std::int64_t block_symbols = flags.get_int(
      "block_symbols", options.fmtcp.block_symbols, "k-hat");
  options.fmtcp.block_symbols = static_cast<std::uint32_t>(block_symbols);
  options.fmtcp.delta_hat = flags.get_double(
      "delta", options.fmtcp.delta_hat, "max decode-failure prob");
  options.fmtcp.systematic =
      flags.get_bool("systematic", false, "systematic fountain code");
  const std::string coding_name = flags.get_string(
      "coding", "gf2", "coefficient field: gf2 | gf256");
  if (const auto field = fountain::parse_coding_field(coding_name.c_str())) {
    options.fmtcp.coding_field = *field;
  } else {
    std::fprintf(stderr, "unknown --coding '%s' (gf2|gf256)\n",
                 coding_name.c_str());
    return 2;
  }
  options.sack = flags.get_bool("sack", false, "enable SACK");
  options.delayed_acks =
      flags.get_bool("delayed_acks", false, "RFC1122 delayed ACKs");
  options.mptcp_reinjection =
      flags.get_bool("reinjection", false, "MPTCP loss reinjection");
  options.fmtcp_use_lia = options.mptcp_use_lia =
      flags.get_bool("lia", false, "couple subflows with LIA");
  if (flags.get_bool("cubic", false, "CUBIC instead of Reno")) {
    options.subflow.congestion = tcp::CongestionAlgo::kCubic;
  }
  const std::int64_t buffer_kb =
      flags.get_int("buffer_kb", 128, "MPTCP receive buffer (KB)");
  options.mptcp_receive_buffer = static_cast<std::size_t>(buffer_kb) * 1024;

  const std::int64_t seed_count =
      flags.get_int("seeds", 1, "replicate across N seeds (seed..seed+N-1)");
  const unsigned parallel_jobs = jobs_from_flags(flags);
  const bool print_series =
      flags.get_bool("series", false, "print per-second goodput");
  const std::string obs_dir = flags.get_string(
      "obs-dir", "",
      "write metrics.json, timeline.jsonl and spans.json into DIR");
  const bool profile = flags.get_bool(
      "profile", false, "print the span-profile aggregate table");

  if (flags.get_bool("help", false, "show this help")) {
    std::printf("usage: %s [flags]\n%s", flags.program().c_str(),
                flags.usage().c_str());
    return 0;
  }
  for (const std::string& flag : flags.unknown_flags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", flag.c_str());
    return 2;
  }
  const std::optional<Protocol> protocol = parse_protocol(protocol_name);
  if (!protocol) {
    std::fprintf(stderr,
                 "unknown --protocol '%s' (fmtcp|mptcp|hmtp|fixedrate)\n",
                 protocol_name.c_str());
    return 2;
  }
  require(scenario.path1.delay_ms >= 0 &&
              scenario.path1.delay_ms <= kMaxSeconds * 1e3,
          "delay1", "in [0, 1e12] ms");
  require(scenario.path2.delay_ms >= 0 &&
              scenario.path2.delay_ms <= kMaxSeconds * 1e3,
          "delay2", "in [0, 1e12] ms");
  require(scenario.path1.loss >= 0 && scenario.path1.loss <= 1, "loss1",
          "in [0,1]");
  require(scenario.path2.loss >= 0 && scenario.path2.loss <= 1, "loss2",
          "in [0,1]");
  // At 0.001 Mb/s a full packet serialises in about 10 s; much slower
  // rates overflow the clock.
  require(bandwidth_mbps >= 0.001, "bandwidth_mbps", ">= 0.001");
  require(queue_packets >= 0, "queue", ">= 0");
  require(duration_s > 0 && duration_s <= kMaxSeconds &&
              from_seconds(duration_s) > 0,
          "duration", "in (0, 1e9] s");
  scenario.duration = from_seconds(duration_s);
  require(block_symbols > 0 && block_symbols <= UINT32_MAX, "block_symbols",
          "in [1, 2^32)");
  require(options.fmtcp.delta_hat > 0 && options.fmtcp.delta_hat < 1,
          "delta", "in (0,1)");
  require(buffer_kb > 0 && buffer_kb <= (std::int64_t{1} << 30), "buffer_kb",
          "in [1, 2^30]");
  require(seed_count >= 1 && seed_count <= INT_MAX, "seeds",
          "in [1, 2147483647]");
  // The baselines' configs have no delayed-ACK or LIA field.
  const bool baseline =
      *protocol == Protocol::kHmtp || *protocol == Protocol::kFixedRate;
  require(!baseline || !options.delayed_acks, "delayed_acks",
          "off for hmtp and fixedrate");
  require(!baseline || !options.fmtcp_use_lia, "lia",
          "off for hmtp and fixedrate");

  // Per-run outputs of several seeds would collide, so a multi-seed run
  // writes only the span trace, which covers the whole process.
  std::unique_ptr<obs::Observer> observer;
  std::FILE* metrics_file = nullptr;
  std::FILE* spans_file = nullptr;
  if (!obs_dir.empty()) {
    spans_file = open_output(obs_dir, "spans.json");
    if (seed_count == 1) {
      metrics_file = open_output(obs_dir, "metrics.json");
      observer = std::make_unique<obs::Observer>();
      observer->timeline.open_jsonl(obs_dir + "/timeline.jsonl");
      scenario.observer = observer.get();
    }
  }

  const bool tracing = profile || spans_file != nullptr;
  if (tracing) {
    obs::trace::TraceConfig trace_config;
    // The ring (per-event records) only feeds the Chrome exporter; the
    // aggregate table is exact regardless, so skip capture for --profile.
    trace_config.capture_records = spans_file != nullptr;
    obs::trace::start(trace_config);
  }

  if (seed_count > 1) {
    std::vector<std::uint64_t> seeds;
    for (std::int64_t i = 0; i < seed_count; ++i) {
      seeds.push_back(scenario.seed + static_cast<std::uint64_t>(i));
    }
    const std::vector<RunResult> results =
        run_seeds(*protocol, scenario, options, seeds, parallel_jobs);
    std::printf("protocol:  %s, %lld seeds (%llu..%llu), jobs=%u\n",
                protocol_name.c_str(), static_cast<long long>(seed_count),
                static_cast<unsigned long long>(seeds.front()),
                static_cast<unsigned long long>(seeds.back()),
                parallel_jobs);
    std::printf("seed\tgoodput(MB/s)\tdelay(ms)\tjitter(ms)\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("%llu\t%.4f\t%.1f\t%.1f\n",
                  static_cast<unsigned long long>(seeds[i]),
                  results[i].goodput_MBps, results[i].mean_delay_ms,
                  results[i].jitter_ms);
    }
    const SeedStats goodput = aggregate(
        results, [](const RunResult& r) { return r.goodput_MBps; });
    const SeedStats delay = aggregate(
        results, [](const RunResult& r) { return r.mean_delay_ms; });
    std::printf("mean\t%.4f +/- %.4f\t%.1f +/- %.1f ms\n", goodput.mean,
                goodput.stddev, delay.mean, delay.stddev);
    if (tracing) finish_tracing(spans_file, obs_dir, profile, nullptr);
    return 0;
  }

  const RunResult result = run_scenario(*protocol, scenario, options);

  std::printf("protocol:        %s\n", protocol_name.c_str());
  std::printf("paths:           %.0fms/%.1f%% + %.0fms/%.1f%% @ %.1f Mb/s\n",
              scenario.path1.delay_ms, scenario.path1.loss * 100,
              scenario.path2.delay_ms, scenario.path2.loss * 100,
              scenario.bandwidth_Bps * 8 / 1e6);
  std::printf("goodput:         %.4f MB/s (%llu bytes in %.0f s)\n",
              result.goodput_MBps,
              static_cast<unsigned long long>(result.delivered_bytes),
              to_seconds(scenario.duration));
  std::printf("blocks:          %llu completed\n",
              static_cast<unsigned long long>(result.blocks_completed));
  std::printf("block delay:     %.1f ms mean, %.1f ms jitter, %.1f ms max\n",
              result.mean_delay_ms, result.jitter_ms, result.max_delay_ms);
  if (result.symbols_sent > 0) {
    std::printf("coding overhead: %.1f%% (payload %s)\n",
                result.coding_overhead(options.fmtcp.block_symbols) * 100,
                result.payload_ok ? "verified" : "CORRUPT");
  }
  for (std::size_t i = 0; i < result.subflows.size(); ++i) {
    const SubflowStats& s = result.subflows[i];
    std::printf(
        "subflow %zu:       sent=%llu rtx=%llu timeouts=%llu cwnd=%.1f "
        "loss_est=%.3f\n",
        i, static_cast<unsigned long long>(s.segments_sent),
        static_cast<unsigned long long>(s.retransmissions),
        static_cast<unsigned long long>(s.timeouts), s.final_cwnd,
        s.loss_estimate);
  }
  std::printf("event loop:      %llu events in %.2f s wall\n",
              static_cast<unsigned long long>(result.sim_events),
              result.wall_seconds);
  if (tracing) {
    finish_tracing(spans_file, obs_dir, profile,
                   observer ? &observer->metrics : nullptr);
  }
  if (observer) {
    write_and_close(observer->metrics.to_json() + "\n", metrics_file);
    observer->timeline.flush();
    std::printf("metrics:         %zu metrics -> %s/metrics.json\n",
                observer->metrics.metric_count(), obs_dir.c_str());
    std::printf("timeline:        %llu events -> %s/timeline.jsonl\n",
                static_cast<unsigned long long>(observer->timeline.emitted()),
                obs_dir.c_str());
  }
  if (print_series) {
    std::printf("\nt(s)\tgoodput(MB/s)\n");
    for (std::size_t t = 0; t < result.goodput_series_MBps.size(); ++t) {
      std::printf("%zu\t%.4f\n", t, result.goodput_series_MBps[t]);
    }
  }
  return 0;
}
