// cellbench: runs benchmark cells back to back on one thread (a closed
// loop: each cell starts when the previous one finishes) and prints one
// JSON object of raw measurements on stdout. run.py turns it into the
// benchmark's metrics and checks.
//
//   cellbench --workload fmtcp-gf2|fmtcp-gf256|mptcp --seed N
//             [--seconds S] [--cells N] [--trace 0|1]
//
// Cell i uses simulator seed N + i. --seconds bounds the run by wall time
// (whole cells; at least one); --cells runs exactly that many cells.
//
// --trace 0 times every cell's construction (plus extra set-ups) and
// each simulated second of its event loop (a "slice"), times the
// reference workload (reference.h) every ten slices, and reports each
// cell's deterministic outcome.
//
// --trace 1 runs every cell four ways: the real cell untraced (the
// baseline for trace overhead and for the equivalence check), the real
// cell with the scheduler op recorder and dispatch profile on, a replay
// of that op stream with no-op callbacks (the event core's own cost), and
// the decorated TracedCell under a span-tracer session.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cell.h"
#include "common/cpu_features.h"
#include "fountain/gf256_kernels.h"
#include "fountain/gf2_kernels.h"
#include "obs/trace/span.h"
#include "obs/trace/tracer.h"
#include "reference.h"
#include "traced.h"

namespace cellbench {
namespace {

using namespace fmtcp;

// Set-ups timed (and discarded) before each measured cell, besides the
// cell's own.
constexpr int kExtraSetupsPerCell = 4;
// Seed of the untimed warm-up cell, far from any measured seed.
constexpr std::uint64_t kWarmupSeed = 1u << 30;
constexpr SimTime kWarmupDuration = 10 * kSecond;
constexpr int kReplayRepeats = 3;
constexpr std::uint64_t kRssCells = 4;
// Host-speed samples (see reference.h): one before every tenth slice,
// after a few untimed calls.
constexpr int kSlicesPerReference = 10;
constexpr int kReferenceWarmups = 3;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON writer: enough for flat numbers, strings and arrays.
class Json {
 public:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  Json& key(const std::string& k) {
    comma();
    str(k);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    str(v);
    return *this;
  }
  template <typename T>
  Json& field(const std::string& k, const T& v) {
    return key(k).value(v);
  }
  Json& array(const std::string& k, const std::vector<std::uint64_t>& v) {
    key(k).open('[');
    for (std::uint64_t x : v) value(x);
    return close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void str(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  bool first_ = true;
};

void write_outcome(Json& json, const std::string& name, const Outcome& o) {
  json.key(name).open('{');
  json.field("delivered_bytes", o.delivered_bytes)
      .field("blocks_completed", o.blocks_completed)
      .field("symbols_sent", o.symbols_sent)
      .field("redundant_symbols", o.redundant_symbols)
      .array("segments_sent", o.segments_sent)
      .array("retransmissions", o.retransmissions)
      .field("failure", o.failure);
  json.close('}');
}

void write_host(Json& json) {
  const char* forced = std::getenv("FMTCP_FORCE_KERNEL");
  json.key("host").open('{');
  json.field("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("compiler", std::string(CELLBENCH_COMPILER))
      .field("build_type", std::string(CELLBENCH_BUILD_TYPE))
      .field("cpu_features", cpu_features_string())
      .field("gf2_kernel", std::string(fountain::gf2_kernel().name))
      .field("gf256_kernel", std::string(fountain::gf256_kernel().name))
      .field("force_kernel", std::string(forced == nullptr ? "" : forced));
  json.close('}');
}

struct Options {
  Workload workload = Workload::kFmtcpGf2;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t cells = 0;  ///< 0 = bounded by `seconds`.
  bool trace = false;
};

/// Cells to run: exactly `cells`, or until `seconds` of wall time have
/// passed since `begin` (at least one).
bool more_cells(const Options& options, std::uint64_t done,
                std::uint64_t begin) {
  if (options.cells > 0) return done < options.cells;
  return done == 0 ||
         static_cast<double>(now_ns() - begin) / 1e9 < options.seconds;
}

/// Runs a cell to completion one simulated second at a time, appending
/// each slice's wall time to `slices` when it is not null. With a
/// `reference`, also times it before every kSlicesPerReference-th slice,
/// appending to `reference_ns`.
template <typename C>
void run_slices(C& cell, std::vector<std::uint64_t>* slices,
                Reference* reference = nullptr,
                std::vector<std::uint64_t>* reference_ns = nullptr) {
  for (int s = 1; s <= kCellSeconds; ++s) {
    if (reference != nullptr && (s - 1) % kSlicesPerReference == 0) {
      reference_ns->push_back(reference->time_ns());
    }
    const std::uint64_t t = now_ns();
    cell.simulator().run_until(s * kSecond);
    if (slices != nullptr) slices->push_back(now_ns() - t);
  }
}

/// The process's peak resident set so far. VmHWM, not getrusage: the
/// latter carries the peak of whatever process image exec replaced.
std::uint64_t peak_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

void warm_up(const Options& options) {
  Cell cell(options.workload, kWarmupSeed);
  cell.simulator().run_until(kWarmupDuration);
}

void run_untraced(const Options& options, Json& json) {
  std::uint64_t rss_kb = 0;
  Reference reference;
  for (int j = 0; j < kReferenceWarmups; ++j) reference.time_ns();
  json.key("cells").open('[');
  const std::uint64_t begin = now_ns();
  for (std::uint64_t i = 0; more_cells(options, i, begin); ++i) {
    const std::uint64_t cell_seed = options.seed + i;
    // Extra set-up samples spread over the run, so the set-up median
    // rests on many samples however few cells fit in the time budget.
    std::vector<std::uint64_t> setups;
    for (int j = 0; j < kExtraSetupsPerCell; ++j) {
      const std::uint64_t t = now_ns();
      Cell cell(options.workload, cell_seed);
      setups.push_back(now_ns() - t);
    }
    const std::uint64_t t = now_ns();
    auto cell = std::make_unique<Cell>(options.workload, cell_seed);
    setups.push_back(now_ns() - t);
    std::vector<std::uint64_t> slices;
    std::vector<std::uint64_t> reference_ns;
    run_slices(*cell, &slices, &reference, &reference_ns);
    const Outcome outcome = cell->outcome();
    cell.reset();
    // Peak RSS over the first few cells: the process's footprint for a
    // cell, independent of how many cells the time budget allows.
    if (i < kRssCells) rss_kb = peak_rss_kb();

    json.open('{');
    json.field("seed", cell_seed)
        .array("setup_ns", setups)
        .array("slices_ns", slices)
        .array("reference_ns", reference_ns);
    write_outcome(json, "outcome", outcome);
    json.close('}');
  }
  json.close(']');
  json.field("peak_rss_kb", rss_kb);
}

/// Sums of the tracer's per-span and per-counter aggregates over the
/// traced cells.
struct SpanTotals {
  struct Span {
    std::uint64_t count = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Span> spans;
  std::map<std::string, std::uint64_t> counters;

  void add(const obs::trace::TraceReport& report) {
    for (const obs::trace::SpanAggregate& s : report.spans) {
      Span& total = spans[s.name];
      total.count += s.count;
      total.self_ms += s.self_ms;
    }
    for (const obs::trace::CounterAggregate& c : report.counters) {
      counters[c.name] += c.value;
    }
  }
};

void run_traced(const Options& options, Json& json) {
  SpanTotals totals;
  json.key("traced_cells").open('[');
  const std::uint64_t begin = now_ns();
  for (std::uint64_t i = 0; more_cells(options, i, begin); ++i) {
    const std::uint64_t cell_seed = options.seed + i;

    // The real cell, untraced.
    std::uint64_t t = now_ns();
    auto cell = std::make_unique<Cell>(options.workload, cell_seed);
    run_slices(*cell, nullptr);
    const Outcome untraced = cell->outcome();
    cell.reset();
    const std::uint64_t untraced_ns = now_ns() - t;

    // The real cell again, recording its scheduler operations and
    // dispatch profile (both off the timed paths).
    OpTrace ops;
    cell = std::make_unique<Cell>(options.workload, cell_seed, &ops, true);
    run_slices(*cell, nullptr);
    const Outcome recorded = cell->outcome();
    const auto profile = cell->simulator().scheduler().dispatch_profile();
    // Teardown cancels are not part of the cell's operation stream.
    cell->simulator().scheduler().set_op_recorder(nullptr);
    cell.reset();

    std::vector<std::uint64_t> replays;
    std::uint64_t replay_events = 0;
    for (int r = 0; r < kReplayRepeats; ++r) {
      t = now_ns();
      replay_events = ops.replay(kCellSeconds * kSecond);
      replays.push_back(now_ns() - t);
    }
    std::sort(replays.begin(), replays.end());

    // The decorated twin under a tracer session.
    obs::trace::TraceConfig config;
    config.capture_records = false;
    obs::trace::start(config);
    t = now_ns();
    std::unique_ptr<TracedCell> traced_cell;
    {
      FMTCP_SPAN("harness.cell_setup");
      traced_cell = std::make_unique<TracedCell>(options.workload, cell_seed);
    }
    for (int s = 1; s <= kCellSeconds; ++s) {
      FMTCP_SPAN("sim.run_until");
      traced_cell->simulator().run_until(s * kSecond);
    }
    const Outcome traced = traced_cell->outcome();
    const std::map<std::string, double> counters = traced_cell->counters();
    {
      FMTCP_SPAN("harness.cell_teardown");
      traced_cell.reset();
    }
    const std::uint64_t traced_ns = now_ns() - t;
    totals.add(obs::trace::stop());

    json.open('{');
    json.field("seed", cell_seed)
        .field("untraced_wall_ns", untraced_ns)
        .field("traced_wall_ns", traced_ns)
        .field("replay_ns", replays[replays.size() / 2])
        .field("replay_events", replay_events);
    write_outcome(json, "untraced", untraced);
    write_outcome(json, "recorded", recorded);
    write_outcome(json, "traced", traced);
    json.key("counters").open('{');
    for (const auto& [name, value] : counters) json.field(name, value);
    json.close('}');
    json.key("profile").open('{');
    for (const auto& [tag, count] : profile) json.field(tag, count);
    json.close('}');
    json.close('}');
  }
  json.close(']');

  json.key("spans").open('{');
  for (const auto& [name, span] : totals.spans) {
    json.key(name).open('{');
    json.field("count", span.count).field("self_ms", span.self_ms);
    json.close('}');
  }
  json.close('}');
  json.key("trace_counters").open('{');
  for (const auto& [name, value] : totals.counters) json.field(name, value);
  json.close('}');
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fmtcp-gf2|fmtcp-gf256|mptcp --seed N "
               "[--seconds S] [--cells N] [--trace 0|1]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      const std::optional<Workload> w = parse_workload(val);
      if (!w) return usage(argv[0]);
      options.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--cells") {
      options.cells = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      options.trace = val == "1";
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);

  Json json;
  json.open('{');
  json.field("workload", std::string(workload_name(options.workload)))
      .field("seed", options.seed)
      .field("trace", static_cast<std::uint64_t>(options.trace));
  write_host(json);
  warm_up(options);
  if (options.trace) {
    run_traced(options, json);
  } else {
    run_untraced(options, json);
  }
  json.close('}');
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) { return cellbench::run(argc, argv); }
