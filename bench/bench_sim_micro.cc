// Event-scheduler microbenchmarks.
//
// Two modes:
//  - Default: google-benchmark micros (scheduler churn, deep queues,
//    dispatch profiling cost, timer re-arm, full-stack simulated-second
//    throughput).
//  - --json=FILE / --guard=FILE: the scheduler replay harness behind
//    the committed BENCH_sched.json baseline. It records the exact
//    schedule/cancel/handle operation stream of representative sweep
//    cells (FMTCP and MPTCP, a few simulated seconds each) through
//    Scheduler's op-recorder hook, then replays that stream with no-op
//    callbacks against both the production timer-wheel scheduler and
//    the frozen seed binary-heap scheduler
//    (tests/sim/reference_scheduler.h). With the callback bodies gone,
//    events/sec is pure scheduler cost on a real workload's timer
//    pattern, and wheel/heap is the speedup the wheel buys
//    sched.run_until. --json writes the numbers (tools/bench.sh,
//    --merge-min keeps elementwise minima across passes); --guard
//    re-runs and fails if any case regressed more than --max-regression
//    (default 0.20) against the baseline (tools/check.sh
//    FMTCP_BENCH_GUARD=1).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "harness/scenario.h"
#include "json_baseline.h"
#include "net/topology.h"
#include "sim/reference_scheduler.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace {

using namespace fmtcp;
using namespace fmtcp::benchjson;

void BM_SchedulerChurn(benchmark::State& state) {
  // Schedule + execute one event per iteration (self-perpetuating chain).
  sim::Simulator sim(1);
  SimTime t = 0;
  for (auto _ : state) {
    sim.schedule_at(++t, [] {});
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerDeepQueue(benchmark::State& state) {
  // Wheel behaviour with many pending events.
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(1);
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule_at(static_cast<SimTime>(i + 1), [] {});
    }
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_SchedulerDeepQueue)->Arg(1000)->Arg(100000);

void BM_DispatchProfiling(benchmark::State& state) {
  // Cost of the per-dispatch profiling path (tag scan + tally) vs the
  // default-off fast path. run_scenario only enables profiling when an
  // observer is attached; this measures what that gate saves.
  const bool profiling = state.range(0) != 0;
  sim::Simulator sim(1);
  sim.scheduler().set_profiling(profiling);
  SimTime t = 0;
  for (auto _ : state) {
    sim.schedule_at(++t, "net.link.deliver", [] {});
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetLabel(profiling ? "profiling" : "no-observer");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DispatchProfiling)->Arg(0)->Arg(1);

void BM_TimerRearm(benchmark::State& state) {
  sim::Simulator sim(1);
  sim::Timer timer(sim, [] {});
  SimTime t = 0;
  for (auto _ : state) {
    timer.schedule_at(++t + kSecond);  // Cancels + reschedules.
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerRearm);

void BM_FmtcpSimulatedSecond(benchmark::State& state) {
  // Full-stack cost of one simulated second of the default FMTCP cell
  // (ProtocolOptions::defaults(), real GF(2) coding end to end) over the
  // two Table-I paths, path 2 at 10% loss.
  sim::Simulator sim(1);
  harness::Scenario scenario;
  scenario.path2 = {100.0, 0.10};
  net::Topology topology(sim, {scenario.path_config(scenario.path1),
                               scenario.path_config(scenario.path2)});
  const harness::ProtocolOptions options =
      harness::ProtocolOptions::defaults();
  const std::unique_ptr<tcp::Connection> connection =
      harness::make_connection(harness::Protocol::kFmtcp, sim, options,
                               nullptr);
  connection->wire(topology);
  connection->start();

  for (auto _ : state) {
    sim.run_until(sim.now() + kSecond);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(connection->goodput().total_bytes() /
                          options.fmtcp.block_bytes()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FmtcpSimulatedSecond);

// --------------------------------------------------------------------------
// Scheduler replay harness (--json / --guard modes)
// --------------------------------------------------------------------------

constexpr double kMinSeconds = 0.25;

/// One recorded scheduler operation, replayed inside its parent's
/// callback (or at setup, for parentless ops). `target` is the child's
/// seq for schedules, the victim's seq for cancels; seqs are dense, so
/// they double as vector indices.
struct ReplayOp {
  std::uint64_t target = 0;
  SimTime when = 0;           ///< Schedules only: absolute fire time.
  bool is_cancel = false;
  bool want_handle = false;   ///< A handle was kept (cancel target).
};

struct Trace {
  std::vector<ReplayOp> setup;               ///< Parentless ops, in order.
  std::vector<std::vector<ReplayOp>> by_seq; ///< Ops by parent callback.
  std::uint64_t scheduled = 0;
  SimTime horizon = 0;
};

/// Captures the live workload's operation stream. Interleaving is
/// preserved per parent (a callback's schedules and cancels replay in
/// the order it performed them); on_handle retroactively marks the
/// schedule op it refers to, wherever it was recorded.
class TraceRecorder : public sim::SchedulerOpRecorder {
 public:
  explicit TraceRecorder(Trace* trace) : trace_(trace) {}

  void on_schedule(std::uint64_t parent, std::uint64_t seq, SimTime when,
                   const char* /*tag*/) override {
    // Grow by_seq before taking the parent's list reference — the
    // resize moves the outer vector.
    if (trace_->by_seq.size() <= seq) trace_->by_seq.resize(seq + 1);
    if (locations_.size() <= seq) locations_.resize(seq + 1);
    std::vector<ReplayOp>& ops = ops_for(parent);
    locations_[seq] = {parent, ops.size()};
    ops.push_back({seq, when, /*is_cancel=*/false, /*want_handle=*/false});
    ++trace_->scheduled;
  }

  void on_handle(std::uint64_t /*parent*/, std::uint64_t seq) override {
    const Location& at = locations_[seq];
    ops_for(at.parent)[at.index].want_handle = true;
  }

  void on_cancel(std::uint64_t parent, std::uint64_t target) override {
    ops_for(parent).push_back({target, 0, /*is_cancel=*/true, false});
  }

 private:
  struct Location {
    std::uint64_t parent = 0;
    std::size_t index = 0;
  };

  std::vector<ReplayOp>& ops_for(std::uint64_t parent) {
    if (parent == kNoParent) return trace_->setup;
    return trace_->by_seq[parent];
  }

  Trace* trace_;
  std::vector<Location> locations_;
};

/// A representative sweep cell over two asymmetric-quality paths. FMTCP
/// adds real coding work driving retransmission and block timers; MPTCP
/// has no coding but heavy per-segment timer re-arm churn, the
/// cancel-dominated pattern.
Trace record_cell(harness::Protocol protocol, double seconds) {
  Trace trace;
  TraceRecorder recorder(&trace);
  sim::Simulator sim(1);
  sim.scheduler().set_op_recorder(&recorder);

  harness::Scenario scenario;
  scenario.path2 = {100.0, 0.05};
  net::Topology topology(sim, {scenario.path_config(scenario.path1),
                               scenario.path_config(scenario.path2)});
  const std::unique_ptr<tcp::Connection> connection =
      harness::make_connection(protocol, sim,
                               harness::ProtocolOptions::defaults(),
                               nullptr);
  connection->wire(topology);
  connection->start();

  sim.run_until(from_seconds(seconds));
  // Detach before teardown: destructor-time cancels are not part of the
  // workload being modelled.
  sim.scheduler().set_op_recorder(nullptr);
  trace.horizon = from_seconds(seconds);
  return trace;
}

/// Replays `trace` against a fresh scheduler with no-op callback
/// bodies; returns the executed-event count. Because replayed seqs are
/// assigned in the same global order as the recording, recorded seqs
/// line up with replay seqs and cancels hit the intended events.
template <typename Sched>
std::uint64_t replay_trace(const Trace& trace) {
  Sched s;
  std::vector<typename Sched::handle_type> handles(trace.by_seq.size());

  struct Driver {
    const Trace& trace;
    Sched& s;
    std::vector<typename Sched::handle_type>& handles;

    void run_ops(const std::vector<ReplayOp>& ops) {
      for (const ReplayOp& op : ops) {
        if (op.is_cancel) {
          handles[op.target].cancel();
          continue;
        }
        const std::uint64_t child = op.target;
        auto pending = s.schedule_at(op.when, "replay", [this, child] {
          run_ops(trace.by_seq[child]);
        });
        if (op.want_handle) handles[child] = pending;
      }
    }
  };
  Driver driver{trace, s, handles};
  driver.run_ops(trace.setup);
  s.run_until(trace.horizon);
  return s.executed_count();
}

struct CaseResult {
  std::string name;
  double events_per_sec = 0.0;
};

template <typename Sched>
CaseResult run_replay_case(const std::string& name, const Trace& trace,
                           std::uint64_t expect_executed) {
  // Warm-up pass (also a correctness gate: both schedulers must execute
  // the same events), then repeat until the clock budget is spent.
  FMTCP_CHECK(replay_trace<Sched>(trace) == expect_executed);
  std::uint64_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    events += replay_trace<Sched>(trace);
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < kMinSeconds);

  CaseResult result;
  result.name = name;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  return result;
}

struct HarnessReport {
  std::vector<CaseResult> cases;
  double speedup_fmtcp = 0.0;
  double speedup_mptcp = 0.0;
};

HarnessReport run_harness() {
  HarnessReport report;
  const struct {
    const char* name;
    Trace trace;
  } traces[] = {
      {"fmtcp_cell", record_cell(harness::Protocol::kFmtcp, 4.0)},
      {"mptcp_cell", record_cell(harness::Protocol::kMptcp, 4.0)},
  };
  for (const auto& [name, trace] : traces) {
    const std::uint64_t executed =
        replay_trace<sim::Scheduler>(trace);
    std::printf("  %-12s %7llu ops, %6llu executed:",
                name, static_cast<unsigned long long>(trace.scheduled),
                static_cast<unsigned long long>(executed));
    // Alternate implementations across repetitions so a background
    // burst on this box degrades one repetition, not one side.
    CaseResult wheel;
    CaseResult heap;
    for (int rep = 0; rep < 5; ++rep) {
      const CaseResult w = run_replay_case<sim::Scheduler>(
          std::string(name) + "_wheel", trace, executed);
      if (w.events_per_sec > wheel.events_per_sec) wheel = w;
      const CaseResult h = run_replay_case<sim::HeapScheduler>(
          std::string(name) + "_heap", trace, executed);
      if (h.events_per_sec > heap.events_per_sec) heap = h;
    }
    const double speedup = wheel.events_per_sec / heap.events_per_sec;
    std::printf(" wheel %6.2fM ev/s   heap %6.2fM ev/s   (%.2fx)\n",
                wheel.events_per_sec / 1e6, heap.events_per_sec / 1e6,
                speedup);
    report.cases.push_back(wheel);
    report.cases.push_back(heap);
    if (std::string(name) == "fmtcp_cell") report.speedup_fmtcp = speedup;
    if (std::string(name) == "mptcp_cell") report.speedup_mptcp = speedup;
  }
  return report;
}

void write_json(const std::string& path, HarnessReport report,
                bool merge_min) {
  if (merge_min) {
    // Fold the previous recording in, keeping the elementwise minimum:
    // repeated passes converge on a floor a guard run on an idle box
    // can always meet. Speedups are recomputed from the merged floors.
    const std::string prev = read_file(path);
    for (CaseResult& r : report.cases) {
      const std::optional<double> base =
          baseline_field(prev, r.name, "events_per_sec");
      if (base.has_value() && *base < r.events_per_sec) {
        r.events_per_sec = *base;
      }
    }
    const auto rate = [&report](const std::string& name) {
      for (const CaseResult& r : report.cases) {
        if (r.name == name) return r.events_per_sec;
      }
      return 0.0;
    };
    report.speedup_fmtcp = rate("fmtcp_cell_wheel") / rate("fmtcp_cell_heap");
    report.speedup_mptcp = rate("mptcp_cell_wheel") / rate("mptcp_cell_heap");
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::perror(("cannot open " + path).c_str());
    std::exit(1);
  }
  std::fprintf(file,
               "{\n"
               "  \"host\": {\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"compiler\": \"%s\"\n"
               "  },\n"
               "  \"speedup_wheel_vs_heap\": {\n"
               "    \"fmtcp_cell\": %.2f,\n"
               "    \"mptcp_cell\": %.2f\n"
               "  },\n"
               "  \"cases\": {\n",
               ThreadPool::hardware_threads(), __VERSION__,
               report.speedup_fmtcp, report.speedup_mptcp);
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    const CaseResult& r = report.cases[i];
    std::fprintf(file, "    \"%s\": {\"events_per_sec\": %.0f}%s\n",
                 r.name.c_str(), r.events_per_sec,
                 i + 1 < report.cases.size() ? "," : "");
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
  const HarnessReport report = run_harness();
  int failures = 0;
  for (const CaseResult& r : report.cases) {
    const std::optional<double> base =
        baseline_field(json, r.name, "events_per_sec");
    if (!base.has_value()) {
      std::printf("guard: %-18s no baseline, skipped\n", r.name.c_str());
      continue;
    }
    const double floor = *base * (1.0 - max_regression);
    if (r.events_per_sec < floor) {
      std::printf(
          "guard: %-18s REGRESSED %.2fM ev/s < %.2fM (baseline %.2fM)\n",
          r.name.c_str(), r.events_per_sec / 1e6, floor / 1e6, *base / 1e6);
      ++failures;
    } else {
      std::printf("guard: %-18s ok %.2fM ev/s (baseline %.2fM)\n",
                  r.name.c_str(), r.events_per_sec / 1e6, *base / 1e6);
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
  const std::optional<std::string> json_path = flag_value(argc, argv, "json");
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
    std::printf("scheduler replay throughput (no-op callbacks):\n");
    write_json(*json_path, run_harness(), merge_min);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
