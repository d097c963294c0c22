#include "harness/runner.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/check.h"
#include "net/topology.h"
#include "obs/trace/span.h"
#include "sim/simulator.h"

namespace fmtcp::harness {

namespace {

void collect_subflow(const tcp::Subflow& subflow, RunResult& result) {
  SubflowStats stats;
  stats.segments_sent = subflow.segments_sent();
  stats.retransmissions = subflow.retransmissions();
  stats.timeouts = subflow.timeouts();
  stats.fast_retransmits = subflow.fast_retransmits();
  stats.final_cwnd = subflow.cwnd();
  stats.loss_estimate = subflow.loss_estimate();
  result.subflows.push_back(stats);
}

void collect(tcp::Connection& connection, const Scenario& scenario,
             RunResult& result) {
  const metrics::GoodputMeter& goodput = connection.goodput();
  const metrics::BlockDelayRecorder& delays = connection.block_delays();
  result.delivered_bytes = goodput.total_bytes();
  result.goodput_MBps = goodput.mean_rate_MBps(scenario.duration);
  for (std::size_t i = 0; i < goodput.series().bin_count(); ++i) {
    result.goodput_series_MBps.push_back(goodput.series().rate_at(i) / 1e6);
  }
  result.blocks_completed = delays.completed_blocks();
  result.mean_delay_ms = delays.mean_delay_ms();
  result.jitter_ms = delays.jitter_ms();
  result.stddev_delay_ms = delays.stddev_delay_ms();
  result.max_delay_ms = delays.max_delay_ms();
  result.block_delays_ms = delays.delays_ms_in_order();
  for (std::size_t i = 0; i < connection.subflow_count(); ++i) {
    collect_subflow(connection.subflow(i), result);
  }
  result.redundant_symbols = connection.redundant_symbols();
  result.symbols_sent = connection.symbols_sent();
  result.payload_ok = connection.payload_verified();
}

/// Runs the event loop for scenario.duration. With an observer, pauses
/// at each sim-second boundary to emit a kSimProgress record pairing
/// wall-clock cost with events executed — the event-loop profile.
void run_clock(sim::Simulator& simulator, const Scenario& scenario) {
  obs::Observer* obs = scenario.observer;
  if (obs == nullptr) {
    simulator.run_until(scenario.duration);
    return;
  }
  // NOLINT-DETERMINISM(feeds only the kSimProgress profiling record)
  using Clock = std::chrono::steady_clock;
  std::uint64_t last_events = simulator.scheduler().executed_count();
  Clock::time_point last_wall = Clock::now();
  std::uint64_t second = 0;
  SimTime t = std::min<SimTime>(kSecond, scenario.duration);
  while (true) {
    simulator.run_until(t);
    const Clock::time_point wall = Clock::now();
    const std::uint64_t events = simulator.scheduler().executed_count();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(wall - last_wall)
            .count();
    obs->timeline.emit({obs::EventType::kSimProgress, 0, simulator.now(),
                        second++, wall_ms,
                        static_cast<double>(events - last_events)});
    last_events = events;
    last_wall = wall;
    if (t >= scenario.duration) break;
    t = std::min<SimTime>(t + kSecond, scenario.duration);
  }
}

/// Copies the scheduler's per-tag dispatch counts into sim.events.*
/// counters and the buffer pool's lifetime stats into bufferpool.*
/// gauges so fmtcp_sim's metrics.json captures both profiles.
void export_dispatch_profile(sim::Simulator& simulator,
                             const Scenario& scenario) {
  if (scenario.observer == nullptr) return;
  for (const auto& [tag, count] :
       simulator.scheduler().dispatch_profile()) {
    scenario.observer->metrics.counter("sim.events." + tag).inc(count);
  }
  const BufferPool::Stats pool = simulator.buffer_pool().stats();
  obs::MetricsRegistry& metrics = scenario.observer->metrics;
  metrics.gauge("bufferpool.acquired").set(static_cast<double>(pool.acquired));
  metrics.gauge("bufferpool.reused").set(static_cast<double>(pool.reused));
  metrics.gauge("bufferpool.allocated")
      .set(static_cast<double>(pool.allocated));
  metrics.gauge("bufferpool.released").set(static_cast<double>(pool.released));
  metrics.gauge("bufferpool.dropped").set(static_cast<double>(pool.dropped));
  metrics.gauge("bufferpool.outstanding")
      .set(static_cast<double>(pool.outstanding));
  metrics.gauge("bufferpool.high_water")
      .set(static_cast<double>(pool.high_water));
  metrics.gauge("bufferpool.free").set(static_cast<double>(pool.free));
  scenario.observer->timeline.flush();
}

net::Topology build_topology(sim::Simulator& simulator,
                             const Scenario& scenario) {
  net::Topology topology(
      simulator,
      {scenario.path_config(scenario.path1),
       scenario.path_config(scenario.path2)});
  if (!scenario.path2_loss_schedule.empty()) {
    topology.path(1).set_forward_loss(
        std::make_unique<net::TimeVaryingLoss>(
            scenario.path2_loss_schedule));
  }
  if (scenario.observer != nullptr) {
    obs::EventTimeline* timeline = &scenario.observer->timeline;
    for (std::size_t i = 0; i < topology.path_count(); ++i) {
      topology.path(i).forward().set_timeline(
          timeline, static_cast<std::uint32_t>(2 * i));
      topology.path(i).reverse().set_timeline(
          timeline, static_cast<std::uint32_t>(2 * i + 1));
    }
  }
  return topology;
}

}  // namespace

double RunResult::coding_overhead(std::uint32_t block_symbols) const {
  if (blocks_completed == 0 || symbols_sent == 0) return 0.0;
  const double needed = static_cast<double>(blocks_completed) *
                        static_cast<double>(block_symbols);
  return static_cast<double>(symbols_sent) / needed - 1.0;
}

RunResult run_scenario(Protocol protocol, const Scenario& scenario,
                       const ProtocolOptions& options) {
  // One cell = one simulation. The phase spans below (setup / sim /
  // collect / teardown) are what the sweep profiler aggregates to
  // explain where parallel sweeps spend their time; simulator and
  // topology destruction lands in sweep.cell self time.
  FMTCP_SPAN_ARG("sweep.cell", scenario.seed);
  sim::Simulator simulator(scenario.seed);
  // Per-tag dispatch counting costs a scan per event; only pay for it
  // when someone is attached to read the profile.
  simulator.scheduler().set_profiling(scenario.observer != nullptr);
  net::Topology topology = build_topology(simulator, scenario);

  RunResult result;
  result.protocol = protocol;
  // NOLINT-DETERMINISM(wall_seconds diagnostic; no result derives from it)
  const auto wall_start = std::chrono::steady_clock::now();

  std::unique_ptr<tcp::Connection> connection;
  {
    FMTCP_SPAN("sweep.cell.setup");
    connection =
        make_connection(protocol, simulator, options, scenario.observer);
    connection->wire(topology);
    connection->start();
  }
  {
    FMTCP_SPAN("sweep.cell.sim");
    run_clock(simulator, scenario);
  }
  {
    FMTCP_SPAN("sweep.cell.collect");
    collect(*connection, scenario, result);
  }
  {
    FMTCP_SPAN("sweep.cell.teardown");
    connection.reset();
  }
  result.sim_events = simulator.scheduler().executed_count();
  result.wall_seconds =
      // NOLINT-DETERMINISM(wall_seconds diagnostic; no result derives from it)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  export_dispatch_profile(simulator, scenario);
  return result;
}

RunResult run_scenario(Protocol protocol, const Scenario& scenario) {
  return run_scenario(protocol, scenario, ProtocolOptions::defaults());
}

}  // namespace fmtcp::harness
