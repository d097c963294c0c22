// Ablation A6 — bursty (Gilbert–Elliott) loss instead of the paper's
// i.i.d. erasures: wireless links lose packets in fades, which stresses
// the coding protocols differently (a burst can erase many symbols of
// one block at once).
#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "harness/printer.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "net/topology.h"
#include "sim/simulator.h"

using namespace fmtcp;
using namespace fmtcp::harness;

namespace {

/// Average loss ~10% in all three shapes; burstiness varies.
struct BurstShape {
  const char* name;
  double p_good_to_bad;
  double p_bad_to_good;
  double loss_bad;
};

struct CellResult {
  double goodput = 0.0;
  double delay = 0.0;
  double jitter = 0.0;
};

/// One fully self-contained simulation (these cells bypass run_scenario
/// because Scenario cannot express a Gilbert–Elliott loss model).
CellResult run_cell(const BurstShape& shape, Protocol protocol) {
  Scenario scenario;
  scenario.path2 = {100.0, 0.0};
  scenario.duration = 60 * kSecond;
  scenario.seed = 13;

  const ProtocolOptions options = ProtocolOptions::defaults();
  sim::Simulator simulator(scenario.seed);
  net::Topology topology(simulator,
                         {scenario.path_config(scenario.path1),
                          scenario.path_config(scenario.path2)});
  net::GilbertElliottLoss::Config ge;
  ge.p_good_to_bad = shape.p_good_to_bad;
  ge.p_bad_to_good = shape.p_bad_to_good;
  ge.loss_bad = shape.loss_bad;
  topology.path(1).set_forward_loss(
      std::make_unique<net::GilbertElliottLoss>(ge));

  std::unique_ptr<tcp::Connection> connection =
      make_connection(protocol, simulator, options, nullptr);
  connection->wire(topology);
  connection->start();
  simulator.run_until(scenario.duration);
  CellResult result;
  result.goodput = connection->goodput().mean_rate_MBps(scenario.duration);
  result.delay = connection->block_delays().mean_delay_ms();
  result.jitter = connection->block_delays().jitter_ms();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  unsigned jobs = jobs_from_flags(flags);
  if (jobs == 0) jobs = ThreadPool::hardware_threads();

  print_header(
      "Ablation A6: bursty (Gilbert-Elliott) loss on subflow 2, ~10% avg");
  // Stationary bad fraction p_gb/(p_gb+p_bg); loss = fraction * loss_bad.
  const BurstShape shapes[] = {
      {"near-iid (short bad)", 0.10, 0.50, 0.60},   // ~16.7% bad * 0.6.
      {"moderate bursts", 0.02, 0.10, 0.60},        // Same avg, longer.
      {"long fades", 0.005, 0.025, 0.60},           // Multi-packet fades.
  };
  const Protocol protocols[] = {Protocol::kFmtcp, Protocol::kMptcp};

  std::vector<CellResult> results(std::size(shapes) * std::size(protocols));
  const auto cell = [&](std::size_t i) {
    results[i] =
        run_cell(shapes[i / std::size(protocols)], protocols[i % 2]);
  };
  if (jobs <= 1) {
    for (std::size_t i = 0; i < results.size(); ++i) cell(i);
  } else {
    ThreadPool pool(std::min<unsigned>(
        jobs, static_cast<unsigned>(results.size())));
    for (std::size_t i = 0; i < results.size(); ++i) {
      pool.submit([&cell, i] { cell(i); });
    }
    pool.wait();
  }

  std::size_t i = 0;
  for (const BurstShape& shape : shapes) {
    for (Protocol protocol : protocols) {
      const CellResult& r = results[i++];
      std::printf(
          "%-22s %-11s %.3f MB/s  delay %4.0f ms  jitter %4.0f ms\n",
          shape.name, protocol_name(protocol), r.goodput, r.delay,
          r.jitter);
    }
  }
  std::printf(
      "\nLonger fades concentrate erasures inside single blocks: FMTCP "
      "needs bigger top-ups per block but never retransmits; MPTCP's\n"
      "losses compound into RTO chains on the same segments.\n");
  return 0;
}
