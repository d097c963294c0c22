// Bulk file transfer: move a fixed-size file over two heterogeneous
// paths with each protocol and compare completion times. Uses the
// finite-transfer mode of each sender (total_blocks / total_bytes).
#include <cstdio>

#include "baselines/fixed_rate.h"
#include "baselines/hmtp.h"
#include "core/connection.h"
#include "harness/printer.h"
#include "mptcp/connection.h"
#include "net/topology.h"
#include "sim/simulator.h"

using namespace fmtcp;
using namespace fmtcp::harness;

namespace {

constexpr std::uint64_t kFileBytes = 5 * 1000 * 1000;  // 5 MB.
constexpr std::uint32_t kBlockSymbols = 64;
constexpr std::size_t kSymbolBytes = 160;
constexpr std::uint64_t kFileBlocks =
    kFileBytes / (kBlockSymbols * kSymbolBytes);

net::PathConfig make_path(double delay_ms, double loss) {
  net::PathConfig config;
  config.one_way_delay = from_seconds(delay_ms / 1e3);
  config.loss_rate = loss;
  config.bandwidth_Bps = 0.625e6;
  config.queue_packets = 100;
  return config;
}

core::FmtcpParams coded_params() {
  core::FmtcpParams params;
  params.block_symbols = kBlockSymbols;
  params.symbol_bytes = kSymbolBytes;
  params.total_blocks = kFileBlocks;
  params.max_pending_blocks = 128;
  return params;
}

tcp::SubflowConfig subflow_config() {
  tcp::SubflowConfig config;
  config.mss_payload = 7 * coded_params().symbol_wire_bytes();
  config.rtt.max_rto = 4 * kSecond;
  return config;
}

/// Runs until `done()` or the deadline; returns completion seconds or -1.
template <typename DoneFn>
double run_to_completion(sim::Simulator& simulator, DoneFn done) {
  const SimTime deadline = 600 * kSecond;
  while (simulator.now() < deadline) {
    if (done()) return to_seconds(simulator.now());
    simulator.run_until(simulator.now() + kSecond);
  }
  return -1.0;
}

}  // namespace

int main() {
  print_header("Bulk transfer: 5 MB over 100ms/clean + 100ms/10% paths");
  std::vector<std::vector<std::string>> rows;

  {
    sim::Simulator simulator(3);
    net::Topology topology(simulator,
                           {make_path(100, 0.0), make_path(100, 0.1)});
    core::FmtcpConnectionConfig config;
    config.params = coded_params();
    config.subflow = subflow_config();
    core::FmtcpConnection connection(simulator, topology, config);
    connection.start();
    const double seconds = run_to_completion(simulator, [&] {
      return connection.receiver().blocks_delivered() >= kFileBlocks;
    });
    rows.push_back({"FMTCP", fmt(seconds, 1),
                    connection.receiver().payload_verified() ? "yes" : "NO"});
  }
  {
    sim::Simulator simulator(3);
    net::Topology topology(simulator,
                           {make_path(100, 0.0), make_path(100, 0.1)});
    mptcp::MptcpConnectionConfig config;
    config.sender.segment_bytes = subflow_config().mss_payload;
    config.sender.total_bytes = kFileBytes;
    config.subflow = subflow_config();
    mptcp::MptcpConnection connection(simulator, topology, config);
    connection.start();
    const double seconds = run_to_completion(simulator, [&] {
      return connection.receiver().delivered_bytes() >= kFileBytes;
    });
    rows.push_back({"IETF-MPTCP", fmt(seconds, 1), "n/a"});
  }
  {
    sim::Simulator simulator(3);
    net::Topology topology(simulator,
                           {make_path(100, 0.0), make_path(100, 0.1)});
    baselines::HmtpConnectionConfig config;
    config.params = coded_params();
    config.subflow = subflow_config();
    baselines::HmtpConnection connection(simulator, config);
    connection.wire(topology);
    connection.start();
    const double seconds = run_to_completion(simulator, [&] {
      return connection.receiver().blocks_delivered() >= kFileBlocks;
    });
    rows.push_back({"HMTP", fmt(seconds, 1),
                    connection.receiver().payload_verified() ? "yes" : "NO"});
  }
  {
    sim::Simulator simulator(3);
    net::Topology topology(simulator,
                           {make_path(100, 0.0), make_path(100, 0.1)});
    baselines::FixedRateConnectionConfig config;
    config.params.block_symbols = kBlockSymbols;
    config.params.symbol_bytes = kSymbolBytes;
    config.params.total_blocks = kFileBlocks;
    config.params.assumed_loss = 0.02;
    config.subflow = subflow_config();
    baselines::FixedRateConnection connection(simulator, config);
    connection.wire(topology);
    connection.start();
    const double seconds = run_to_completion(simulator, [&] {
      return connection.receiver().blocks_delivered() >= kFileBlocks;
    });
    rows.push_back({"FixedRate", fmt(seconds, 1), "n/a"});
  }

  print_table({"protocol", "completion(s)", "payload verified"}, rows);
  std::printf("\n(-1 means the 600 s deadline was hit before completion "
              "- expected for HMTP's stop-and-wait.)\n");
  return 0;
}
