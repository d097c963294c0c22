#include "baselines/hmtp.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sim/simulator.h"

namespace fmtcp::baselines {
namespace {

HmtpConnectionConfig test_config(std::uint64_t total_blocks) {
  HmtpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = total_blocks;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;
  return config;
}

net::PathConfig path(double delay_ms, double loss) {
  net::PathConfig config;
  config.one_way_delay = from_seconds(delay_ms / 1e3);
  config.loss_rate = loss;
  config.bandwidth_Bps = 0.625e6;
  return config;
}

struct TestRun {
  sim::Simulator sim;
  net::Topology topology;
  HmtpConnection connection;

  TestRun(std::uint64_t seed, const HmtpConnectionConfig& config, double loss2)
      : sim(seed),
        topology(sim, {path(100.0, 0.0), path(100.0, loss2)}),
        connection(sim, config) {
    connection.wire(topology);
    connection.start();
  }
};

TEST(Hmtp, FiniteTransferCompletesAndVerifies) {
  TestRun run(1, test_config(20), 0.05);
  run.sim.run_until(120 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 20u);
  EXPECT_TRUE(run.connection.receiver().payload_verified());
}

TEST(Hmtp, StopAndWaitGeneratesHeavyRedundancy) {
  TestRun run(2, test_config(20), 0.0);
  run.sim.run_until(120 * kSecond);
  ASSERT_EQ(run.connection.receiver().blocks_delivered(), 20u);
  // Keeps streaming until the decode confirmation returns: far more than
  // the k̂ + ~1.6 a smart sender needs.
  const double per_block =
      static_cast<double>(
          run.connection.sender().blocks().total_symbols_sent()) /
      20.0;
  EXPECT_GT(per_block, 20.0);  // k̂ = 16 => over 25% redundancy at least.
}

TEST(Hmtp, BlocksDeliverInOrder) {
  TestRun run(3, test_config(10), 0.1);
  run.sim.run_until(120 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 10u);
  EXPECT_EQ(run.connection.receiver().deliver_next(), 10u);
}

TEST(Hmtp, SurvivesLossSurges) {
  TestRun run(4, test_config(10), 0.3);
  run.sim.run_until(200 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 10u);
}

}  // namespace
}  // namespace fmtcp::baselines
