#include "baselines/fixed_rate.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sim/simulator.h"

namespace fmtcp::baselines {
namespace {

TEST(FixedRateParams, BatchSizePerEquationFour) {
  FixedRateParams params;
  params.block_symbols = 64;
  params.assumed_loss = 0.0;
  EXPECT_EQ(params.batch_size(), 64u);
  params.assumed_loss = 0.2;
  EXPECT_EQ(params.batch_size(), 80u);  // ceil(64 / 0.8).
}

FixedRateConnectionConfig test_config(std::uint64_t total_blocks,
                                      double assumed_loss) {
  FixedRateConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.assumed_loss = assumed_loss;
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
  FixedRateConnection connection;

  TestRun(std::uint64_t seed, const FixedRateConnectionConfig& config,
      double loss1, double loss2)
      : sim(seed),
        topology(sim, {path(100.0, loss1), path(100.0, loss2)}),
        connection(sim, config) {
    connection.wire(topology);
    connection.start();
  }
};

TEST(FixedRate, TransferCompletes) {
  TestRun run(1, test_config(20, 0.05), 0.0, 0.05);
  run.sim.run_until(120 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 20u);
}

TEST(FixedRate, AccurateEstimateAvoidsTopUps) {
  // Lossless paths, assumed 0: the batch is exactly k̂ and suffices.
  TestRun run(2, test_config(20, 0.0), 0.0, 0.0);
  run.sim.run_until(60 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 20u);
  EXPECT_EQ(run.connection.sender().topup_rounds(), 0u);
  EXPECT_EQ(run.connection.sender().symbols_sent(), 20u * 16u);
}

TEST(FixedRate, UnderestimatedLossForcesTopUps) {
  // Both paths 20% lossy, assumed 2%: Eq. 6 regime — ARQ rounds needed.
  TestRun run(3, test_config(20, 0.02), 0.2, 0.2);
  run.sim.run_until(200 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 20u);
  EXPECT_GT(run.connection.sender().topup_rounds(), 0u);
}

TEST(FixedRate, OverProvisionedBatchWastesSymbols) {
  // Assumed 30% on lossless paths: ~43% extra symbols all redundant.
  TestRun run(4, test_config(10, 0.3), 0.0, 0.0);
  run.sim.run_until(60 * kSecond);
  ASSERT_EQ(run.connection.receiver().blocks_delivered(), 10u);
  EXPECT_GT(run.connection.receiver().redundant_symbols(), 0u);
}

TEST(FixedRate, DelaysRecorded) {
  TestRun run(5, test_config(10, 0.05), 0.0, 0.05);
  run.sim.run_until(60 * kSecond);
  EXPECT_EQ(run.connection.block_delays().completed_blocks(), 10u);
}

}  // namespace
}  // namespace fmtcp::baselines
