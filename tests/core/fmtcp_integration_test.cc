// End-to-end FMTCP connection tests over the simulated two-path topology.
#include <gtest/gtest.h>

#include "core/connection.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace fmtcp::core {
namespace {

FmtcpConnectionConfig test_config(std::uint64_t total_blocks = 0) {
  FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.symbol_header_bytes = 12;
  config.params.delta_hat = 0.05;
  config.params.max_pending_blocks = 32;
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
  config.queue_packets = 100;
  return config;
}

struct TestRun {
  sim::Simulator sim;
  net::Topology topology;
  FmtcpConnection connection;

  TestRun(std::uint64_t seed, const FmtcpConnectionConfig& config,
      double loss2, double delay2_ms = 100.0)
      : sim(seed),
        topology(sim, {path(100.0, 0.0), path(delay2_ms, loss2)}),
        connection(sim, topology, config) {
    connection.start();
  }
};

TEST(FmtcpIntegration, FiniteTransferCompletesAndVerifies) {
  TestRun run(1, test_config(/*total_blocks=*/50), 0.05);
  run.sim.run_until(60 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 50u);
  EXPECT_TRUE(run.connection.receiver().payload_verified());
  EXPECT_EQ(run.connection.sender().blocks().blocks_completed(), 50u);
}

TEST(FmtcpIntegration, OddSymbolSizeVerifies) {
  // 13 x 157-byte symbols: every block's 2041 bytes end in a partial
  // 8-byte draw, at both the sender and the verifying receiver.
  FmtcpConnectionConfig config = test_config(/*total_blocks=*/30);
  config.params.block_symbols = 13;
  config.params.symbol_bytes = 157;
  config.subflow.mss_payload = 7 * config.params.symbol_wire_bytes();
  TestRun run(5, config, 0.1);
  run.sim.run_until(60 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 30u);
  EXPECT_TRUE(run.connection.receiver().payload_verified());
}

TEST(FmtcpIntegration, BlocksDeliverInOrder) {
  TestRun run(2, test_config(30), 0.1);
  run.sim.run_until(60 * kSecond);
  // deliver_next equals the count of delivered blocks: strict order.
  EXPECT_EQ(run.connection.receiver().deliver_next(),
            run.connection.receiver().blocks_delivered());
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 30u);
}

TEST(FmtcpIntegration, LosslessPathsNoRetransmissionWaste) {
  TestRun run(3, test_config(20), 0.0);
  run.sim.run_until(30 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 20u);
  EXPECT_EQ(run.connection.subflow(0).timeouts(), 0u);
  EXPECT_EQ(run.connection.subflow(1).timeouts(), 0u);
}

TEST(FmtcpIntegration, SurvivesSeverePathTwoLoss) {
  TestRun run(4, test_config(40), 0.30);
  run.sim.run_until(120 * kSecond);
  EXPECT_EQ(run.connection.receiver().blocks_delivered(), 40u);
  EXPECT_TRUE(run.connection.receiver().payload_verified());
}

TEST(FmtcpIntegration, ContinuousStreamMakesSteadyProgress) {
  // Regression for the idle-wedge bug: under heavy path-2 loss the
  // connection must keep delivering in every window, not stall.
  TestRun run(5, test_config(0), 0.35);
  std::uint64_t last = 0;
  for (int t = 10; t <= 60; t += 10) {
    run.sim.run_until(t * kSecond);
    const std::uint64_t now = run.connection.receiver().blocks_delivered();
    EXPECT_GT(now, last) << "no progress in window ending " << t << "s";
    last = now;
  }
}

TEST(FmtcpIntegration, RedundancyStaysBounded) {
  TestRun run(6, test_config(100), 0.02);
  run.sim.run_until(120 * kSecond);
  ASSERT_EQ(run.connection.receiver().blocks_delivered(), 100u);
  const double symbols_needed = 100.0 * 16.0;
  const double symbols_sent = static_cast<double>(
      run.connection.sender().blocks().total_symbols_sent());
  // δ̂ = 0.05 with k̂ = 16 costs ~4.3/16 ≈ 27% worst case plus losses;
  // anything beyond 60% indicates an accounting bug.
  EXPECT_LT(symbols_sent / symbols_needed, 1.6);
}

TEST(FmtcpIntegration, DelayRecordedPerBlock) {
  TestRun run(7, test_config(25), 0.05);
  run.sim.run_until(60 * kSecond);
  EXPECT_EQ(run.connection.block_delays().completed_blocks(), 25u);
  EXPECT_GT(run.connection.block_delays().mean_delay_ms(), 0.0);
  // A block cannot complete faster than one path RTT (200 ms).
  for (double d : run.connection.block_delays().delays_ms_in_order()) {
    EXPECT_GE(d, 190.0);
  }
}

TEST(FmtcpIntegration, GoodputAccountsDeliveredBytes) {
  TestRun run(8, test_config(10), 0.0);
  run.sim.run_until(30 * kSecond);
  EXPECT_EQ(run.connection.goodput().total_bytes(),
            10u * test_config().params.block_bytes());
}

TEST(FmtcpIntegration, DeterministicAcrossRuns) {
  const auto run_once = [](std::uint64_t seed) {
    TestRun run(seed, test_config(0), 0.1);
    run.sim.run_until(20 * kSecond);
    return std::pair<std::uint64_t, std::uint64_t>(
        run.connection.receiver().blocks_delivered(),
        run.connection.subflow(1).segments_sent());
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(FmtcpIntegration, ReceiverBufferBounded) {
  TestRun run(9, test_config(0), 0.15);
  run.sim.run_until(60 * kSecond);
  // Buffer is bounded by the pending-block cap.
  const std::size_t cap = test_config().params.max_pending_blocks *
                          test_config().params.block_bytes() * 2;
  EXPECT_LT(run.connection.receiver().max_buffered_bytes(), cap);
  EXPECT_GT(run.connection.receiver().blocks_delivered(), 100u);
}

TEST(FmtcpIntegration, UrgentSymbolsPreferGoodPath) {
  // With a terrible path 2, nearly all symbols should flow on path 1.
  TestRun run(11, test_config(0), 0.25, /*delay2_ms=*/150.0);
  run.sim.run_until(30 * kSecond);
  EXPECT_GT(run.connection.subflow(0).segments_sent(),
            5 * run.connection.subflow(1).segments_sent());
}

}  // namespace
}  // namespace fmtcp::core
