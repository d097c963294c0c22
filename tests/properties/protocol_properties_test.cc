// Protocol-level property sweeps: for every (loss, delay) combination the
// transport invariants must hold — reliable, in-order, verified delivery.
#include <gtest/gtest.h>

#include <tuple>

#include "core/connection.h"
#include "mptcp/connection.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace fmtcp {
namespace {

using PathParam = std::tuple<double /*loss2*/, double /*delay2_ms*/,
                             std::uint64_t /*seed*/>;

net::PathConfig make_path(double delay_ms, double loss) {
  net::PathConfig config;
  config.one_way_delay = from_seconds(delay_ms / 1e3);
  config.loss_rate = loss;
  config.bandwidth_Bps = 0.625e6;
  config.queue_packets = 100;
  return config;
}

class FmtcpPathSweep : public ::testing::TestWithParam<PathParam> {};

TEST_P(FmtcpPathSweep, DeliversAllBlocksInOrderVerified) {
  const auto [loss2, delay2, seed] = GetParam();
  sim::Simulator sim(seed);
  net::Topology topology(
      sim, {make_path(100.0, 0.0), make_path(delay2, loss2)});

  core::FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = 30;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;

  core::FmtcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);

  EXPECT_EQ(connection.receiver().blocks_delivered(), 30u);
  EXPECT_EQ(connection.receiver().deliver_next(), 30u);
  EXPECT_TRUE(connection.receiver().payload_verified());
  EXPECT_EQ(connection.sender().blocks().blocks_completed(), 30u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FmtcpPathSweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.15, 0.30),
                       ::testing::Values(25.0, 100.0, 150.0),
                       ::testing::Values(1u, 2u)));

class MptcpPathSweep : public ::testing::TestWithParam<PathParam> {};

TEST_P(MptcpPathSweep, DeliversExactInOrderBytes) {
  const auto [loss2, delay2, seed] = GetParam();
  sim::Simulator sim(seed);
  net::Topology topology(
      sim, {make_path(100.0, 0.0), make_path(delay2, loss2)});

  mptcp::MptcpConnectionConfig config;
  config.sender.segment_bytes = 1000;
  config.sender.total_bytes = 50000;
  config.receive_buffer_bytes = 64 * 1024;
  config.subflow.rtt.max_rto = 4 * kSecond;

  mptcp::MptcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);

  EXPECT_EQ(connection.receiver().delivered_bytes(), 50000u);
  EXPECT_EQ(connection.receiver().rcv_data_next(), 50000u);
  EXPECT_EQ(connection.sender().data_acked(), 50000u);
  EXPECT_LE(connection.receiver().max_out_of_order_bytes(), 64u * 1024u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MptcpPathSweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.15, 0.30),
                       ::testing::Values(25.0, 100.0, 150.0),
                       ::testing::Values(1u, 2u)));

/// Both paths lossy — no clean path to hide behind.
class FmtcpBothLossySweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(FmtcpBothLossySweep, StillReliable) {
  const auto [loss, seed] = GetParam();
  sim::Simulator sim(seed);
  net::Topology topology(
      sim, {make_path(100.0, loss), make_path(100.0, loss)});

  core::FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = 20;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;

  core::FmtcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(240 * kSecond);

  EXPECT_EQ(connection.receiver().blocks_delivered(), 20u);
  EXPECT_TRUE(connection.receiver().payload_verified());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FmtcpBothLossySweep,
    ::testing::Combine(::testing::Values(0.05, 0.20), ::testing::Values(3u)));

/// The paper evaluates two paths, but nothing in FMTCP is two-path
/// specific: the connection must work unchanged over N disjoint paths.
class FmtcpManyPathsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FmtcpManyPathsSweep, DeliversOverNPaths) {
  const std::size_t paths = GetParam();
  sim::Simulator sim(17);
  std::vector<net::PathConfig> configs;
  for (std::size_t i = 0; i < paths; ++i) {
    configs.push_back(
        make_path(50.0 + 30.0 * static_cast<double>(i),
                  0.04 * static_cast<double>(i)));
  }
  net::Topology topology(sim, configs);

  core::FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = 40;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;

  core::FmtcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(120 * kSecond);

  EXPECT_EQ(connection.receiver().blocks_delivered(), 40u);
  EXPECT_TRUE(connection.receiver().payload_verified());
  // Every subflow carried something.
  for (std::size_t i = 0; i < paths; ++i) {
    EXPECT_GT(connection.subflow(i).segments_sent(), 0u) << "subflow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, FmtcpManyPathsSweep,
                         ::testing::Values(1u, 3u, 4u));

TEST(FmtcpBurstyLoss, SurvivesGilbertElliottChannel) {
  sim::Simulator sim(23);
  net::Topology topology(sim, {make_path(100.0, 0.0), make_path(100.0, 0.0)});
  net::GilbertElliottLoss::Config ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.2;
  ge.loss_bad = 0.6;
  topology.path(1).set_forward_loss(
      std::make_unique<net::GilbertElliottLoss>(ge));

  core::FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = 30;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;

  core::FmtcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);
  EXPECT_EQ(connection.receiver().blocks_delivered(), 30u);
  EXPECT_TRUE(connection.receiver().payload_verified());
}

/// ACK-path (reverse) loss: cumulative ACKs make individual ACK losses
/// harmless; both protocols must stay fully reliable.
class AckLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(AckLossSweep, FmtcpReliableUnderAckLoss) {
  const double ack_loss = GetParam();
  sim::Simulator sim(31);
  net::PathConfig path1 = make_path(100.0, 0.0);
  path1.ack_loss_rate = ack_loss;
  net::PathConfig path2 = make_path(100.0, 0.05);
  path2.ack_loss_rate = ack_loss;
  net::Topology topology(sim, {path1, path2});

  core::FmtcpConnectionConfig config;
  config.params.block_symbols = 16;
  config.params.symbol_bytes = 64;
  config.params.total_blocks = 25;
  config.subflow.mss_payload = 8 * config.params.symbol_wire_bytes();
  config.subflow.rtt.max_rto = 4 * kSecond;
  core::FmtcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);
  EXPECT_EQ(connection.receiver().blocks_delivered(), 25u);
  EXPECT_TRUE(connection.receiver().payload_verified());
}

TEST_P(AckLossSweep, MptcpReliableUnderAckLoss) {
  const double ack_loss = GetParam();
  sim::Simulator sim(37);
  net::PathConfig path1 = make_path(100.0, 0.0);
  path1.ack_loss_rate = ack_loss;
  net::PathConfig path2 = make_path(100.0, 0.05);
  path2.ack_loss_rate = ack_loss;
  net::Topology topology(sim, {path1, path2});

  mptcp::MptcpConnectionConfig config;
  config.sender.segment_bytes = 1000;
  config.sender.total_bytes = 40000;
  config.subflow.rtt.max_rto = 4 * kSecond;
  mptcp::MptcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);
  EXPECT_EQ(connection.receiver().delivered_bytes(), 40000u);
}

INSTANTIATE_TEST_SUITE_P(Rates, AckLossSweep,
                         ::testing::Values(0.05, 0.20));

TEST(MptcpBurstyLoss, SurvivesGilbertElliottChannel) {
  sim::Simulator sim(29);
  net::Topology topology(sim, {make_path(100.0, 0.0), make_path(100.0, 0.0)});
  net::GilbertElliottLoss::Config ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.2;
  ge.loss_bad = 0.6;
  topology.path(1).set_forward_loss(
      std::make_unique<net::GilbertElliottLoss>(ge));

  mptcp::MptcpConnectionConfig config;
  config.sender.segment_bytes = 1000;
  config.sender.total_bytes = 50000;
  config.subflow.rtt.max_rto = 4 * kSecond;

  mptcp::MptcpConnection connection(sim, topology, config);
  connection.start();
  sim.run_until(180 * kSecond);
  EXPECT_EQ(connection.receiver().delivered_bytes(), 50000u);
}

}  // namespace
}  // namespace fmtcp
