#include <gtest/gtest.h>

#include "harness/printer.h"
#include "harness/runner.h"
#include "harness/table1.h"

namespace fmtcp::harness {
namespace {

TEST(Table1, MatchesPaperParameters) {
  const auto& cases = table1_cases();
  ASSERT_EQ(cases.size(), 8u);
  const double delays[] = {100, 100, 100, 100, 25, 50, 100, 150};
  const double losses[] = {0.02, 0.05, 0.10, 0.15, 0.10, 0.10, 0.10, 0.10};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(cases[i].delay_ms, delays[i]) << "case " << i + 1;
    EXPECT_DOUBLE_EQ(cases[i].loss, losses[i]) << "case " << i + 1;
  }
}

TEST(Table1, ScenarioFixesSubflowOne) {
  const Scenario scenario = table1_scenario(3);
  EXPECT_DOUBLE_EQ(scenario.path1.delay_ms, 100.0);
  EXPECT_DOUBLE_EQ(scenario.path1.loss, 0.0);
  EXPECT_DOUBLE_EQ(scenario.path2.loss, 0.15);
}

TEST(Scenario, PathConfigConversion) {
  Scenario scenario;
  scenario.bandwidth_Bps = 1e6;
  scenario.queue_packets = 42;
  const net::PathConfig config = scenario.path_config({25.0, 0.07});
  EXPECT_EQ(config.one_way_delay, from_ms(25));
  EXPECT_DOUBLE_EQ(config.loss_rate, 0.07);
  EXPECT_DOUBLE_EQ(config.bandwidth_Bps, 1e6);
  EXPECT_EQ(config.queue_packets, 42u);
}

TEST(ProtocolOptions, DefaultsAreConsistent) {
  const ProtocolOptions options = ProtocolOptions::defaults();
  // MSS is a whole number of symbols (Eq. 9 constraint).
  EXPECT_EQ(options.subflow.mss_payload %
                options.fmtcp.symbol_wire_bytes(),
            0u);
  // Fixed-rate comparator uses the same geometry.
  EXPECT_EQ(options.fixed_rate.block_symbols, options.fmtcp.block_symbols);
  EXPECT_EQ(options.fixed_rate.symbol_bytes, options.fmtcp.symbol_bytes);
}

TEST(ProtocolNames, AllDistinct) {
  EXPECT_STREQ(protocol_name(Protocol::kFmtcp), "FMTCP");
  EXPECT_STREQ(protocol_name(Protocol::kMptcp), "IETF-MPTCP");
  EXPECT_STREQ(protocol_name(Protocol::kHmtp), "HMTP");
  EXPECT_STREQ(protocol_name(Protocol::kFixedRate), "FixedRate");
}

TEST(ProtocolNames, ParseCommandLineSpellings) {
  EXPECT_EQ(parse_protocol("fmtcp"), Protocol::kFmtcp);
  EXPECT_EQ(parse_protocol("mptcp"), Protocol::kMptcp);
  EXPECT_EQ(parse_protocol("hmtp"), Protocol::kHmtp);
  EXPECT_EQ(parse_protocol("fixedrate"), Protocol::kFixedRate);
  EXPECT_EQ(parse_protocol("fixed-rate"), Protocol::kFixedRate);
  EXPECT_EQ(parse_protocol("FMTCP"), std::nullopt);
  EXPECT_EQ(parse_protocol(""), std::nullopt);
}

TEST(Runner, ShortRunEveryProtocol) {
  Scenario scenario;
  scenario.duration = 5 * kSecond;
  scenario.path2 = {100.0, 0.05};
  for (Protocol protocol : {Protocol::kFmtcp, Protocol::kMptcp,
                            Protocol::kHmtp, Protocol::kFixedRate}) {
    const RunResult result = run_scenario(protocol, scenario);
    EXPECT_GT(result.delivered_bytes, 0u) << protocol_name(protocol);
    EXPECT_GT(result.goodput_MBps, 0.0) << protocol_name(protocol);
    EXPECT_TRUE(result.payload_ok) << protocol_name(protocol);
    EXPECT_EQ(result.goodput_series_MBps.size(), 5u)
        << protocol_name(protocol);
    EXPECT_EQ(result.subflows.size(), 2u) << protocol_name(protocol);
    if (protocol != Protocol::kMptcp) {
      EXPECT_GT(result.symbols_sent, 0u) << protocol_name(protocol);
    }
  }
}

TEST(Runner, LossSurgeScheduleApplies) {
  Scenario scenario;
  scenario.duration = 5 * kSecond;
  scenario.path2 = {100.0, 0.0};
  scenario.path2_loss_schedule = {{0, 0.0}, {2 * kSecond, 0.3}};
  const RunResult result = run_scenario(Protocol::kFmtcp, scenario);
  EXPECT_GT(result.delivered_bytes, 0u);
}

TEST(Runner, DeterministicForFixedSeed) {
  Scenario scenario;
  scenario.duration = 5 * kSecond;
  scenario.seed = 77;
  const RunResult a = run_scenario(Protocol::kFmtcp, scenario);
  const RunResult b = run_scenario(Protocol::kFmtcp, scenario);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.blocks_completed, b.blocks_completed);
  EXPECT_EQ(a.block_delays_ms, b.block_delays_ms);
}

TEST(Runner, CodingOverheadComputation) {
  RunResult result;
  result.blocks_completed = 10;
  result.symbols_sent = 704;  // 10 blocks * 64 symbols = 640 needed.
  EXPECT_NEAR(result.coding_overhead(64), 0.1, 1e-12);
  RunResult empty;
  EXPECT_EQ(empty.coding_overhead(64), 0.0);
}

TEST(Printer, FormatHelper) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.5, 0), "2");
}

}  // namespace
}  // namespace fmtcp::harness
