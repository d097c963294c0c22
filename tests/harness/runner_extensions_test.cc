// The harness must actually plumb the extension toggles through to the
// protocol stacks (a silent no-op toggle would invalidate the extension
// benches).
#include <gtest/gtest.h>

#include "harness/runner.h"

namespace fmtcp::harness {
namespace {

Scenario lossy_scenario() {
  Scenario scenario;
  scenario.duration = 20 * kSecond;
  scenario.path2 = {100.0, 0.15};
  scenario.seed = 3;
  return scenario;
}

TEST(RunnerExtensions, SackChangesMptcpBehaviour) {
  ProtocolOptions base = ProtocolOptions::defaults();
  ProtocolOptions sack = base;
  sack.sack = true;
  const RunResult without =
      run_scenario(Protocol::kMptcp, lossy_scenario(), base);
  const RunResult with =
      run_scenario(Protocol::kMptcp, lossy_scenario(), sack);
  EXPECT_NE(with.delivered_bytes, without.delivered_bytes);
  // SACK repairs holes without waiting out go-back-N rounds, so MPTCP
  // moves more data (absolute retransmission counts rise with the extra
  // traffic, so throughput is the meaningful comparison).
  EXPECT_GT(with.delivered_bytes, without.delivered_bytes);
}

// SACK is a subflow option, so it reaches the baselines too.
TEST(RunnerExtensions, SackChangesHmtpAndFixedRateBehaviour) {
  Scenario scenario = lossy_scenario();
  scenario.path2.loss = 0.10;
  ProtocolOptions base = ProtocolOptions::defaults();
  ProtocolOptions sack = base;
  sack.sack = true;
  for (const Protocol protocol : {Protocol::kHmtp, Protocol::kFixedRate}) {
    const RunResult without = run_scenario(protocol, scenario, base);
    const RunResult with = run_scenario(protocol, scenario, sack);
    EXPECT_NE(with.sim_events, without.sim_events)
        << protocol_name(protocol);
    ASSERT_EQ(with.subflows.size(), 2u);
    // The lossy subflow recovers differently.
    EXPECT_NE(with.subflows[1].segments_sent,
              without.subflows[1].segments_sent)
        << protocol_name(protocol);
    EXPECT_TRUE(with.payload_ok) << protocol_name(protocol);
  }
}

TEST(RunnerExtensions, ReinjectionToggleReachesSender) {
  ProtocolOptions base = ProtocolOptions::defaults();
  ProtocolOptions reinject = base;
  reinject.mptcp_reinjection = true;
  const RunResult without =
      run_scenario(Protocol::kMptcp, lossy_scenario(), base);
  const RunResult with =
      run_scenario(Protocol::kMptcp, lossy_scenario(), reinject);
  EXPECT_NE(with.delivered_bytes, without.delivered_bytes);
}

TEST(RunnerExtensions, DelayedAcksReduceReverseTraffic) {
  ProtocolOptions base = ProtocolOptions::defaults();
  ProtocolOptions delack = base;
  delack.delayed_acks = true;
  const RunResult without =
      run_scenario(Protocol::kFmtcp, lossy_scenario(), base);
  const RunResult with =
      run_scenario(Protocol::kFmtcp, lossy_scenario(), delack);
  // Behaviour must differ, and the protocol must still work.
  EXPECT_NE(with.delivered_bytes, without.delivered_bytes);
  EXPECT_GT(with.delivered_bytes, 0u);
  EXPECT_TRUE(with.payload_ok);
}

TEST(RunnerExtensions, SystematicCodeStillVerifies) {
  ProtocolOptions options = ProtocolOptions::defaults();
  options.fmtcp.systematic = true;
  const RunResult result =
      run_scenario(Protocol::kFmtcp, lossy_scenario(), options);
  EXPECT_GT(result.blocks_completed, 0u);
  EXPECT_TRUE(result.payload_ok);
}

TEST(RunnerExtensions, LiaToggleRuns) {
  ProtocolOptions options = ProtocolOptions::defaults();
  options.fmtcp_use_lia = true;
  options.mptcp_use_lia = true;
  EXPECT_GT(run_scenario(Protocol::kFmtcp, lossy_scenario(), options)
                .delivered_bytes,
            0u);
  EXPECT_GT(run_scenario(Protocol::kMptcp, lossy_scenario(), options)
                .delivered_bytes,
            0u);
}

TEST(RunnerExtensions, CubicToggleRuns) {
  ProtocolOptions options = ProtocolOptions::defaults();
  options.subflow.congestion = tcp::CongestionAlgo::kCubic;
  const RunResult result =
      run_scenario(Protocol::kFmtcp, lossy_scenario(), options);
  EXPECT_GT(result.delivered_bytes, 0u);
  EXPECT_TRUE(result.payload_ok);
}

}  // namespace
}  // namespace fmtcp::harness
