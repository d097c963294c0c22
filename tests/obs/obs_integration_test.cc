// End-to-end observability: a short FMTCP run with an Observer attached
// must produce the documented metrics and timeline events, and turning
// observability on must not change protocol behaviour.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fountain/coding_field.h"
#include "harness/runner.h"
#include "obs/observer.h"

namespace fmtcp::harness {
namespace {

Scenario lossy_scenario() {
  Scenario scenario;
  scenario.path2.loss = 0.15;
  scenario.duration = 10 * kSecond;
  scenario.seed = 7;
  return scenario;
}

TEST(ObsIntegration, FmtcpRunEmitsProtocolEvents) {
  obs::Observer observer(1u << 18);  // Ring big enough for the whole run.
  Scenario scenario = lossy_scenario();
  scenario.observer = &observer;
  const RunResult result = run_scenario(Protocol::kFmtcp, scenario);
  ASSERT_GT(result.delivered_bytes, 0u);

  // The documented event families for an FMTCP run over a lossy path.
  EXPECT_GT(observer.timeline.recent(obs::EventType::kCwndChange).size(),
            0u);
  EXPECT_GT(observer.timeline.recent(obs::EventType::kBlockDecoded).size(),
            0u);
  EXPECT_GT(
      observer.timeline.recent(obs::EventType::kEatPrediction).size(), 0u);
  EXPECT_GT(observer.timeline.recent(obs::EventType::kAllocation).size(),
            0u);
  // One sim-progress record per simulated second.
  EXPECT_EQ(observer.timeline.recent(obs::EventType::kSimProgress).size(),
            10u);

  // Metrics mirror the run. Decodes can outrun sender-side completion
  // (a block completes when its decode notification is ACK-confirmed),
  // never the reverse.
  EXPECT_GT(observer.metrics.counter_value("tcp.segments_sent"), 0u);
  EXPECT_GE(observer.metrics.counter_value("fmtcp.blocks_decoded"),
            result.blocks_completed);
  EXPECT_GT(observer.metrics.counter_value("sim.events.link.deliver"), 0u);
  const std::string json = observer.metrics.to_json();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("tcp.rtt_ms"), std::string::npos);

  EXPECT_GT(result.sim_events, 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(ObsIntegration, TimelineTimestampsAreMonotone) {
  obs::Observer observer;
  Scenario scenario = lossy_scenario();
  scenario.observer = &observer;
  run_scenario(Protocol::kFmtcp, scenario);

  const std::vector<obs::TimelineEvent> events =
      observer.timeline.recent();
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t, events[i].t) << "at event " << i;
  }
}

TEST(ObsIntegration, ObserverDoesNotChangeProtocolBehaviour) {
  const RunResult plain = run_scenario(Protocol::kFmtcp, lossy_scenario());
  obs::Observer observer;
  Scenario scenario = lossy_scenario();
  scenario.observer = &observer;
  const RunResult observed = run_scenario(Protocol::kFmtcp, scenario);
  EXPECT_EQ(plain.delivered_bytes, observed.delivered_bytes);
  EXPECT_EQ(plain.blocks_completed, observed.blocks_completed);
  EXPECT_EQ(plain.sim_events, observed.sim_events);
}

TEST(ObsIntegration, MptcpRunEmitsSchedulerEvents) {
  obs::Observer observer;
  Scenario scenario = lossy_scenario();
  scenario.observer = &observer;
  run_scenario(Protocol::kMptcp, scenario);
  EXPECT_GT(
      observer.timeline.recent(obs::EventType::kSchedulerGrant).size(), 0u);
  EXPECT_GT(observer.metrics.counter_value("mptcp.scheduler_grants"), 0u);
  EXPECT_GT(observer.metrics.counter_value("tcp.segments_sent"), 0u);
}

TEST(ObsIntegration, PacketEventsCoverEveryLink) {
  obs::Observer observer(1u << 18);  // Ring big enough for the whole run.
  Scenario scenario = lossy_scenario();
  scenario.observer = &observer;
  run_scenario(Protocol::kFmtcp, scenario);
  ASSERT_LT(observer.timeline.emitted(), 1u << 18);

  // Harness link ids: 2*path forward (data), 2*path+1 reverse (ACKs).
  std::map<std::uint32_t, std::uint64_t> enqueued, delivered, channel_drops;
  for (const obs::TimelineEvent& event :
       observer.timeline.recent(obs::EventType::kPktEnqueue)) {
    ++enqueued[event.subflow];
  }
  for (const obs::TimelineEvent& event :
       observer.timeline.recent(obs::EventType::kPktDeliver)) {
    ++delivered[event.subflow];
  }
  for (const obs::TimelineEvent& event :
       observer.timeline.recent(obs::EventType::kPktChannelDrop)) {
    ++channel_drops[event.subflow];
  }
  for (std::uint32_t link = 0; link < 4; ++link) {
    EXPECT_GT(enqueued[link], 0u) << "link " << link;
    EXPECT_GT(delivered[link], 0u) << "link " << link;
  }
  EXPECT_EQ(enqueued.size(), 4u);
  // Only path 2's data direction is lossy.
  EXPECT_EQ(channel_drops.size(), 1u);
  EXPECT_GT(channel_drops[2], 0u);
  // One pkt_deliver record per link.deliver dispatch.
  EXPECT_EQ(observer.timeline.recent(obs::EventType::kPktDeliver).size(),
            observer.metrics.counter_value("sim.events.link.deliver"));
}

TEST(ObsIntegration, CodecCostCountersInBothFields) {
  for (const fountain::CodingField field :
       {fountain::CodingField::kGf2, fountain::CodingField::kGf256}) {
    obs::Observer observer;
    Scenario scenario = lossy_scenario();
    scenario.observer = &observer;
    ProtocolOptions options = ProtocolOptions::defaults();
    options.fmtcp.coding_field = field;
    run_scenario(Protocol::kFmtcp, scenario, options);
    const obs::MetricsRegistry& metrics = observer.metrics;
    const char* name = fountain::coding_field_name(field);
    const std::uint64_t decoded =
        metrics.counter_value("fmtcp.blocks_decoded");
    EXPECT_GT(decoded, 0u) << name;
    EXPECT_GT(metrics.counter_value("fountain.payload_bytes"), 0u) << name;
    EXPECT_GT(metrics.counter_value("fountain.coeff_work"), 0u) << name;
    EXPECT_EQ(metrics.counter_value("fountain.rows_composed"),
              decoded * options.fmtcp.block_symbols)
        << name;
  }
}

TEST(ObsIntegration, RtoEventsAppearUnderHeavyLoss) {
  obs::Observer observer;
  Scenario scenario;
  scenario.path1.loss = 0.3;
  scenario.path2.loss = 0.3;
  scenario.duration = 20 * kSecond;
  scenario.seed = 11;
  scenario.observer = &observer;
  run_scenario(Protocol::kFmtcp, scenario);
  EXPECT_GT(observer.metrics.counter_value("tcp.rto_fires"), 0u);
  EXPECT_GT(observer.timeline.recent(obs::EventType::kRtoFired).size(), 0u);
}

}  // namespace
}  // namespace fmtcp::harness
