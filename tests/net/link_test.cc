#include "net/link.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/timeline_summary.h"

namespace fmtcp::net {
namespace {

Packet make_packet(std::size_t size) {
  Packet p;
  p.size_bytes = size;
  p.uid = next_packet_uid();
  return p;
}

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1000.0;  // 1000 B/s.
  config.prop_delay = from_ms(50);
  Link link(sim, config, nullptr);
  SimTime arrival = -1;
  link.set_sink([&](Packet) { arrival = sim.now(); });
  link.send(make_packet(500));  // 0.5 s serialization.
  sim.run();
  EXPECT_EQ(arrival, from_ms(550));
}

TEST(Link, BackToBackPacketsQueueForSerialization) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1000.0;
  config.prop_delay = 0;
  Link link(sim, config, nullptr);
  std::vector<SimTime> arrivals;
  link.set_sink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(make_packet(1000));  // 1 s each.
  link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], kSecond);
  EXPECT_EQ(arrivals[1], 2 * kSecond);
}

TEST(Link, CertainLossDropsEverything) {
  sim::Simulator sim;
  LinkConfig config;
  Link link(sim, config,
            std::make_unique<BernoulliLoss>(1.0 - 1e-12));
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 50; ++i) link.send(make_packet(100));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.channel_drop_count(), 50u);
  EXPECT_EQ(link.sent_count(), 50u);
  EXPECT_EQ(link.delivered_count(), 0u);
}

TEST(Link, QueueOverflowDrops) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1.0;  // Glacial: everything queues.
  config.queue_packets = 3;
  Link link(sim, config, nullptr);
  link.set_sink([](Packet) {});
  for (int i = 0; i < 10; ++i) link.send(make_packet(1));
  EXPECT_EQ(link.queue_drop_count(), 6u);  // 3 queued + 1 in service.
}

TEST(Link, StatisticalLossRate) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1e9;
  config.prop_delay = 0;
  config.queue_packets = 0;
  Link link(sim, config, std::make_unique<BernoulliLoss>(0.3));
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(make_packet(10));
  sim.run();
  EXPECT_NEAR(static_cast<double>(n - delivered) / n, 0.3, 0.02);
}

TEST(Link, LossRateReporting) {
  sim::Simulator sim;
  LinkConfig config;
  Link link(sim, config, std::make_unique<BernoulliLoss>(0.12));
  EXPECT_DOUBLE_EQ(link.loss_rate(), 0.12);
  link.set_loss_model(nullptr);
  EXPECT_DOUBLE_EQ(link.loss_rate(), 0.0);
}

TEST(Link, SetLossModelMidRun) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1e9;
  config.prop_delay = 0;
  Link link(sim, config, nullptr);
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  link.send(make_packet(10));
  sim.run();
  EXPECT_EQ(delivered, 1);
  link.set_loss_model(std::make_unique<BernoulliLoss>(1.0 - 1e-12));
  link.send(make_packet(10));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, PreservesPacketContents) {
  sim::Simulator sim;
  LinkConfig config;
  Link link(sim, config, nullptr);
  Packet p = make_packet(64);
  p.seq = 77;
  p.data_seq = 123456;
  const std::uint64_t uid = p.uid;
  Packet received;
  link.set_sink([&](Packet q) { received = std::move(q); });
  link.send(std::move(p));
  sim.run();
  EXPECT_EQ(received.seq, 77u);
  EXPECT_EQ(received.data_seq, 123456u);
  EXPECT_EQ(received.uid, uid);
}

TEST(Link, LostPacketsStillConsumeBandwidth) {
  sim::Simulator sim;
  LinkConfig config;
  config.bandwidth_Bps = 1000.0;
  config.prop_delay = 0;
  Link link(sim, config,
            std::make_unique<TimeVaryingLoss>(std::vector<TimeVaryingLoss::Step>{
                {0, 1.0 - 1e-12}, {from_seconds(1.5), 0.0}}));
  std::vector<SimTime> arrivals;
  link.set_sink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(make_packet(1000));  // Transmitted [0,1), lost at 1.0.
  link.send(make_packet(1000));  // Transmitted [1,2), delivered at 2.0.
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 2 * kSecond);
}

std::uint64_t count(const obs::EventTimeline& timeline,
                    obs::EventType type) {
  return timeline.recent(type).size();
}

TEST(LinkTimeline, PacketEventCountsMatchLinkCounters) {
  sim::Simulator sim(1);
  LinkConfig config;
  config.bandwidth_Bps = 1e9;
  config.prop_delay = 0;
  config.queue_packets = 0;  // Unlimited: every send must be enqueued.
  Link link(sim, config, std::make_unique<BernoulliLoss>(0.3));
  link.set_sink([](Packet) {});
  obs::EventTimeline timeline(4096);
  link.set_timeline(&timeline, 7);

  for (int i = 0; i < 1000; ++i) link.send(make_packet(100));
  sim.run();

  EXPECT_EQ(count(timeline, obs::EventType::kPktEnqueue), 1000u);
  EXPECT_EQ(count(timeline, obs::EventType::kPktQueueDrop), 0u);
  EXPECT_EQ(count(timeline, obs::EventType::kPktChannelDrop),
            link.channel_drop_count());
  EXPECT_EQ(count(timeline, obs::EventType::kPktDeliver),
            link.delivered_count());
  EXPECT_EQ(link.delivered_count() + link.channel_drop_count(), 1000u);
  EXPECT_EQ(timeline.emitted(), 2000u);
  for (const obs::TimelineEvent& event : timeline.recent()) {
    EXPECT_EQ(event.subflow, 7u);
  }
}

TEST(LinkTimeline, QueueDropsAreEmitted) {
  sim::Simulator sim(1);
  LinkConfig config;
  config.bandwidth_Bps = 1.0;
  config.queue_packets = 2;
  Link link(sim, config, nullptr);
  link.set_sink([](Packet) {});
  obs::EventTimeline timeline;
  link.set_timeline(&timeline);
  for (int i = 0; i < 10; ++i) link.send(make_packet(1));
  EXPECT_EQ(count(timeline, obs::EventType::kPktQueueDrop), 7u);
  EXPECT_EQ(count(timeline, obs::EventType::kPktQueueDrop),
            link.queue_drop_count());
  EXPECT_EQ(count(timeline, obs::EventType::kPktEnqueue), 3u);
}

TEST(LinkTimeline, RecordsCarryLinkUidSizeAndSeq) {
  sim::Simulator sim(1);
  LinkConfig config;
  config.prop_delay = from_ms(10);
  Link link(sim, config, nullptr);
  link.set_sink([](Packet) {});
  obs::EventTimeline timeline;
  link.set_timeline(&timeline, 3);
  Packet p = make_packet(64);
  p.seq = 42;
  const std::uint64_t uid = p.uid;
  link.send(std::move(p));
  sim.run();

  const std::vector<obs::TimelineEvent> events = timeline.recent();
  ASSERT_EQ(events.size(), 2u);  // Enqueue + deliver.
  EXPECT_EQ(events[0].type, obs::EventType::kPktEnqueue);
  EXPECT_EQ(events[0].t, 0);
  EXPECT_EQ(events[1].type, obs::EventType::kPktDeliver);
  EXPECT_GT(events[1].t, from_ms(10));
  for (const obs::TimelineEvent& event : events) {
    EXPECT_EQ(event.subflow, 3u);
    EXPECT_EQ(event.id, uid);
    EXPECT_EQ(event.a, 64.0);
    EXPECT_EQ(event.b, 42.0);
  }
  EXPECT_NE(obs::to_jsonl(events[0]).find("\"ev\":\"pkt_enqueue\""),
            std::string::npos);
  EXPECT_NE(obs::to_jsonl(events[1]).find("\"ev\":\"pkt_deliver\""),
            std::string::npos);
}

TEST(LinkTimeline, NullTimelineDetaches) {
  sim::Simulator sim(1);
  LinkConfig config;
  config.bandwidth_Bps = 1e9;
  config.prop_delay = 0;
  Link link(sim, config, nullptr);
  link.set_sink([](Packet) {});
  obs::EventTimeline timeline;
  link.set_timeline(&timeline);
  link.send(make_packet(10));
  sim.run();
  const std::uint64_t before = timeline.emitted();
  EXPECT_EQ(before, 2u);
  link.set_timeline(nullptr);
  link.send(make_packet(10));
  sim.run();
  EXPECT_EQ(timeline.emitted(), before);
  EXPECT_EQ(link.delivered_count(), 2u);
}

TEST(LinkTimeline, JsonlFileSummarizesPerLink) {
  const std::string path = "/tmp/fmtcp_link_timeline_test.jsonl";
  {
    sim::Simulator sim(1);
    LinkConfig config;
    config.bandwidth_Bps = 1e9;
    config.prop_delay = from_ms(10);
    config.queue_packets = 0;
    Link link(sim, config, std::make_unique<BernoulliLoss>(0.3));
    link.set_sink([](Packet) {});
    obs::EventTimeline timeline;
    timeline.open_jsonl(path);
    link.set_timeline(&timeline, 5);
    for (int i = 0; i < 500; ++i) link.send(make_packet(100));
    sim.run();
  }
  std::ifstream in(path);
  const obs::TimelineSummary summary = obs::summarize_timeline(in);
  std::remove(path.c_str());

  EXPECT_EQ(summary.total_events, 1000u);
  EXPECT_EQ(summary.malformed_lines, 0u);
  ASSERT_EQ(summary.per_link.size(), 1u);
  const obs::LinkTimelineStats& stats = summary.per_link.at(5);
  EXPECT_EQ(stats.enqueued, 500u);
  EXPECT_EQ(stats.delivered + stats.channel_drops, 500u);
  EXPECT_EQ(stats.delivered_bytes, stats.delivered * 100);
  EXPECT_NEAR(stats.channel_loss_rate(), 0.3, 0.06);
}

}  // namespace
}  // namespace fmtcp::net
