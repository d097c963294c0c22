#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeline_summary.h"

namespace fmtcp::obs {
namespace {

TimelineEvent make_event(EventType type, std::uint64_t id) {
  TimelineEvent event;
  event.type = type;
  event.subflow = 1;
  event.t = from_ms(static_cast<double>(id));
  event.id = id;
  event.a = static_cast<double>(id) * 0.5;
  event.b = 64.0;
  return event;
}

TEST(EventTimeline, RingKeepsNewestEventsOldestFirst) {
  EventTimeline timeline(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    timeline.emit(make_event(EventType::kCwndChange, i));
  }
  EXPECT_EQ(timeline.emitted(), 10u);
  const std::vector<TimelineEvent> tail = timeline.recent();
  ASSERT_EQ(tail.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].id, 6 + i);
  }
}

TEST(EventTimeline, RecentFiltersByType) {
  EventTimeline timeline;
  timeline.emit(make_event(EventType::kCwndChange, 1));
  timeline.emit(make_event(EventType::kBlockDecoded, 2));
  timeline.emit(make_event(EventType::kCwndChange, 3));
  const auto cwnd = timeline.recent(EventType::kCwndChange);
  ASSERT_EQ(cwnd.size(), 2u);
  EXPECT_EQ(cwnd[0].id, 1u);
  EXPECT_EQ(cwnd[1].id, 3u);
  EXPECT_EQ(timeline.recent(EventType::kRtoFired).size(), 0u);
}

TEST(Timeline, EveryEventTypeHasAStableName) {
  for (int i = 0; i <= static_cast<int>(EventType::kPktDeliver); ++i) {
    EXPECT_STRNE(event_type_name(static_cast<EventType>(i)), "?");
  }
}

TEST(Timeline, JsonlRoundTripsEveryField) {
  TimelineEvent event;
  event.type = EventType::kRtoFired;
  event.subflow = 2;
  event.t = from_seconds(1.25);
  event.id = 123456789ULL;
  event.a = 0.75;
  event.b = 12.5;

  TimelineEvent parsed;
  ASSERT_TRUE(parse_jsonl_line(to_jsonl(event), parsed));
  EXPECT_EQ(parsed.type, EventType::kRtoFired);
  EXPECT_EQ(parsed.subflow, 2u);
  EXPECT_NEAR(to_seconds(parsed.t), 1.25, 1e-9);
  EXPECT_EQ(parsed.id, 123456789ULL);
  EXPECT_DOUBLE_EQ(parsed.a, 0.75);
  EXPECT_DOUBLE_EQ(parsed.b, 12.5);
}

TEST(Timeline, JsonlRoundTripsEveryType) {
  for (int i = 0; i <= static_cast<int>(EventType::kPktDeliver); ++i) {
    const TimelineEvent event =
        make_event(static_cast<EventType>(i), static_cast<std::uint64_t>(i));
    TimelineEvent parsed;
    ASSERT_TRUE(parse_jsonl_line(to_jsonl(event), parsed))
        << to_jsonl(event);
    EXPECT_EQ(parsed.type, event.type);
    EXPECT_EQ(parsed.id, event.id);
  }
}

TEST(Timeline, MalformedLinesAreRejected) {
  TimelineEvent event;
  EXPECT_FALSE(parse_jsonl_line("", event));
  EXPECT_FALSE(parse_jsonl_line("not json", event));
  EXPECT_FALSE(parse_jsonl_line("{\"ev\":\"no_such_event\",\"t\":1}", event));
  EXPECT_FALSE(parse_jsonl_line("{\"ev\":\"cwnd_change\"}", event));
}

TEST(EventTimeline, JsonlFileSinkWritesOneParseableLinePerEvent) {
  const std::string path = "/tmp/fmtcp_timeline_test.jsonl";
  {
    EventTimeline timeline;
    timeline.open_jsonl(path);
    timeline.emit(make_event(EventType::kCwndChange, 0));
    timeline.emit(make_event(EventType::kBlockDecoded, 1));
    timeline.flush();
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    TimelineEvent parsed;
    while (std::getline(in, line)) {
      EXPECT_TRUE(parse_jsonl_line(line, parsed)) << line;
      ++lines;
    }
    EXPECT_EQ(lines, 2u);
  }
  std::remove(path.c_str());
}

TEST(EventTimelineDeathTest, UnwritablePathFailsLoudlyWithPath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EventTimeline timeline;
        timeline.open_jsonl("/nonexistent-dir/timeline.jsonl");
      },
      "cannot open '/nonexistent-dir/timeline.jsonl'");
}

TEST(TimelineSummary, AggregatesPerSubflowAndPerBlock) {
  std::string lines;
  lines += to_jsonl({EventType::kCwndChange, 0, from_seconds(0.1), 0, 2.0,
                     64.0}) + "\n";
  lines += to_jsonl({EventType::kCwndChange, 0, from_seconds(0.5), 0, 6.0,
                     64.0}) + "\n";
  lines += to_jsonl({EventType::kRtoFired, 1, from_seconds(1.0), 7, 0.4,
                     1.0}) + "\n";
  lines += to_jsonl({EventType::kBlockDecoded, 0, from_seconds(1.5), 3,
                     66.0, 2.0}) + "\n";
  lines += to_jsonl({EventType::kBlockDecoded, 1, from_seconds(2.0), 4,
                     70.0, 6.0}) + "\n";
  lines += to_jsonl({EventType::kEatOutcome, 1, from_seconds(2.5), 0, 2.0,
                     2.5}) + "\n";
  lines += "garbage line\n";

  std::istringstream in(lines);
  const TimelineSummary summary = summarize_timeline(in);
  EXPECT_EQ(summary.total_events, 6u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_EQ(summary.per_type.at("cwnd_change"), 2u);
  EXPECT_EQ(summary.per_subflow.at(0).cwnd_changes, 2u);
  EXPECT_EQ(summary.per_subflow.at(0).min_cwnd, 2.0);
  EXPECT_EQ(summary.per_subflow.at(0).max_cwnd, 6.0);
  EXPECT_EQ(summary.per_subflow.at(1).rto_fires, 1u);
  EXPECT_EQ(summary.blocks_decoded, 2u);
  EXPECT_DOUBLE_EQ(summary.mean_symbols_per_block, 68.0);
  EXPECT_NEAR(summary.first_decode_s, 1.5, 1e-9);
  EXPECT_NEAR(summary.last_decode_s, 2.0, 1e-9);
  EXPECT_NEAR(summary.per_subflow.at(1).mean_abs_eat_error_s, 0.5, 1e-9);
  EXPECT_NEAR(summary.first_event_s, 0.1, 1e-9);
  EXPECT_NEAR(summary.last_event_s, 2.5, 1e-9);

  const std::string report = format_timeline_summary(summary);
  EXPECT_NE(report.find("cwnd_change"), std::string::npos);
  EXPECT_NE(report.find("malformed"), std::string::npos);
  EXPECT_NE(report.find("blocks: 2 decoded"), std::string::npos);
}

TEST(TimelineSummary, AggregatesPacketEventsPerLink) {
  std::string lines;
  lines += to_jsonl({EventType::kPktEnqueue, 0, from_seconds(0.0), 1, 140.0,
                     0.0}) + "\n";
  lines += to_jsonl({EventType::kPktDeliver, 0, from_seconds(0.1), 1, 140.0,
                     0.0}) + "\n";
  lines += to_jsonl({EventType::kPktEnqueue, 0, from_seconds(0.2), 2, 140.0,
                     1.0}) + "\n";
  lines += to_jsonl({EventType::kPktChannelDrop, 0, from_seconds(0.25), 2,
                     140.0, 1.0}) + "\n";
  lines += to_jsonl({EventType::kPktQueueDrop, 0, from_seconds(0.3), 3,
                     140.0, 2.0}) + "\n";
  lines += to_jsonl({EventType::kPktEnqueue, 1, from_seconds(0.3), 4, 48.0,
                     0.0}) + "\n";
  lines += to_jsonl({EventType::kPktDeliver, 1, from_seconds(0.4), 4, 48.0,
                     0.0}) + "\n";
  lines += "{\"ev\":\"pkt_bogus\",\"t\":0.5,\"sf\":0,\"id\":5}\n";

  std::istringstream in(lines);
  const TimelineSummary summary = summarize_timeline(in);
  EXPECT_EQ(summary.total_events, 7u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_TRUE(summary.per_subflow.empty());
  ASSERT_EQ(summary.per_link.size(), 2u);

  const LinkTimelineStats& link0 = summary.per_link.at(0);
  EXPECT_EQ(link0.enqueued, 2u);
  EXPECT_EQ(link0.queue_drops, 1u);
  EXPECT_EQ(link0.channel_drops, 1u);
  EXPECT_EQ(link0.delivered, 1u);
  EXPECT_EQ(link0.delivered_bytes, 140u);
  EXPECT_DOUBLE_EQ(link0.channel_loss_rate(), 0.5);
  EXPECT_NEAR(link0.delivery_rate_Bps(), 140.0 / 0.3, 1e-6);

  const LinkTimelineStats& link1 = summary.per_link.at(1);
  EXPECT_EQ(link1.enqueued, 1u);
  EXPECT_EQ(link1.delivered, 1u);
  EXPECT_NEAR(link1.delivery_rate_Bps(), 48.0 / 0.1, 1e-6);

  const std::string report = format_timeline_summary(summary);
  EXPECT_NE(report.find("enqueued  qdrops  chdrops  delivered"),
            std::string::npos);
  EXPECT_NE(report.find("pkt_channel_drop"), std::string::npos);
}

TEST(TimelineSummary, EmptyInput) {
  std::istringstream in("");
  const TimelineSummary summary = summarize_timeline(in);
  EXPECT_EQ(summary.total_events, 0u);
  EXPECT_TRUE(summary.per_link.empty());
  EXPECT_EQ(format_timeline_summary(summary).find("per link"),
            std::string::npos);
}

TEST(Timeline, JsonEscapeHandlesSpecialsAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rhere"), "cr\\rhere");
  EXPECT_EQ(json_escape(std::string("nul\x01""byte")), "nul\\u0001byte");
  EXPECT_EQ(json_escape(""), "");
}

TEST(Timeline, JsonlLinesNeverContainRawNewlines) {
  for (int i = 0; i <= static_cast<int>(EventType::kPktDeliver); ++i) {
    const std::string line =
        to_jsonl({static_cast<EventType>(i), 0, 0, 0, 0.0, 0.0});
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

}  // namespace
}  // namespace fmtcp::obs
