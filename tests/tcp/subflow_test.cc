#include "tcp/subflow.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "net/link.h"
#include "sim/simulator.h"

namespace fmtcp::tcp {
namespace {

/// Drops the i-th packet leaving the link (0-based) for each i in `drops`.
class ScriptedLoss final : public net::LossModel {
 public:
  explicit ScriptedLoss(std::set<std::uint64_t> drops)
      : drops_(std::move(drops)) {}
  bool should_drop(SimTime, Rng&) override {
    return drops_.count(counter_++) != 0;
  }
  double current_rate(SimTime) const override { return 0.0; }

 private:
  std::set<std::uint64_t> drops_;
  std::uint64_t counter_ = 0;
};

/// Serves `limit` segments tagged with an incrementing data_seq; fresh
/// retransmissions get new tags starting at 10000.
class FakeProvider final : public SegmentProvider {
 public:
  explicit FakeProvider(std::uint64_t limit) : limit_(limit) {}

  std::optional<SegmentContent> next_segment(std::uint32_t) override {
    if (served_ >= limit_) return std::nullopt;
    SegmentContent content;
    content.data_seq = served_++;
    content.data_len = 1;
    content.payload_bytes = 100;
    return content;
  }

  std::optional<SegmentContent> retransmit_segment(std::uint32_t,
                                                   std::uint64_t) override {
    ++retransmit_requests_;
    SegmentContent content;
    content.data_seq = 10000 + retransmit_requests_;
    content.data_len = 1;
    content.payload_bytes = 100;
    return content;
  }

  void on_segment_acked(std::uint32_t, std::uint64_t seq,
                        const SegmentContent&) override {
    acked_.push_back(seq);
  }

  void on_segment_lost(std::uint32_t, std::uint64_t seq,
                       const SegmentContent&) override {
    lost_.push_back(seq);
  }

  std::uint64_t served() const { return served_; }
  std::uint64_t retransmit_requests() const { return retransmit_requests_; }
  const std::vector<std::uint64_t>& acked() const { return acked_; }
  const std::vector<std::uint64_t>& lost() const { return lost_; }

 private:
  std::uint64_t limit_;
  std::uint64_t served_ = 0;
  std::uint64_t retransmit_requests_ = 0;
  std::vector<std::uint64_t> acked_;
  std::vector<std::uint64_t> lost_;
};

/// Records every delivered segment's data_seq tag.
class RecordingSink final : public DataSink {
 public:
  void on_segment(std::uint32_t, net::Packet& p) override {
    tags_.push_back(p.data_seq);
  }
  const std::vector<std::uint64_t>& tags() const { return tags_; }

 private:
  std::vector<std::uint64_t> tags_;
};

/// One subflow over a lossy forward link and clean reverse link.
struct Harness {
  sim::Simulator sim{7};
  net::Link forward;
  net::Link reverse;
  FakeProvider provider;
  RecordingSink sink;
  Subflow subflow;
  SubflowReceiver receiver;

  static net::LinkConfig fast_link() {
    net::LinkConfig config;
    config.bandwidth_Bps = 1e7;
    config.prop_delay = from_ms(100);
    return config;
  }

  Harness(std::uint64_t segments, std::set<std::uint64_t> forward_drops,
          bool fresh_retransmit, SubflowConfig config = {})
      : forward(sim, fast_link(),
                std::make_unique<ScriptedLoss>(std::move(forward_drops))),
        reverse(sim, fast_link(), nullptr),
        provider(segments),
        sink(),
        subflow(sim,
                [&] {
                  config.fresh_payload_on_retransmit = fresh_retransmit;
                  return config;
                }(),
                forward, provider),
        receiver(sim, 0, reverse, sink) {
    forward.set_sink(
        [this](net::Packet p) { receiver.on_data_packet(std::move(p)); });
    reverse.set_sink(
        [this](net::Packet p) { subflow.on_ack_packet(std::move(p)); });
  }

  void run(SimTime duration = 60 * kSecond) { sim.run_until(duration); }
};

TEST(Subflow, InitialWindowLimitsFlight) {
  SubflowConfig config;
  config.reno.initial_cwnd = 2.0;
  Harness h(100, {}, false, config);
  h.subflow.notify_send_opportunity();
  EXPECT_EQ(h.subflow.in_flight(), 2u);
  EXPECT_EQ(h.subflow.window_space(), 0u);
}

TEST(Subflow, LosslessTransferDeliversEverything) {
  Harness h(50, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_EQ(h.sink.tags().size(), 50u);
  EXPECT_EQ(h.subflow.in_flight(), 0u);
  EXPECT_EQ(h.provider.acked().size(), 50u);
  EXPECT_EQ(h.subflow.retransmissions(), 0u);
}

TEST(Subflow, CumulativeAckOrdersProviderEvents) {
  Harness h(20, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  for (std::size_t i = 0; i < h.provider.acked().size(); ++i) {
    EXPECT_EQ(h.provider.acked()[i], i);
  }
}

TEST(Subflow, StopsWhenProviderExhausted) {
  Harness h(5, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_EQ(h.subflow.segments_sent(), 5u);
  EXPECT_EQ(h.provider.served(), 5u);
}

TEST(Subflow, FastRetransmitOnTripleDupAck) {
  // Drop the 3rd transmission; plenty of later packets generate dupacks.
  Harness h(30, {2}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_GE(h.subflow.fast_retransmits(), 1u);
  EXPECT_EQ(h.subflow.timeouts(), 0u);
  // All 30 distinct tags eventually delivered (exactly-once content).
  std::set<std::uint64_t> tags(h.sink.tags().begin(), h.sink.tags().end());
  for (std::uint64_t i = 0; i < 30; ++i) EXPECT_TRUE(tags.count(i)) << i;
}

TEST(Subflow, OriginalPayloadModeResendsSameContent) {
  Harness h(30, {2}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_EQ(h.provider.retransmit_requests(), 0u);
  // The lost tag (2) still arrives: the stored copy was retransmitted.
  std::set<std::uint64_t> tags(h.sink.tags().begin(), h.sink.tags().end());
  EXPECT_TRUE(tags.count(2));
}

TEST(Subflow, FreshPayloadModeAsksProvider) {
  Harness h(30, {2}, true);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_GE(h.provider.retransmit_requests(), 1u);
  // The retransmission slot carried a fresh tag (>= 10000), and the
  // original tag 2 was never re-delivered.
  std::set<std::uint64_t> tags(h.sink.tags().begin(), h.sink.tags().end());
  bool fresh_seen = false;
  for (std::uint64_t tag : tags) fresh_seen = fresh_seen || tag >= 10000;
  EXPECT_TRUE(fresh_seen);
  EXPECT_EQ(tags.count(2), 0u);
}

TEST(Subflow, LossNotificationFiresOnRetransmit) {
  Harness h(30, {2}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  ASSERT_GE(h.provider.lost().size(), 1u);
  EXPECT_EQ(h.provider.lost()[0], 2u);
}

TEST(Subflow, RtoFiresWhenWindowLost) {
  // Initial window is 2; drop both first transmissions: no dupacks
  // possible, so recovery must come from the retransmission timer.
  SubflowConfig config;
  config.reno.initial_cwnd = 2.0;
  Harness h(10, {0, 1}, false, config);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_GE(h.subflow.timeouts(), 1u);
  std::set<std::uint64_t> tags(h.sink.tags().begin(), h.sink.tags().end());
  EXPECT_EQ(tags.size(), 10u);
}

TEST(Subflow, TimeoutCollapsesWindow) {
  SubflowConfig config;
  config.reno.initial_cwnd = 8.0;
  // Drop a burst so a timeout is forced.
  Harness h(8, {0, 1, 2, 3, 4, 5, 6, 7}, false, config);
  h.subflow.notify_send_opportunity();
  h.run(3 * kSecond);
  EXPECT_GE(h.subflow.timeouts(), 1u);
  EXPECT_LE(h.subflow.cwnd(), 8.0);
}

TEST(Subflow, RttEstimateConvergesToPathRtt) {
  Harness h(200, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  // Base RTT = 200 ms plus negligible serialization.
  EXPECT_NEAR(to_ms(h.subflow.srtt()), 200.0, 10.0);
}

TEST(Subflow, LossEstimateMovesOnLoss) {
  SubflowConfig config;
  config.loss_ewma_alpha = 0.2;
  Harness h(40, {2, 5, 8}, false, config);
  h.subflow.notify_send_opportunity();
  EXPECT_EQ(h.subflow.loss_estimate(), 0.0);
  h.run();
  EXPECT_GT(h.subflow.loss_estimate(), 0.0);
}

TEST(Subflow, LossHintSeedsEstimate) {
  Harness h(1, {}, false);
  h.subflow.set_loss_hint(0.25);
  EXPECT_DOUBLE_EQ(h.subflow.loss_estimate(), 0.25);
}

// A dead path's hint of 1 is accepted; the expected-time formulas
// clamp it, so EAT-driven schedulers still see finite times.
TEST(Subflow, DeadPathHintKeepsExpectedTimesFinite) {
  Harness h(50, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  h.subflow.set_loss_hint(1.0);
  EXPECT_EQ(h.subflow.loss_estimate(), 1.0);
  EXPECT_GT(h.subflow.expected_rt(), 0);
  EXPECT_LE(h.subflow.expected_rt(), h.subflow.rto());
  EXPECT_GT(h.subflow.expected_edt(), h.subflow.expected_rt());
  EXPECT_LT(h.subflow.expected_edt(), kNever);
}

TEST(Subflow, EatEqualsEdtWithWindowSpace) {
  Harness h(0, {}, false);  // Nothing to send: window stays open.
  h.subflow.notify_send_opportunity();
  EXPECT_GT(h.subflow.window_space(), 0u);
  EXPECT_EQ(h.subflow.expected_arrival_time(), h.subflow.expected_edt());
}

TEST(Subflow, EatAtLeastEdtWhenWindowFull) {
  SubflowConfig config;
  config.reno.initial_cwnd = 1.0;
  Harness h(100, {}, false, config);
  h.subflow.notify_send_opportunity();
  EXPECT_EQ(h.subflow.window_space(), 0u);
  EXPECT_GE(h.subflow.expected_arrival_time(), h.subflow.expected_edt());
}

TEST(Subflow, ExpectedRtBlendsRttAndRto) {
  Harness h(50, {}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  h.subflow.set_loss_hint(0.0);
  EXPECT_EQ(h.subflow.expected_rt(), h.subflow.srtt());
  h.subflow.set_loss_hint(0.5);
  const SimTime blended = h.subflow.expected_rt();
  EXPECT_GT(blended, h.subflow.srtt() / 2);
  EXPECT_LE(blended, h.subflow.rto());
}

TEST(Subflow, TauTracksOldestUnacked) {
  SubflowConfig config;
  config.reno.initial_cwnd = 1.0;
  Harness h(10, {}, false, config);
  h.subflow.notify_send_opportunity();
  EXPECT_EQ(h.subflow.time_since_first_unacked(), 0);
  h.sim.run_until(from_ms(50));
  EXPECT_EQ(h.subflow.time_since_first_unacked(), from_ms(50));
}

TEST(Subflow, ReceiverCountsDuplicates) {
  // Dropped ACKs cause retransmissions of data the receiver already has.
  // Scripted here instead: drop a mid-window packet, then the original
  // arrives only once but spurious timeout cases are possible; simply
  // check duplicate accounting stays consistent.
  Harness h(30, {2}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_EQ(h.receiver.segments_received(),
            h.sink.tags().size());
  EXPECT_GE(h.receiver.segments_received(), 30u);
}

TEST(Subflow, SequenceSpaceConsistency) {
  Harness h(25, {3, 7}, false);
  h.subflow.notify_send_opportunity();
  h.run();
  EXPECT_EQ(h.subflow.snd_una(), h.subflow.snd_next());
  EXPECT_EQ(h.subflow.snd_next(), 25u);
  EXPECT_EQ(h.receiver.rcv_next(), 25u);
}

}  // namespace
}  // namespace fmtcp::tcp
