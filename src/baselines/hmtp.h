// HMTP-style baseline (paper §II, [21]): fountain-coded multipath
// transport with *stop-and-wait* block progression — the sender keeps
// encoding and sending symbols of the current block on every subflow
// until the receiver's "decoded" feedback arrives, then moves to the next
// block. No completeness prediction, no EAT-based allocation; the
// redundancy and idle time this wastes is exactly what FMTCP's δ̂/EAT
// machinery removes (ablation A4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/block_manager.h"
#include "core/params.h"
#include "core/receiver.h"
#include "metrics/block_stats.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "tcp/wiring.h"

namespace fmtcp::baselines {

class HmtpSender final : public tcp::SegmentProvider {
 public:
  HmtpSender(sim::Simulator& simulator, const core::FmtcpParams& params,
             metrics::BlockDelayRecorder* delays = nullptr);

  void register_subflow(tcp::Subflow* subflow);
  void start();

  core::BlockManager& blocks() { return blocks_; }

  // --- tcp::SegmentProvider ------------------------------------------
  std::optional<tcp::SegmentContent> next_segment(
      std::uint32_t subflow) override;
  std::optional<tcp::SegmentContent> retransmit_segment(
      std::uint32_t subflow, std::uint64_t seq) override;
  void on_segment_acked(std::uint32_t subflow, std::uint64_t seq,
                        const tcp::SegmentContent& content) override;
  void on_segment_lost(std::uint32_t subflow, std::uint64_t seq,
                       const tcp::SegmentContent& content) override;
  void on_ack_info(std::uint32_t subflow, const net::Packet& ack) override;

 private:
  /// The single block currently being pushed; opens the next one when the
  /// current is confirmed decoded. Nullptr when the stream is exhausted.
  core::SenderBlock* current_block();

  /// Coalesced zero-delay re-offer of send opportunities to all subflows.
  void schedule_poke();

  sim::Simulator& simulator_;
  core::FmtcpParams params_;
  core::BlockManager blocks_;
  std::vector<tcp::Subflow*> subflows_;
  bool poke_pending_ = false;
};

struct HmtpConnectionConfig {
  core::FmtcpParams params;
  tcp::SubflowConfig subflow;
  SimTime goodput_bin = kSecond;
};

/// HMTP endpoints over tcp::Connection's subflows; the receiver is
/// FMTCP's (symbol aggregation and decode feedback are identical).
class HmtpConnection final : public tcp::Connection {
 public:
  /// Unwired: wire() or attach() the subflows, then start().
  HmtpConnection(sim::Simulator& simulator,
                 const HmtpConnectionConfig& config);

  void start() override { sender_->start(); }

  HmtpSender& sender() { return *sender_; }
  core::FmtcpReceiver& receiver() { return *receiver_; }

  std::uint64_t symbols_sent() const override {
    return sender_->blocks().total_symbols_sent();
  }
  std::uint64_t redundant_symbols() const override {
    return receiver_->redundant_symbols();
  }
  bool payload_verified() const override {
    return receiver_->payload_verified();
  }

 private:
  tcp::SegmentProvider& provider() override { return *sender_; }
  tcp::DataSink& sink() override { return *receiver_; }
  void register_subflow(tcp::Subflow* subflow) override {
    sender_->register_subflow(subflow);
  }

  std::unique_ptr<HmtpSender> sender_;
  std::unique_ptr<core::FmtcpReceiver> receiver_;
};

}  // namespace fmtcp::baselines
