// FMTCP connection: a sender, a receiver, and one TCP subflow per
// disjoint path of a Topology.
#pragma once

#include <cstdint>
#include <memory>

#include "core/params.h"
#include "core/receiver.h"
#include "core/sender.h"
#include "net/topology.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "tcp/wiring.h"

namespace fmtcp::core {

struct FmtcpConnectionConfig {
  FmtcpParams params;
  /// Template for every subflow; `id` and `fresh_payload_on_retransmit`
  /// are overridden per subflow.
  tcp::SubflowConfig subflow;
  /// Receiver-side subflow behaviour (delayed ACKs etc.).
  tcp::SubflowReceiverConfig receiver;
  /// Couple the subflows with LIA (RFC 6356) instead of per-subflow
  /// Reno — the paper notes (§III-A) its framework can adopt any of the
  /// surveyed congestion controllers.
  bool use_lia = false;
  /// Seed each subflow's loss estimate with the path's configured rate
  /// (the paper's senders know the statistic loss probability).
  bool seed_loss_hint = true;
  /// Goodput rate-series bin width.
  SimTime goodput_bin = kSecond;
  /// Application data plumbing (not owned; null = deterministic
  /// payloads with byte-exact verification). See core/stream.h.
  BlockSource* source = nullptr;
  BlockSink* block_sink = nullptr;
  /// Observability sink (not owned; null = off). Threaded into the
  /// sender, receiver, and every subflow. See obs/observer.h.
  obs::Observer* observer = nullptr;
};

/// FMTCP over tcp::Connection's subflows: the Algorithm-1 sender and the
/// decoding receiver. The top-level public API most users touch.
class FmtcpConnection final : public tcp::Connection {
 public:
  /// Unwired: wire() or attach() the subflows, then start().
  FmtcpConnection(sim::Simulator& simulator,
                  const FmtcpConnectionConfig& config);
  /// One subflow per path of `topology`.
  FmtcpConnection(sim::Simulator& simulator, net::Topology& topology,
                  const FmtcpConnectionConfig& config);

  void start() override { sender_->start(); }

  FmtcpSender& sender() { return *sender_; }
  FmtcpReceiver& receiver() { return *receiver_; }

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

  std::unique_ptr<FmtcpSender> sender_;
  std::unique_ptr<FmtcpReceiver> receiver_;
};

}  // namespace fmtcp::core
