// IETF-MPTCP connection (the paper's comparison baseline).
#pragma once

#include <memory>

#include "mptcp/receiver.h"
#include "mptcp/sender.h"
#include "net/topology.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "tcp/wiring.h"

namespace fmtcp::mptcp {

struct MptcpConnectionConfig {
  MptcpSenderConfig sender;
  tcp::SubflowConfig subflow;
  /// Receiver-side subflow behaviour (delayed ACKs etc.).
  tcp::SubflowReceiverConfig receiver;
  /// Connection-level receive buffer (drives receive-window blocking).
  std::size_t receive_buffer_bytes = 128 * 1024;
  /// Couple the subflows with LIA (RFC 6356) instead of per-subflow Reno.
  bool use_lia = false;
  bool seed_loss_hint = true;
  SimTime goodput_bin = kSecond;
  /// Observability sink (not owned; null = off). Threaded into the
  /// sender and every subflow. See obs/observer.h.
  obs::Observer* observer = nullptr;
};

/// IETF-MPTCP over tcp::Connection's subflows: the data-sequence
/// sender and the reassembling receiver.
class MptcpConnection final : public tcp::Connection {
 public:
  /// Unwired: wire() or attach() the subflows, then start().
  MptcpConnection(sim::Simulator& simulator,
                  const MptcpConnectionConfig& config);
  /// One subflow per path of `topology`.
  MptcpConnection(sim::Simulator& simulator, net::Topology& topology,
                  const MptcpConnectionConfig& config);

  void start() override { sender_->start(); }

  MptcpSender& sender() { return *sender_; }
  MptcpReceiver& receiver() { return *receiver_; }

 private:
  tcp::SegmentProvider& provider() override { return *sender_; }
  tcp::DataSink& sink() override { return *receiver_; }
  void register_subflow(tcp::Subflow* subflow) override {
    sender_->register_subflow(subflow);
  }

  std::unique_ptr<MptcpSender> sender_;
  std::unique_ptr<MptcpReceiver> receiver_;
};

}  // namespace fmtcp::mptcp
