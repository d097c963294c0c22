// Shared wiring: attaches one Subflow/SubflowReceiver pair per path of a
// Topology to a SegmentProvider/DataSink pair, and the connection base
// every protocol's connection class derives from.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "metrics/block_stats.h"
#include "metrics/goodput.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"

namespace fmtcp::tcp {

struct WiredSubflows {
  std::vector<std::unique_ptr<Subflow>> subflows;
  std::vector<std::unique_ptr<SubflowReceiver>> subflow_receivers;
};

struct WiringOptions {
  /// Template; `id` and `fresh_payload_on_retransmit` are overridden.
  SubflowConfig subflow;
  /// Receiver-side behaviour (delayed ACKs etc.).
  SubflowReceiverConfig receiver;
  bool fresh_payload_on_retransmit = false;
  /// Seed each subflow's loss estimate from the path's configured rate.
  bool seed_loss_hint = true;
  /// Optional per-subflow congestion-control factory (null = Reno).
  std::function<std::unique_ptr<CongestionControl>(std::uint32_t)>
      make_cc;
};

/// Builds and connects subflows for every path; the caller registers the
/// returned subflows with its sender.
WiredSubflows wire_subflows(sim::Simulator& simulator,
                            net::Topology& topology,
                            SegmentProvider& provider, DataSink& sink,
                            const WiringOptions& options);

/// One multipath connection: a protocol's sender (the SegmentProvider)
/// and receiver (the DataSink) over a list of subflows. The base owns
/// what every protocol shares; a protocol class adds its sender and
/// receiver. The build order (sender, receiver, subflows in path order,
/// then start) fixes which RNG stream each component forks.
class Connection {
 public:
  virtual ~Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Builds one subflow per path of `topology` (wire_subflows) and
  /// registers each with the sender.
  void wire(net::Topology& topology);

  /// Builds one more subflow, sending on `out` and ACKed on `ack_out`,
  /// stamped with `flow_tag`: for connections that share links, whose
  /// packets the caller routes (harness/fairness.cc).
  void attach(net::Link& out, net::Link& ack_out, std::uint32_t flow_tag);

  /// Starts transmitting (call once, after wiring).
  virtual void start() = 0;

  std::size_t subflow_count() const { return wired_.subflows.size(); }
  Subflow& subflow(std::size_t i) { return *wired_.subflows.at(i); }
  SubflowReceiver& subflow_receiver(std::size_t i) {
    return *wired_.subflow_receivers.at(i);
  }

  const metrics::GoodputMeter& goodput() const { return goodput_; }
  const metrics::BlockDelayRecorder& block_delays() const { return delays_; }

  /// Coded symbols the sender put on the wire (0 for uncoded protocols).
  virtual std::uint64_t symbols_sent() const { return 0; }
  /// Symbols the receiver could not use (0 for uncoded protocols).
  virtual std::uint64_t redundant_symbols() const { return 0; }
  /// False once a delivered block failed byte-exact verification.
  virtual bool payload_verified() const { return true; }

 protected:
  /// `wiring` is the subflow template of wire() and attach();
  /// `use_lia` couples the subflows with LIA (RFC 6356).
  Connection(sim::Simulator& simulator, SimTime goodput_bin,
             WiringOptions wiring, bool use_lia);

  metrics::GoodputMeter goodput_;
  metrics::BlockDelayRecorder delays_;

 private:
  virtual SegmentProvider& provider() = 0;
  virtual DataSink& sink() = 0;
  /// Hands the sender its next subflow (ids count up from 0).
  virtual void register_subflow(Subflow* subflow) = 0;

  sim::Simulator& simulator_;
  WiringOptions wiring_;
  /// Declared before the subflows: their LiaCc members deregister from
  /// it on destruction.
  std::unique_ptr<LiaGroup> lia_group_;
  WiredSubflows wired_;
};

}  // namespace fmtcp::tcp
