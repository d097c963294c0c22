#include "tcp/wiring.h"

#include <utility>

#include "common/check.h"

namespace fmtcp::tcp {

namespace {

/// Builds subflow `wired.subflows.size()` sending on `out` and its
/// receiver ACKing on `ack_out`, and appends both to `wired`. Routing the
/// links' packets to them is left to the caller.
void add_subflow(sim::Simulator& simulator, net::Link& out,
                 net::Link& ack_out, SegmentProvider& provider,
                 DataSink& sink, const WiringOptions& options,
                 WiredSubflows& wired) {
  SubflowConfig config = options.subflow;
  config.id = static_cast<std::uint32_t>(wired.subflows.size());
  config.fresh_payload_on_retransmit = options.fresh_payload_on_retransmit;

  std::unique_ptr<CongestionControl> cc;
  if (options.make_cc) cc = options.make_cc(config.id);

  auto subflow = std::make_unique<Subflow>(simulator, config, out, provider,
                                           std::move(cc));
  auto receiver = std::make_unique<SubflowReceiver>(
      simulator, config.id, ack_out, sink, options.receiver);
  wired.subflows.push_back(std::move(subflow));
  wired.subflow_receivers.push_back(std::move(receiver));
}

}  // namespace

WiredSubflows wire_subflows(sim::Simulator& simulator,
                            net::Topology& topology,
                            SegmentProvider& provider, DataSink& sink,
                            const WiringOptions& options) {
  WiredSubflows wired;
  for (std::size_t i = 0; i < topology.path_count(); ++i) {
    net::Path& path = topology.path(i);
    add_subflow(simulator, path.forward(), path.reverse(), provider, sink,
                options, wired);
    Subflow* subflow = wired.subflows.back().get();
    if (options.seed_loss_hint) {
      subflow->set_loss_hint(path.config().loss_rate);
    }
    path.forward().set_sink(
        [receiver = wired.subflow_receivers.back().get()](net::Packet p) {
          receiver->on_data_packet(std::move(p));
        });
    path.reverse().set_sink([subflow](net::Packet p) {
      subflow->on_ack_packet(std::move(p));
    });
  }
  return wired;
}

Connection::Connection(sim::Simulator& simulator, SimTime goodput_bin,
                       WiringOptions wiring, bool use_lia)
    : goodput_(goodput_bin),
      simulator_(simulator),
      wiring_(std::move(wiring)) {
  if (use_lia) {
    lia_group_ = std::make_unique<LiaGroup>();
    wiring_.make_cc = [this, reno = wiring_.subflow.reno](std::uint32_t) {
      return std::make_unique<LiaCc>(*lia_group_, reno);
    };
  }
}

void Connection::wire(net::Topology& topology) {
  FMTCP_CHECK(wired_.subflows.empty());
  wired_ = wire_subflows(simulator_, topology, provider(), sink(), wiring_);
  for (auto& subflow : wired_.subflows) register_subflow(subflow.get());
}

void Connection::attach(net::Link& out, net::Link& ack_out,
                        std::uint32_t flow_tag) {
  WiringOptions options = wiring_;
  options.subflow.flow_tag = flow_tag;
  add_subflow(simulator_, out, ack_out, provider(), sink(), options, wired_);
  register_subflow(wired_.subflows.back().get());
}

}  // namespace fmtcp::tcp
