#include "mptcp/connection.h"

namespace fmtcp::mptcp {

namespace {

tcp::WiringOptions wiring_options(const MptcpConnectionConfig& config) {
  tcp::WiringOptions options;
  options.subflow = config.subflow;
  options.subflow.observer = config.observer;
  options.subflow.mss_payload = config.sender.segment_bytes;
  options.receiver = config.receiver;
  options.fresh_payload_on_retransmit = false;
  options.seed_loss_hint = config.seed_loss_hint;
  return options;
}

}  // namespace

MptcpConnection::MptcpConnection(sim::Simulator& simulator,
                                 const MptcpConnectionConfig& config)
    : tcp::Connection(simulator, config.goodput_bin, wiring_options(config),
                      config.use_lia),
      sender_(std::make_unique<MptcpSender>(simulator, config.sender,
                                            &delays_, config.observer)),
      receiver_(std::make_unique<MptcpReceiver>(
          simulator, config.receive_buffer_bytes, &goodput_)) {}

MptcpConnection::MptcpConnection(sim::Simulator& simulator,
                                 net::Topology& topology,
                                 const MptcpConnectionConfig& config)
    : MptcpConnection(simulator, config) {
  wire(topology);
}

}  // namespace fmtcp::mptcp
