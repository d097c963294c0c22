#include "core/connection.h"

namespace fmtcp::core {

namespace {

tcp::WiringOptions wiring_options(const FmtcpConnectionConfig& config) {
  tcp::WiringOptions options;
  options.subflow = config.subflow;
  options.subflow.observer = config.observer;
  options.receiver = config.receiver;
  options.fresh_payload_on_retransmit = true;
  options.seed_loss_hint = config.seed_loss_hint;
  return options;
}

}  // namespace

FmtcpConnection::FmtcpConnection(sim::Simulator& simulator,
                                 const FmtcpConnectionConfig& config)
    : tcp::Connection(simulator, config.goodput_bin, wiring_options(config),
                      config.use_lia),
      sender_(std::make_unique<FmtcpSender>(simulator, config.params,
                                            &delays_, config.source,
                                            config.observer)),
      receiver_(std::make_unique<FmtcpReceiver>(
          simulator, config.params, &goodput_, config.block_sink,
          config.observer)) {}

FmtcpConnection::FmtcpConnection(sim::Simulator& simulator,
                                 net::Topology& topology,
                                 const FmtcpConnectionConfig& config)
    : FmtcpConnection(simulator, config) {
  wire(topology);
}

}  // namespace fmtcp::core
