#include "harness/scenario.h"

#include "baselines/hmtp.h"
#include "common/check.h"
#include "core/connection.h"
#include "mptcp/connection.h"

namespace fmtcp::harness {

net::PathConfig Scenario::path_config(const PathSpec& spec) const {
  net::PathConfig config;
  config.one_way_delay = from_seconds(spec.delay_ms / 1e3);
  config.loss_rate = spec.loss;
  config.bandwidth_Bps = bandwidth_Bps;
  config.queue_packets = queue_packets;
  return config;
}

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kFmtcp:
      return "FMTCP";
    case Protocol::kMptcp:
      return "IETF-MPTCP";
    case Protocol::kHmtp:
      return "HMTP";
    case Protocol::kFixedRate:
      return "FixedRate";
  }
  return "?";
}

std::optional<Protocol> parse_protocol(const std::string& name) {
  if (name == "fmtcp") return Protocol::kFmtcp;
  if (name == "mptcp") return Protocol::kMptcp;
  if (name == "hmtp") return Protocol::kHmtp;
  if (name == "fixedrate" || name == "fixed-rate") {
    return Protocol::kFixedRate;
  }
  return std::nullopt;
}

ProtocolOptions ProtocolOptions::defaults() {
  ProtocolOptions options;

  options.fmtcp.block_symbols = 128;
  options.fmtcp.symbol_bytes = 160;
  options.fmtcp.symbol_header_bytes = 12;
  options.fmtcp.delta_hat = 0.01;
  options.fmtcp.max_pending_blocks = 64;

  options.fixed_rate.block_symbols = options.fmtcp.block_symbols;
  options.fixed_rate.symbol_bytes = options.fmtcp.symbol_bytes;
  options.fixed_rate.symbol_header_bytes =
      options.fmtcp.symbol_header_bytes;
  options.fixed_rate.assumed_loss = 0.02;
  options.fixed_rate.max_pending_blocks =
      options.fmtcp.max_pending_blocks;

  // 7 symbols of 172 wire bytes per packet.
  options.subflow.mss_payload = 7 * options.fmtcp.symbol_wire_bytes();
  // Bound exponential backoff (ns-2-style): multi-minute RTOs would park
  // segments on a dead path far longer than any experiment horizon.
  options.subflow.rtt.max_rto = 4 * kSecond;
  // ns-2-style window_ cap, sized to the per-path BDP (~104 packets at
  // 5 Mb/s x 200 ms) plus small queue headroom. Without it a sender with
  // no connection-level flow control (FMTCP) fills the drop-tail queue
  // and the self-inflicted RTT inflation distorts the delay metrics.
  options.subflow.reno.max_cwnd = 110.0;
  options.subflow.cubic.max_cwnd = 110.0;
  return options;
}

std::unique_ptr<tcp::Connection> make_connection(
    Protocol protocol, sim::Simulator& simulator,
    const ProtocolOptions& options, obs::Observer* observer) {
  tcp::SubflowConfig subflow = options.subflow;
  subflow.observer = observer;
  subflow.enable_sack = options.sack;
  switch (protocol) {
    case Protocol::kFmtcp: {
      core::FmtcpConnectionConfig config;
      config.params = options.fmtcp;
      config.subflow = subflow;
      config.receiver.delayed_acks = options.delayed_acks;
      config.use_lia = options.fmtcp_use_lia;
      config.goodput_bin = options.goodput_bin;
      config.observer = observer;
      return std::make_unique<core::FmtcpConnection>(simulator, config);
    }
    case Protocol::kMptcp: {
      mptcp::MptcpConnectionConfig config;
      config.subflow = subflow;
      config.sender.segment_bytes = options.subflow.mss_payload;
      config.sender.metric_block_bytes = options.fmtcp.block_bytes();
      config.sender.scheduler = options.mptcp_scheduler;
      config.sender.enable_reinjection = options.mptcp_reinjection;
      config.receiver.delayed_acks = options.delayed_acks;
      config.receive_buffer_bytes = options.mptcp_receive_buffer;
      config.use_lia = options.mptcp_use_lia;
      config.goodput_bin = options.goodput_bin;
      config.observer = observer;
      return std::make_unique<mptcp::MptcpConnection>(simulator, config);
    }
    // HMTP and fixed-rate take neither the delayed-ACK nor the LIA
    // option, and report through their subflows only.
    case Protocol::kHmtp:
      return std::make_unique<baselines::HmtpConnection>(
          simulator, baselines::HmtpConnectionConfig{options.fmtcp, subflow,
                                                     options.goodput_bin});
    case Protocol::kFixedRate:
      return std::make_unique<baselines::FixedRateConnection>(
          simulator, baselines::FixedRateConnectionConfig{
                         options.fixed_rate, subflow, options.goodput_bin});
  }
  FMTCP_CHECK(false && "unknown protocol");
  return nullptr;
}

}  // namespace fmtcp::harness
