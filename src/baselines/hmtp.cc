#include "baselines/hmtp.h"

#include <map>

#include "common/check.h"

namespace fmtcp::baselines {

HmtpSender::HmtpSender(sim::Simulator& simulator,
                       const core::FmtcpParams& params,
                       metrics::BlockDelayRecorder* delays)
    : simulator_(simulator),
      params_(params),
      blocks_(simulator, params,
              [delays](net::BlockId id, SimTime delay) {
                if (delays != nullptr) delays->record(id, delay);
              }) {}

void HmtpSender::register_subflow(tcp::Subflow* subflow) {
  FMTCP_CHECK(subflow != nullptr);
  FMTCP_CHECK(subflow->id() == subflows_.size());
  subflows_.push_back(subflow);
}

void HmtpSender::start() {
  for (tcp::Subflow* subflow : subflows_) {
    subflow->notify_send_opportunity();
  }
}

core::SenderBlock* HmtpSender::current_block() {
  // Stop-and-wait: exactly one block open at a time.
  for (core::SenderBlock& block : blocks_.open_blocks()) {
    if (!block.decoded) return &block;
  }
  if (blocks_.can_open()) {
    return &blocks_.ensure_block(blocks_.next_block_id());
  }
  return nullptr;
}

std::optional<tcp::SegmentContent> HmtpSender::next_segment(
    std::uint32_t subflow) {
  core::SenderBlock* block = current_block();
  if (block == nullptr) return std::nullopt;

  FMTCP_CHECK(subflow < subflows_.size());
  const std::size_t mss = subflows_[subflow]->mss_payload();
  const std::size_t wire = params_.symbol_wire_bytes();
  const auto count = static_cast<std::uint32_t>(mss / wire);
  if (count == 0) return std::nullopt;

  tcp::SegmentContent content;
  content.payload_bytes = count * wire;
  for (std::uint32_t i = 0; i < count; ++i) {
    content.symbols.push_back(block->encoder.next_symbol());
  }
  blocks_.on_symbols_sent(block->id, subflow, count);
  return content;
}

std::optional<tcp::SegmentContent> HmtpSender::retransmit_segment(
    std::uint32_t subflow, std::uint64_t /*seq*/) {
  return next_segment(subflow);
}

void HmtpSender::on_segment_acked(std::uint32_t subflow,
                                  std::uint64_t /*seq*/,
                                  const tcp::SegmentContent& content) {
  std::map<net::BlockId, std::uint32_t> per_block;
  for (const net::EncodedSymbol& s : content.symbols) ++per_block[s.block];
  for (const auto& [block, count] : per_block) {
    blocks_.on_symbols_acked(block, subflow, count);
  }
}

void HmtpSender::on_segment_lost(std::uint32_t subflow,
                                 std::uint64_t /*seq*/,
                                 const tcp::SegmentContent& content) {
  std::map<net::BlockId, std::uint32_t> per_block;
  for (const net::EncodedSymbol& s : content.symbols) ++per_block[s.block];
  for (const auto& [block, count] : per_block) {
    blocks_.on_symbols_lost(block, subflow, count);
  }
}

void HmtpSender::on_ack_info(std::uint32_t /*subflow*/,
                             const net::Packet& ack) {
  for (const net::BlockAck& block_ack : ack.block_acks) {
    blocks_.on_block_ack(block_ack);
  }
  schedule_poke();
}

void HmtpSender::schedule_poke() {
  if (poke_pending_) return;
  poke_pending_ = true;
  simulator_.schedule_in(0, [this] {
    poke_pending_ = false;
    for (tcp::Subflow* subflow : subflows_) {
      subflow->notify_send_opportunity();
    }
  });
}

namespace {

tcp::WiringOptions wiring_options(const HmtpConnectionConfig& config) {
  tcp::WiringOptions options;
  options.subflow = config.subflow;
  options.fresh_payload_on_retransmit = true;
  return options;
}

}  // namespace

HmtpConnection::HmtpConnection(sim::Simulator& simulator,
                               const HmtpConnectionConfig& config)
    : tcp::Connection(simulator, config.goodput_bin,
                      wiring_options(config), /*use_lia=*/false),
      sender_(std::make_unique<HmtpSender>(simulator, config.params,
                                           &delays_)),
      receiver_(std::make_unique<core::FmtcpReceiver>(
          simulator, config.params, &goodput_)) {}

}  // namespace fmtcp::baselines
