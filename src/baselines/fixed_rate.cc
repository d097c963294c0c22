#include "baselines/fixed_rate.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fmtcp::baselines {

std::uint32_t FixedRateParams::batch_size() const {
  FMTCP_CHECK(assumed_loss >= 0.0 && assumed_loss < 1.0);
  return static_cast<std::uint32_t>(std::ceil(
      static_cast<double>(block_symbols) / (1.0 - assumed_loss)));
}

FixedRateSender::FixedRateSender(sim::Simulator& simulator,
                                 const FixedRateParams& params,
                                 metrics::BlockDelayRecorder* delays)
    : simulator_(simulator), params_(params), delays_(delays) {}

void FixedRateSender::register_subflow(tcp::Subflow* subflow) {
  FMTCP_CHECK(subflow != nullptr);
  FMTCP_CHECK(subflow->id() == subflows_.size());
  subflows_.push_back(subflow);
}

void FixedRateSender::start() {
  for (tcp::Subflow* subflow : subflows_) {
    subflow->notify_send_opportunity();
  }
}

FixedRateSender::PendingBlock* FixedRateSender::sendable_block() {
  // First, any open block with authorised symbols left (id order).
  for (auto& [id, block] : pending_) {
    if (!block.decoded && block.next_symbol < block.budget) return &block;
  }
  // The oldest undecoded block may need an ARQ top-up round: its batch is
  // fully resolved (nothing in flight) yet the receiver still lacks
  // symbols. This is the fixed-rate failure mode of Eq. 5–6.
  if (!pending_.empty()) {
    PendingBlock& front = pending_.begin()->second;
    if (!front.decoded && front.in_flight == 0 &&
        front.next_symbol >= front.budget &&
        front.received < params_.block_symbols) {
      const std::uint32_t deficit = params_.block_symbols - front.received;
      const auto topup = static_cast<std::uint32_t>(std::ceil(
          static_cast<double>(deficit) / (1.0 - params_.assumed_loss)));
      front.budget += std::max<std::uint32_t>(1, topup);
      ++topup_rounds_;
      return &front;
    }
  }
  // Otherwise open a new block if the stream and the pending cap allow.
  if (pending_.size() < params_.max_pending_blocks &&
      (params_.total_blocks == 0 || next_id_ < params_.total_blocks)) {
    PendingBlock block;
    block.id = next_id_;
    block.budget = params_.batch_size();
    auto [it, inserted] = pending_.emplace(next_id_, block);
    ++next_id_;
    return &it->second;
  }
  return nullptr;
}

std::optional<tcp::SegmentContent> FixedRateSender::next_segment(
    std::uint32_t subflow) {
  PendingBlock* block = sendable_block();
  if (block == nullptr) return std::nullopt;

  FMTCP_CHECK(subflow < subflows_.size());
  const std::size_t wire = params_.symbol_wire_bytes();
  const auto per_packet = static_cast<std::uint32_t>(
      subflows_[subflow]->mss_payload() / wire);
  const std::uint32_t remaining = block->budget - block->next_symbol;
  const std::uint32_t count = std::min(per_packet, remaining);
  if (count == 0) return std::nullopt;

  tcp::SegmentContent content;
  content.payload_bytes = count * wire;
  content.symbols.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    net::EncodedSymbol symbol;
    symbol.block = block->id;
    symbol.block_symbols = params_.block_symbols;
    symbol.coeff_seed = block->next_symbol++;  // Symbol index, MDS model.
    content.symbols.push_back(symbol);
  }
  block->in_flight += count;
  symbols_sent_ += count;
  if (block->first_sent == kNever) block->first_sent = simulator_.now();
  return content;
}

std::optional<tcp::SegmentContent> FixedRateSender::retransmit_segment(
    std::uint32_t subflow, std::uint64_t /*seq*/) {
  // Retransmission slots carry whatever symbols are authorised next; if
  // none, the subflow sends a filler.
  return next_segment(subflow);
}

void FixedRateSender::account(const tcp::SegmentContent& content,
                              bool /*acked*/) {
  for (const net::EncodedSymbol& symbol : content.symbols) {
    auto it = pending_.find(symbol.block);
    if (it == pending_.end()) continue;
    if (it->second.in_flight > 0) --it->second.in_flight;
  }
}

void FixedRateSender::on_segment_acked(std::uint32_t /*subflow*/,
                                       std::uint64_t /*seq*/,
                                       const tcp::SegmentContent& content) {
  account(content, true);
  schedule_poke();
}

void FixedRateSender::on_segment_lost(std::uint32_t /*subflow*/,
                                      std::uint64_t /*seq*/,
                                      const tcp::SegmentContent& content) {
  account(content, false);
  schedule_poke();
}

void FixedRateSender::schedule_poke() {
  if (poke_pending_) return;
  poke_pending_ = true;
  simulator_.schedule_in(0, [this] {
    poke_pending_ = false;
    for (tcp::Subflow* subflow : subflows_) {
      subflow->notify_send_opportunity();
    }
  });
}

void FixedRateSender::on_ack_info(std::uint32_t /*subflow*/,
                                  const net::Packet& ack) {
  for (const net::BlockAck& block_ack : ack.block_acks) {
    auto it = pending_.find(block_ack.block);
    if (it == pending_.end()) continue;
    PendingBlock& block = it->second;
    block.received = std::max(block.received, block_ack.independent_symbols);
    if (block_ack.decoded && !block.decoded) {
      block.decoded = true;
      ++completed_;
      if (delays_ != nullptr && block.first_sent != kNever) {
        delays_->record(block.id, simulator_.now() - block.first_sent);
      }
    }
  }
  // Close decoded blocks from the front to free pending slots.
  while (!pending_.empty() && pending_.begin()->second.decoded) {
    pending_.erase(pending_.begin());
  }
  schedule_poke();
}

FixedRateReceiver::FixedRateReceiver(sim::Simulator& simulator,
                                     const FixedRateParams& params,
                                     metrics::GoodputMeter* goodput)
    : simulator_(simulator), params_(params), goodput_(goodput) {}

bool FixedRateReceiver::is_decoded(net::BlockId id) const {
  return id < deliver_next_ || decoded_waiting_.count(id) != 0;
}

void FixedRateReceiver::on_segment(std::uint32_t /*subflow*/,
                                   net::Packet& p) {
  for (const net::EncodedSymbol& symbol : p.symbols) {
    if (is_decoded(symbol.block)) {
      ++redundant_;
      continue;
    }
    std::set<std::uint64_t>& seen = received_[symbol.block];
    if (!seen.insert(symbol.coeff_seed).second) {
      ++redundant_;  // Same fixed symbol received twice.
      continue;
    }
    if (seen.size() >= params_.block_symbols) {
      decoded_waiting_.insert(symbol.block);
      recently_decoded_.push_front(symbol.block);
      if (recently_decoded_.size() > 4) recently_decoded_.pop_back();
      received_.erase(symbol.block);
      deliver_ready();
    }
  }
}

void FixedRateReceiver::deliver_ready() {
  while (decoded_waiting_.erase(deliver_next_) != 0) {
    if (goodput_ != nullptr) {
      goodput_->on_delivered(simulator_.now(), params_.block_bytes());
    }
    ++blocks_delivered_;
    ++deliver_next_;
  }
}

void FixedRateReceiver::fill_ack(std::uint32_t /*subflow*/,
                                 const net::Packet& data, net::Packet& ack,
                                 std::size_t& /*extra_bytes*/) {
  std::vector<net::BlockId>& mentioned = ack_blocks_;
  mentioned.clear();
  for (const net::EncodedSymbol& symbol : data.symbols) {
    mentioned.push_back(symbol.block);
  }
  if (!received_.empty()) mentioned.push_back(received_.begin()->first);
  for (net::BlockId id : recently_decoded_) mentioned.push_back(id);
  // One ack per block, in id order.
  std::sort(mentioned.begin(), mentioned.end());
  mentioned.erase(std::unique(mentioned.begin(), mentioned.end()),
                  mentioned.end());

  ack.block_acks.reserve(mentioned.size());
  for (net::BlockId id : mentioned) {
    net::BlockAck block_ack;
    block_ack.block = id;
    if (is_decoded(id)) {
      block_ack.independent_symbols = params_.block_symbols;
      block_ack.decoded = true;
    } else {
      const auto it = received_.find(id);
      block_ack.independent_symbols =
          it == received_.end()
              ? 0
              : static_cast<std::uint32_t>(it->second.size());
    }
    ack.block_acks.push_back(block_ack);
  }
}

namespace {

tcp::WiringOptions wiring_options(const FixedRateConnectionConfig& config) {
  tcp::WiringOptions options;
  options.subflow = config.subflow;
  options.fresh_payload_on_retransmit = true;
  return options;
}

}  // namespace

FixedRateConnection::FixedRateConnection(
    sim::Simulator& simulator, const FixedRateConnectionConfig& config)
    : tcp::Connection(simulator, config.goodput_bin,
                      wiring_options(config), /*use_lia=*/false),
      sender_(std::make_unique<FixedRateSender>(simulator, config.params,
                                                &delays_)),
      receiver_(std::make_unique<FixedRateReceiver>(
          simulator, config.params, &goodput_)) {}

}  // namespace fmtcp::baselines
