#include "core/sender.h"

#include <cmath>

#include "common/check.h"

namespace fmtcp::core {

FmtcpSender::FmtcpSender(sim::Simulator& simulator, const FmtcpParams& params,
                         metrics::BlockDelayRecorder* delays,
                         BlockSource* source, obs::Observer* observer)
    : simulator_(simulator),
      params_(params),
      blocks_(
          simulator, params,
          [delays](net::BlockId id, SimTime delay) {
            if (delays != nullptr) delays->record(id, delay);
          },
          source),
      allocator_(*this, params.allocation),
      obs_(observer) {
  if (obs_ != nullptr) {
    obs_allocations_ = obs_->metrics.counter("fmtcp.allocations");
    obs_symbols_allocated_ =
        obs_->metrics.counter("fmtcp.symbols_allocated");
    obs_eat_error_ms_ = obs_->metrics.histogram(
        "fmtcp.eat_abs_error_ms",
        {10, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400});
  }
}

void FmtcpSender::register_subflow(tcp::Subflow* subflow) {
  FMTCP_CHECK(subflow != nullptr);
  FMTCP_CHECK(subflow->id() == subflows_.size());
  subflows_.push_back(subflow);
}

void FmtcpSender::start() {
  for (tcp::Subflow* subflow : subflows_) {
    subflow->notify_send_opportunity();
  }
}

double FmtcpSender::loss_of(std::uint32_t subflow) const {
  FMTCP_CHECK(subflow < subflows_.size());
  return subflows_[subflow]->loss_estimate();
}

void FmtcpSender::subflow_snapshots(
    std::vector<SubflowSnapshot>& out) const {
  out.clear();
  for (const tcp::Subflow* subflow : subflows_) {
    out.push_back(snapshot_subflow(*subflow));
  }
}

std::optional<net::BlockId> FmtcpSender::block_at(std::size_t index) const {
  // Open, not-yet-decoded blocks first, in sequence order.
  std::size_t i = 0;
  for (const SenderBlock& block : blocks_.open_blocks()) {
    if (block.decoded) continue;
    if (i == index) return block.id;
    ++i;
  }
  // Then prospective blocks the application can still supply.
  const std::uint64_t beyond = index - i;
  if (blocks_.can_open(beyond + 1)) {
    return blocks_.next_block_id() + beyond;
  }
  return std::nullopt;
}

std::uint32_t FmtcpSender::block_k_hat(net::BlockId /*block*/) const {
  return params_.block_symbols;
}

double FmtcpSender::real_k_tilde(net::BlockId id) const {
  const SenderBlock* block = blocks_.find(id);
  if (block == nullptr) return 0.0;  // Prospective block.
  return blocks_.k_tilde(*block, [this](std::uint32_t f) {
    return loss_of(f);
  });
}

tcp::SegmentContent FmtcpSender::materialize(const PacketPlan& plan,
                                             std::uint32_t subflow) {
  tcp::SegmentContent content;
  content.payload_bytes = plan.payload_bytes;
  content.symbols.reserve(plan.total_symbols());
  for (const PacketPlan::Entry& entry : plan.entries) {
    SenderBlock& block = blocks_.ensure_block(entry.block);
    for (std::uint32_t j = 0; j < entry.symbols; ++j) {
      content.symbols.push_back(block.encoder.next_symbol());
    }
    blocks_.on_symbols_sent(entry.block, subflow, entry.symbols);
  }
  return content;
}

std::optional<tcp::SegmentContent> FmtcpSender::next_segment(
    std::uint32_t subflow) {
  const PacketPlan* plan = allocator_.allocate(subflow);
  if (plan == nullptr) return std::nullopt;
  tcp::SegmentContent content = materialize(*plan, subflow);
  if (obs_ != nullptr) {
    obs_allocations_.inc();
    obs_symbols_allocated_.inc(plan->total_symbols());
    obs_->timeline.emit(
        {obs::EventType::kAllocation, subflow, simulator_.now(),
         plan->entries.empty() ? 0 : plan->entries.front().block,
         static_cast<double>(plan->total_symbols()),
         static_cast<double>(plan->entries.size())});
    // Score the EAT estimate (Eq. 11): predict this segment's arrival
    // now, check it against the cumulative ACK in on_segment_acked.
    const SimTime predicted =
        simulator_.now() + subflows_[subflow]->expected_arrival_time();
    content.predicted_arrival = predicted;
    obs_->timeline.emit({obs::EventType::kEatPrediction, subflow,
                         simulator_.now(), eat_samples_++,
                         to_seconds(predicted), 0.0});
  }
  return content;
}

std::optional<tcp::SegmentContent> FmtcpSender::retransmit_segment(
    std::uint32_t subflow, std::uint64_t /*seq*/) {
  // Fresh symbols for the retransmission slot — the FMTCP mechanism.
  return next_segment(subflow);
}

void FmtcpSender::on_segment_acked(std::uint32_t subflow,
                                   std::uint64_t /*seq*/,
                                   const tcp::SegmentContent& content) {
  blocks_.account_symbols(content.symbols, subflow, /*acked=*/true);
  if (obs_ != nullptr && content.predicted_arrival > 0) {
    // The ACK confirms arrival one reverse trip after the data landed;
    // compare prediction against the ACK time (the sender-observable
    // proxy the paper's EAT feeds back into, §IV-B).
    const SimTime actual = simulator_.now();
    obs_->timeline.emit({obs::EventType::kEatOutcome, subflow, actual, 0,
                         to_seconds(content.predicted_arrival),
                         to_seconds(actual)});
    obs_eat_error_ms_.observe(
        std::abs(to_ms(actual - content.predicted_arrival)));
  }
  schedule_poke();
}

void FmtcpSender::on_segment_lost(std::uint32_t subflow,
                                  std::uint64_t /*seq*/,
                                  const tcp::SegmentContent& content) {
  blocks_.account_symbols(content.symbols, subflow, /*acked=*/false);
  schedule_poke();
}

void FmtcpSender::on_ack_info(std::uint32_t /*subflow*/,
                              const net::Packet& ack) {
  for (const net::BlockAck& block_ack : ack.block_acks) {
    blocks_.on_block_ack(block_ack);
  }
  schedule_poke();
}

void FmtcpSender::schedule_poke() {
  if (poke_pending_) return;
  poke_pending_ = true;
  simulator_.schedule_in(0, "poke", [this] {
    poke_pending_ = false;
    for (tcp::Subflow* subflow : subflows_) {
      subflow->notify_send_opportunity();
    }
  });
}

}  // namespace fmtcp::core
