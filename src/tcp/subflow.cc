#include "tcp/subflow.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace fmtcp::tcp {

namespace {
/// Wire bytes charged per block-ACK entry piggybacked on an ACK.
constexpr std::size_t kBlockAckBytes = 8;
}  // namespace

namespace {

std::unique_ptr<CongestionControl> make_default_cc(
    sim::Simulator& simulator, const SubflowConfig& config) {
  if (config.congestion == CongestionAlgo::kCubic) {
    return std::make_unique<CubicCc>(
        [&simulator] { return simulator.now(); }, config.cubic);
  }
  return std::make_unique<RenoCc>(config.reno);
}

}  // namespace

Subflow::Subflow(sim::Simulator& simulator, const SubflowConfig& config,
                 net::Link& out, SegmentProvider& provider,
                 std::unique_ptr<CongestionControl> cc)
    : simulator_(simulator),
      config_(config),
      out_(out),
      provider_(provider),
      cc_(cc ? std::move(cc) : make_default_cc(simulator, config)),
      rtt_(config.rtt),
      rto_timer_(simulator, [this] { on_rto(); }),
      obs_(config.observer) {
  FMTCP_CHECK(config_.mss_payload > 0);
  if (obs_ != nullptr) {
    obs_segments_ = obs_->metrics.counter("tcp.segments_sent");
    obs_retransmissions_ = obs_->metrics.counter("tcp.retransmissions");
    obs_rtos_ = obs_->metrics.counter("tcp.rto_fires");
    obs_fast_retransmits_ = obs_->metrics.counter("tcp.fast_retransmits");
    obs_rtt_ms_ = obs_->metrics.histogram(
        "tcp.rtt_ms",
        {50, 100, 150, 200, 250, 300, 400, 600, 800, 1200, 1600, 3200});
    note_cwnd(/*force=*/true);  // Record the initial window.
  }
}

void Subflow::note_cwnd(bool force) {
  if (obs_ == nullptr) return;
  const double cwnd = cc_->cwnd();
  if (!force && std::abs(cwnd - last_emitted_cwnd_) < 1.0) return;
  last_emitted_cwnd_ = cwnd;
  obs_->timeline.emit({obs::EventType::kCwndChange, config_.id,
                       simulator_.now(), 0, cwnd, cc_->ssthresh()});
}

std::uint64_t Subflow::window_space() const {
  const auto inflation =
      in_recovery_ ? static_cast<std::uint64_t>(dup_acks_) : 0;
  const auto window = static_cast<std::uint64_t>(cc_->cwnd()) + inflation;
  // SACKed segments have left the network: exclude them from the pipe.
  std::uint64_t flight = in_flight();
  flight -= std::min<std::uint64_t>(flight, sacked_.size());
  return window > flight ? window - flight : 0;
}

SimTime Subflow::srtt() const {
  // Before the first sample, fall back to the configured initial RTO as a
  // conservative RTT surrogate so EDT/EAT stay meaningful at startup.
  return rtt_.has_sample() ? rtt_.srtt() : rtt_.config().initial_rto;
}

void Subflow::set_loss_hint(double p) {
  FMTCP_CHECK(p >= 0.0 && p <= 1.0);
  loss_est_ = p;
}

SimTime Subflow::time_since_first_unacked() const {
  const auto it = outstanding_.find(snd_una_);
  if (it == outstanding_.end()) return 0;
  return simulator_.now() - it->second.last_sent;
}

SimTime Subflow::expected_rt() const {
  const double p = std::min(loss_est_, 0.99);
  return static_cast<SimTime>((1.0 - p) * static_cast<double>(srtt()) +
                              p * static_cast<double>(rto()));
}

SimTime Subflow::expected_edt() const {
  const double p = std::min(loss_est_, 0.99);
  const double expected_retx =
      p / (1.0 - p) * static_cast<double>(rto());
  return static_cast<SimTime>(static_cast<double>(srtt()) / 2.0 +
                              expected_retx);
}

SimTime Subflow::expected_arrival_time() const {
  const SimTime edt = expected_edt();
  if (window_space() > 0) return edt;
  const SimTime eat = edt + expected_rt() - time_since_first_unacked();
  return std::max(edt, eat);
}

void Subflow::note_acked_for_loss_est() {
  loss_est_ *= (1.0 - config_.loss_ewma_alpha);
}

void Subflow::note_lost_for_loss_est() {
  loss_est_ =
      loss_est_ * (1.0 - config_.loss_ewma_alpha) + config_.loss_ewma_alpha;
}

void Subflow::on_ack_packet(net::Packet ack) {
  FMTCP_CHECK(ack.kind == net::PacketKind::kAck);

  // Upper-layer feedback first (block ACKs / data ACK / window) so the
  // provider sees fresh state before we pull segments below.
  provider_.on_ack_info(config_.id, ack);

  if (ack.echo_sent_at > 0) {
    const SimTime sample = simulator_.now() - ack.echo_sent_at;
    rtt_.add_sample(sample);
    obs_rtt_ms_.observe(to_ms(sample));
    if (auto* lia = dynamic_cast<LiaCc*>(cc_.get())) {
      lia->set_rtt(rtt_.srtt());
    }
  }

  if (config_.enable_sack) absorb_sack_ranges(ack);

  if (ack.ack_next > snd_una_) {
    const std::uint64_t newly = ack.ack_next - snd_una_;
    for (std::uint64_t seq = snd_una_; seq < ack.ack_next; ++seq) {
      auto it = outstanding_.find(seq);
      if (it != outstanding_.end()) {
        provider_.on_segment_acked(config_.id, seq, it->second.content);
        outstanding_.erase(it);
      }
      note_acked_for_loss_est();
    }
    snd_una_ = ack.ack_next;
    sacked_.erase(sacked_.begin(), sacked_.lower_bound(snd_una_));

    if (in_recovery_) {
      if (snd_una_ >= recover_seq_) {
        in_recovery_ = false;
        dup_acks_ = 0;
      } else {
        // NewReno partial ACK: retransmit the next hole, stay in
        // recovery, no further window reduction. (With SACK the
        // scoreboard pass below picks the holes instead.)
        dup_acks_ = 0;
        if (!config_.enable_sack && outstanding_.count(snd_una_) != 0) {
          retransmit(snd_una_);
        }
      }
    } else {
      dup_acks_ = 0;
      cc_->on_ack(newly);
      note_cwnd(/*force=*/false);
    }

    if (gbn_active_) {
      gbn_next_ = std::max(gbn_next_, snd_una_);
      if (snd_una_ >= gbn_limit_) gbn_active_ = false;
    }

    if (outstanding_.empty()) {
      rto_timer_.cancel();
    } else {
      rto_timer_.schedule(rto());
    }
  } else if (ack.ack_next == snd_una_ && !outstanding_.empty() &&
             !config_.enable_sack) {
    ++dup_acks_;
    if (dup_acks_ == config_.dupack_threshold && !in_recovery_) {
      in_recovery_ = true;
      recover_seq_ = snd_next_;
      cc_->on_fast_retransmit();
      ++fast_retransmits_;
      obs_fast_retransmits_.inc();
      if (obs_ != nullptr) {
        obs_->timeline.emit({obs::EventType::kFastRetransmit, config_.id,
                             simulator_.now(), snd_una_, cc_->cwnd(),
                             cc_->ssthresh()});
      }
      note_cwnd(/*force=*/true);
      if (outstanding_.count(snd_una_) != 0) retransmit(snd_una_);
    }
  }

  if (config_.enable_sack) sack_retransmit_holes();

  try_send();
}

void Subflow::notify_send_opportunity() { try_send(); }

void Subflow::try_send() {
  if (in_try_send_) return;  // Guard against provider-triggered re-entry.
  in_try_send_ = true;

  // Go-back-N resend after a timeout takes priority over new data, as in
  // classic TCP: everything past snd_una is resent as the window reopens.
  // Segments the SACK scoreboard knows arrived are skipped.
  while (gbn_active_ && window_space() > 0) {
    auto it = outstanding_.lower_bound(gbn_next_);
    while (it != outstanding_.end() && it->first < gbn_limit_ &&
           sacked_.count(it->first) != 0) {
      ++it;
    }
    if (it == outstanding_.end() || it->first >= gbn_limit_) {
      gbn_active_ = false;
      break;
    }
    const std::uint64_t seq = it->first;
    retransmit(seq);
    gbn_next_ = seq + 1;
  }

  while (window_space() > 0) {
    std::optional<SegmentContent> content =
        provider_.next_segment(config_.id);
    if (!content.has_value()) break;
    send_new_segment(std::move(*content));
  }

  in_try_send_ = false;
}

net::Packet Subflow::build_packet(std::uint64_t seq,
                                  SegmentContent& content) {
  net::Packet p;
  p.kind = net::PacketKind::kData;
  p.subflow = config_.id;
  p.flow_tag = config_.flow_tag;
  p.seq = seq;
  p.data_seq = content.data_seq;
  p.data_len = content.data_len;
  if (config_.fresh_payload_on_retransmit) {
    // Coded protocols never resend stored payload bytes, so the symbol
    // rows travel by move; only coefficient metadata stays behind for
    // ACK/loss accounting.
    p.symbols.reserve(content.symbols.size());
    for (net::EncodedSymbol& symbol : content.symbols) {
      p.symbols.push_back({symbol.block, symbol.block_symbols,
                           symbol.coeff_seed, symbol.systematic_index,
                           std::move(symbol.data)});
      symbol.data.clear();
    }
  } else {
    p.symbols = content.symbols;
  }
  net::finalize_size(p, content.payload_bytes);
  p.sent_at = simulator_.now();
  p.uid = simulator_.next_packet_uid();
  return p;
}

void Subflow::send_new_segment(SegmentContent content) {
  const std::uint64_t seq = snd_next_++;
  net::Packet p = build_packet(seq, content);
  Outstanding out;
  out.content = std::move(content);
  out.first_sent = simulator_.now();
  out.last_sent = simulator_.now();
  outstanding_.emplace(seq, std::move(out));
  ++segments_sent_;
  obs_segments_.inc();
  out_.send(std::move(p));
  arm_timer_if_needed();
}

void Subflow::arm_timer_if_needed() {
  if (!rto_timer_.pending()) rto_timer_.schedule(rto());
}

void Subflow::retransmit(std::uint64_t seq) {
  auto it = outstanding_.find(seq);
  FMTCP_CHECK(it != outstanding_.end());

  // The previous transmission of this segment is considered lost.
  provider_.on_segment_lost(config_.id, seq, it->second.content);
  note_lost_for_loss_est();

  if (config_.fresh_payload_on_retransmit) {
    // FMTCP: fill the slot with new symbols chosen by the allocator. A
    // header-only filler keeps the sequence space advancing when every
    // block is already complete.
    std::optional<SegmentContent> fresh =
        provider_.retransmit_segment(config_.id, seq);
    it->second.content = fresh.has_value() ? std::move(*fresh)
                                           : SegmentContent{};
  }

  net::Packet p = build_packet(seq, it->second.content);
  it->second.last_sent = simulator_.now();
  it->second.retransmitted = true;
  ++retransmissions_;
  obs_retransmissions_.inc();
  out_.send(std::move(p));
  rto_timer_.schedule(rto());
}

void Subflow::absorb_sack_ranges(const net::Packet& ack) {
  for (const auto& [start, end] : ack.sack_ranges) {
    const std::uint64_t lo = std::max(start, snd_una_ + 1);
    const std::uint64_t hi = std::min(end, snd_next_);
    for (std::uint64_t seq = lo; seq < hi; ++seq) {
      sacked_.insert(seq);
    }
  }
}

bool Subflow::sack_retransmit_holes() {
  if (sacked_.empty()) return false;
  const std::uint64_t highest_sacked = *sacked_.rbegin();
  bool resent = false;

  // Walk unsacked outstanding segments below the highest SACK; a segment
  // with >= dupack_threshold SACKed segments above it is deemed lost
  // (simplified RFC 6675 rule).
  auto sack_it = sacked_.begin();
  std::size_t sacked_at_or_below = 0;
  for (auto it = outstanding_.begin();
       it != outstanding_.end() && it->first < highest_sacked; ++it) {
    const std::uint64_t seq = it->first;
    if (sacked_.count(seq) != 0) continue;
    while (sack_it != sacked_.end() && *sack_it <= seq) {
      ++sack_it;
      ++sacked_at_or_below;
    }
    const std::size_t sacked_above = sacked_.size() - sacked_at_or_below;
    if (sacked_above < static_cast<std::size_t>(config_.dupack_threshold)) {
      break;  // Later segments have even fewer SACKs above them.
    }
    if (it->second.sack_retransmitted) continue;

    if (!in_recovery_) {
      in_recovery_ = true;
      recover_seq_ = snd_next_;
      cc_->on_fast_retransmit();
      ++fast_retransmits_;
      obs_fast_retransmits_.inc();
      if (obs_ != nullptr) {
        obs_->timeline.emit({obs::EventType::kFastRetransmit, config_.id,
                             simulator_.now(), seq, cc_->cwnd(),
                             cc_->ssthresh()});
      }
      note_cwnd(/*force=*/true);
    }
    if (!resent || window_space() > 0) {
      it->second.sack_retransmitted = true;
      retransmit(seq);
      resent = true;
    }
  }
  return resent;
}

void Subflow::on_rto() {
  if (outstanding_.empty()) return;
  ++timeouts_;
  obs_rtos_.inc();
  cc_->on_timeout();
  if (obs_ != nullptr) {
    obs_->timeline.emit({obs::EventType::kRtoFired, config_.id,
                         simulator_.now(), snd_una_, to_seconds(rto()),
                         cc_->cwnd()});
  }
  note_cwnd(/*force=*/true);
  rtt_.backoff();
  in_recovery_ = false;
  dup_acks_ = 0;
  gbn_active_ = true;
  gbn_limit_ = snd_next_;
  gbn_next_ = snd_una_ + 1;
  // A timeout starts a fresh recovery epoch: the SACK pass may resend.
  for (auto& [seq, outstanding] : outstanding_) {
    outstanding.sack_retransmitted = false;
  }
  retransmit(snd_una_);
  try_send();
}

SubflowReceiver::SubflowReceiver(sim::Simulator& simulator, std::uint32_t id,
                                 net::Link& ack_out, DataSink& sink,
                                 const SubflowReceiverConfig& config)
    : simulator_(simulator),
      id_(id),
      ack_out_(ack_out),
      sink_(sink),
      config_(config),
      delack_timer_(simulator, [this] { on_delack_timer(); }) {}

void SubflowReceiver::on_data_packet(net::Packet p) {
  FMTCP_CHECK(p.kind == net::PacketKind::kData);
  FMTCP_CHECK(p.subflow == id_);
  ++segments_received_;

  const bool duplicate =
      p.seq < rcv_next_ || out_of_order_.count(p.seq) != 0;
  bool in_order = false;
  if (duplicate) {
    ++duplicates_;
  } else if (p.seq == rcv_next_) {
    in_order = true;
    ++rcv_next_;
    while (out_of_order_.erase(rcv_next_) != 0) {
      ++rcv_next_;
      in_order = false;  // Filled a hole: ACK immediately.
    }
  } else {
    out_of_order_.insert(p.seq);
  }

  // Content is consumed on arrival regardless of subflow-level order:
  // FMTCP symbols are order-free, MPTCP reassembles by data_seq. The
  // sink may take the payload bytes; the metadata we ACK from remains.
  sink_.on_segment(id_, p);

  if (config_.delayed_acks && in_order && !duplicate) {
    ++unacked_in_order_;
    if (unacked_in_order_ < config_.ack_every) {
      pending_ack_for_ = std::move(p);
      ack_pending_ = true;
      if (!delack_timer_.pending()) {
        delack_timer_.schedule(config_.delack_timeout);
      }
      return;
    }
  }
  send_ack(p);
}

void SubflowReceiver::on_delack_timer() {
  if (!ack_pending_) return;
  send_ack(pending_ack_for_);
}

void SubflowReceiver::send_ack(const net::Packet& p) {
  ack_pending_ = false;
  unacked_in_order_ = 0;
  delack_timer_.cancel();

  net::Packet ack;
  ack.kind = net::PacketKind::kAck;
  ack.subflow = id_;
  ack.flow_tag = p.flow_tag;  // Echo the connection tag.
  ack.ack_next = rcv_next_;
  ack.echo_sent_at = p.sent_at;
  ack.sent_at = simulator_.now();
  ack.uid = simulator_.next_packet_uid();

  // Advertise up to four SACK ranges over the out-of-order segments
  // (senders without SACK enabled simply ignore them).
  for (auto it = out_of_order_.begin();
       it != out_of_order_.end() && ack.sack_ranges.size() < 4;) {
    const std::uint64_t start = *it;
    std::uint64_t end = start + 1;
    ++it;
    while (it != out_of_order_.end() && *it == end) {
      ++end;
      ++it;
    }
    ack.sack_ranges.emplace_back(start, end);
  }

  std::size_t extra = 0;
  sink_.fill_ack(id_, p, ack, extra);
  extra += ack.block_acks.size() * kBlockAckBytes;
  extra += ack.sack_ranges.size() * 16;  // Two 8-byte edges per range.
  net::finalize_size(ack, extra);
  ++acks_sent_;
  ack_out_.send(std::move(ack));
}

}  // namespace fmtcp::tcp
