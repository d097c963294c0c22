#include "net/link.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace fmtcp::net {

Link::Link(sim::Simulator& simulator, const LinkConfig& config,
           std::unique_ptr<LossModel> loss)
    : simulator_(simulator),
      config_(config),
      loss_(std::move(loss)),
      rng_(simulator.fork_rng()),
      queue_(config.queue_packets, config.queue_bytes) {
  FMTCP_CHECK(config_.bandwidth_Bps > 0);
  FMTCP_CHECK(config_.prop_delay >= 0);
}

void Link::emit(obs::EventType type, const Packet& p) const {
  if (timeline_ != nullptr) {
    timeline_->emit({type, link_id_, simulator_.now(), p.uid,
                     static_cast<double>(p.size_bytes),
                     static_cast<double>(p.seq)});
  }
}

void Link::send(Packet p) {
  ++sent_;
  if (timeline_ != nullptr) {
    emit(queue_.would_overflow(p.size_bytes) ? obs::EventType::kPktQueueDrop
                                             : obs::EventType::kPktEnqueue,
         p);
  }
  if (!queue_.push(std::move(p))) return;
  if (!busy_) start_transmission();
}

void Link::set_loss_model(std::unique_ptr<LossModel> loss) {
  loss_ = std::move(loss);
}

double Link::loss_rate() const {
  return loss_ ? loss_->current_rate(simulator_.now()) : 0.0;
}

SimTime Link::serialization_time(std::size_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) / config_.bandwidth_Bps;
  // Round up so zero-length packets still take one tick and time moves.
  return std::max<SimTime>(1, from_seconds(seconds));
}

void Link::start_transmission() {
  FMTCP_CHECK(!busy_);
  if (queue_.empty()) return;
  busy_ = true;
  Packet p = queue_.pop();
  const SimTime ser = serialization_time(p.size_bytes);
  simulator_.schedule_in(
      ser, "link.serialize", [this, p = std::move(p)]() mutable {
        busy_ = false;
        const bool dropped =
            loss_ != nullptr && loss_->should_drop(simulator_.now(), rng_);
        if (dropped) {
          ++channel_drops_;
          emit(obs::EventType::kPktChannelDrop, p);
        } else {
          SimTime delay = config_.prop_delay;
          if (config_.prop_jitter_mean > 0) {
            delay += from_seconds(rng_.exponential(
                to_seconds(config_.prop_jitter_mean)));
          }
          simulator_.schedule_in(delay, "link.deliver",
                                 [this, p = std::move(p)]() mutable {
                                   ++delivered_;
                                   emit(obs::EventType::kPktDeliver, p);
                                   FMTCP_CHECK(sink_ != nullptr);
                                   sink_(std::move(p));
                                 });
        }
        if (!queue_.empty()) start_transmission();
      });
}

}  // namespace fmtcp::net
