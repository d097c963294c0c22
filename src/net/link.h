// Unidirectional point-to-point link: serialisation + propagation + loss.
//
// A packet handed to `send()` waits in a drop-tail queue while the link is
// busy, occupies the link for size/bandwidth seconds, then — unless the
// loss model erases it — arrives at the sink after the propagation delay.
// Lost packets still consume transmission time (the erasure is on the
// channel, as on a wireless hop).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/queue.h"
#include "obs/timeline.h"
#include "sim/simulator.h"

namespace fmtcp::net {

/// Link configuration.
struct LinkConfig {
  /// Transmission rate in bytes per second (default 12.5 MB/s == 100 Mb/s).
  double bandwidth_Bps = 12.5e6;

  /// One-way propagation delay.
  SimTime prop_delay = from_ms(50);

  /// Mean of an exponentially distributed extra per-packet delay
  /// (0 = deterministic propagation). Models wireless MAC/queuing noise;
  /// note that large jitter can reorder deliveries, as real radio links
  /// do.
  SimTime prop_jitter_mean = 0;

  /// Queue capacity in packets (0 = unlimited).
  std::size_t queue_packets = 200;

  /// Queue capacity in bytes (0 = unlimited).
  std::size_t queue_bytes = 0;
};

class Link {
 public:
  using Sink = std::function<void(Packet)>;

  /// `loss` may be null (treated as lossless). The link forks its own RNG
  /// stream from the simulator at construction.
  Link(sim::Simulator& simulator, const LinkConfig& config,
       std::unique_ptr<LossModel> loss);

  /// Sets the delivery callback; must be set before the first delivery.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Hands a packet to the link. May drop on queue overflow.
  void send(Packet p);

  /// Replaces the loss model mid-run (e.g. for handover scenarios).
  void set_loss_model(std::unique_ptr<LossModel> loss);

  /// Emits this link's packet events (enqueue, queue drop, channel
  /// drop, deliver) to `timeline` (not owned; null detaches). `link_id`
  /// labels this link in the records' `sf` field.
  void set_timeline(obs::EventTimeline* timeline, std::uint32_t link_id = 0) {
    timeline_ = timeline;
    link_id_ = link_id;
  }

  /// The loss model's configured rate at the current time (0 if none).
  double loss_rate() const;

  const LinkConfig& config() const { return config_; }

  // --- Counters (diagnostics / tests) ---
  std::uint64_t sent_count() const { return sent_; }
  std::uint64_t delivered_count() const { return delivered_; }
  std::uint64_t channel_drop_count() const { return channel_drops_; }
  std::uint64_t queue_drop_count() const { return queue_.drop_count(); }

 private:
  void start_transmission();
  SimTime serialization_time(std::size_t bytes) const;
  void emit(obs::EventType type, const Packet& p) const;

  sim::Simulator& simulator_;
  LinkConfig config_;
  std::unique_ptr<LossModel> loss_;
  Rng rng_;
  DropTailQueue queue_;
  Sink sink_;
  obs::EventTimeline* timeline_ = nullptr;
  std::uint32_t link_id_ = 0;
  bool busy_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t channel_drops_ = 0;
};

}  // namespace fmtcp::net
