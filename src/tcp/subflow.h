// TCP subflow engine shared by IETF-MPTCP and FMTCP.
//
// A Subflow provides per-path TCP semantics at packet (segment)
// granularity: sequence numbers, cumulative ACKs with duplicate-ACK fast
// retransmit (NewReno-style recovery), retransmission timeout with
// exponential backoff and go-back-N resend, congestion control, RTT
// estimation, and a loss-rate estimate.
//
// The one behavioural switch between the two protocols lives here
// (`fresh_payload_on_retransmit`): IETF-MPTCP retransmits the stored
// original segment; FMTCP keeps identical congestion-control dynamics but
// fills the retransmission slot with *fresh fountain symbols* requested
// from the allocator — the paper's core mechanism (§I, §III-B).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/congestion.h"
#include "tcp/rtt_estimator.h"

namespace fmtcp::tcp {

/// Payload of one segment, protocol-agnostic: FMTCP fills `symbols`,
/// MPTCP fills the data-sequence mapping.
struct SegmentContent {
  std::vector<net::EncodedSymbol> symbols;
  std::uint64_t data_seq = 0;
  std::uint32_t data_len = 0;
  /// Wire payload bytes (excluding the kHeaderBytes header).
  std::size_t payload_bytes = 0;
  /// Absolute arrival time the provider predicted when it filled this
  /// segment (0 = no prediction). Opaque to the subflow; echoed back in
  /// on_segment_acked so providers can score their EAT estimates.
  SimTime predicted_arrival = 0;
};

/// Upper-layer interface a Subflow pulls segments from and reports
/// delivery events to. One provider typically serves all subflows of a
/// connection (it is the connection's scheduler/allocator).
class SegmentProvider {
 public:
  virtual ~SegmentProvider() = default;

  /// Returns content for a brand-new segment on `subflow`, or nullopt if
  /// the upper layer has nothing to send right now (flow control, no app
  /// data, all blocks complete, ...).
  virtual std::optional<SegmentContent> next_segment(std::uint32_t subflow) = 0;

  /// Returns *fresh* content for the retransmission slot of `seq`
  /// (FMTCP mode only). Returning nullopt sends a header-only filler so
  /// the cumulative ACK can still advance.
  virtual std::optional<SegmentContent> retransmit_segment(
      std::uint32_t subflow, std::uint64_t seq) {
    (void)subflow;
    (void)seq;
    return std::nullopt;
  }

  /// The cumulative ACK advanced over `seq`; `content` is what the
  /// segment carried (latest transmission).
  virtual void on_segment_acked(std::uint32_t subflow, std::uint64_t seq,
                                const SegmentContent& content) {
    (void)subflow;
    (void)seq;
    (void)content;
  }

  /// A transmission of `seq` carrying `content` was declared lost (fast
  /// retransmit or timeout). May be spurious, as in real TCP.
  virtual void on_segment_lost(std::uint32_t subflow, std::uint64_t seq,
                               const SegmentContent& content) {
    (void)subflow;
    (void)seq;
    (void)content;
  }

  /// An ACK packet arrived on `subflow`; piggybacked upper-layer fields
  /// (FMTCP block ACKs, MPTCP data ACK / window) are in `ack`. Called
  /// before the subflow pulls new segments, so fresh feedback informs
  /// allocation.
  virtual void on_ack_info(std::uint32_t subflow, const net::Packet& ack) {
    (void)subflow;
    (void)ack;
  }
};

/// Which controller a Subflow builds when none is injected.
enum class CongestionAlgo { kReno, kCubic };

struct SubflowConfig {
  std::uint32_t id = 0;
  /// Connection tag stamped on every outgoing packet; lets several
  /// connections share a Link (the receiver echoes it on ACKs).
  std::uint32_t flow_tag = 0;
  /// Maximum payload bytes per segment (MSS_f of Eq. 9).
  std::size_t mss_payload = 1280;
  /// FMTCP mode: retransmissions carry fresh allocator content.
  bool fresh_payload_on_retransmit = false;
  int dupack_threshold = 3;
  /// Selective acknowledgements (RFC 2018/6675-style, simplified):
  /// receivers always advertise SACK ranges; when enabled the sender
  /// keeps a scoreboard, excludes SACKed segments from the pipe, infers
  /// losses from SACK counts instead of duplicate ACKs, and skips SACKed
  /// segments during go-back-N. Off by default (the paper's era baseline
  /// and this repo's calibrated operating point).
  bool enable_sack = false;
  /// EWMA weight of the loss estimator (statistic loss probability p_f).
  double loss_ewma_alpha = 0.01;
  RttConfig rtt;
  CongestionAlgo congestion = CongestionAlgo::kReno;
  RenoConfig reno;    ///< Used when congestion == kReno.
  CubicConfig cubic;  ///< Used when congestion == kCubic.
  /// Optional observability sink (not owned): cwnd-change / RTO /
  /// fast-retransmit timeline events plus tcp.* counters. Null = off.
  obs::Observer* observer = nullptr;
};

/// Sender-side subflow endpoint. Attach `on_ack_packet` as the reverse
/// link's sink and hand it the forward link at construction.
class Subflow {
 public:
  /// `cc` may be null, in which case a RenoCc is created from
  /// `config.reno`.
  Subflow(sim::Simulator& simulator, const SubflowConfig& config,
          net::Link& out, SegmentProvider& provider,
          std::unique_ptr<CongestionControl> cc = nullptr);

  /// Processes an arriving ACK; then pulls new segments while the window
  /// allows.
  void on_ack_packet(net::Packet ack);

  /// The upper layer produced new data; pulls segments while possible.
  void notify_send_opportunity();

  // --- Introspection (data-allocation inputs, Eq. 10–11, and tests) ---

  std::uint32_t id() const { return config_.id; }
  std::size_t mss_payload() const { return config_.mss_payload; }

  double cwnd() const { return cc_->cwnd(); }
  CongestionControl& congestion() { return *cc_; }

  /// Segments in flight (snd_next - snd_una).
  std::uint64_t in_flight() const { return snd_next_ - snd_una_; }

  /// w_f: remaining congestion window space in segments.
  std::uint64_t window_space() const;

  SimTime srtt() const;
  SimTime rto() const { return rtt_.rto(); }
  const RttEstimator& rtt_estimator() const { return rtt_; }

  /// p_f: smoothed loss-rate estimate.
  double loss_estimate() const { return loss_est_; }

  /// Seeds the loss estimate (a sender that knows the statistic loss
  /// probability, as the paper assumes, may set it). p in [0, 1];
  /// expected_rt() and expected_edt() clamp a dead path's 1 to 0.99.
  void set_loss_hint(double p);

  /// tau_f: time since the first (oldest) unacknowledged segment was
  /// last sent; 0 when nothing is outstanding.
  SimTime time_since_first_unacked() const;

  /// Expected response time RT_f = (1-p)RTT + p·RTO (Eq. 10).
  SimTime expected_rt() const;

  /// Expected delivery time EDT_f ≈ r/2 + p/(1-p)·RTO (the SEDT shape of
  /// Eq. 13, which §IV-B says EDT estimation should mirror).
  SimTime expected_edt() const;

  /// Expected arriving time EAT_f (Eq. 11).
  SimTime expected_arrival_time() const;

  // --- Counters ---
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t snd_next() const { return snd_next_; }
  std::uint64_t snd_una() const { return snd_una_; }
  /// Segments currently SACKed above snd_una (0 unless enable_sack).
  std::size_t sacked_count() const { return sacked_.size(); }

 private:
  struct Outstanding {
    SegmentContent content;
    SimTime first_sent = 0;
    SimTime last_sent = 0;
    bool retransmitted = false;
    /// Already resent once by the SACK hole pass (avoid duplicates until
    /// a timeout resets the recovery).
    bool sack_retransmitted = false;
  };

  /// Emits a cwnd-change timeline event when the window moved at least
  /// one segment since the last emission (or unconditionally on loss
  /// events, `force`), keeping the timeline proportional to the window
  /// trajectory rather than to the ACK rate.
  void note_cwnd(bool force);

  void try_send();
  void send_new_segment(SegmentContent content);
  void retransmit(std::uint64_t seq);
  /// Builds the wire packet for `content`. In fresh-payload mode the
  /// symbol payload rows are MOVED into the packet (the stored content
  /// keeps coefficient metadata only, which is all loss accounting
  /// needs); stored-payload mode (IETF-MPTCP) copies, as its
  /// retransmissions resend the stored segment.
  net::Packet build_packet(std::uint64_t seq, SegmentContent& content);
  void on_rto();
  void note_acked_for_loss_est();
  void note_lost_for_loss_est();
  void arm_timer_if_needed();
  void absorb_sack_ranges(const net::Packet& ack);
  /// Retransmits SACK-inferred holes; true if any segment was resent.
  bool sack_retransmit_holes();

  sim::Simulator& simulator_;
  SubflowConfig config_;
  net::Link& out_;
  SegmentProvider& provider_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  sim::Timer rto_timer_;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_next_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;

  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_seq_ = 0;

  bool gbn_active_ = false;
  std::uint64_t gbn_next_ = 0;
  std::uint64_t gbn_limit_ = 0;

  /// SACK scoreboard: sequences in (snd_una, snd_next) the receiver
  /// holds out of order.
  std::set<std::uint64_t> sacked_;

  double loss_est_ = 0.0;

  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  bool in_try_send_ = false;

  // Observability (all no-ops when config.observer is null).
  obs::Observer* obs_ = nullptr;
  double last_emitted_cwnd_ = -1.0;
  obs::Counter obs_segments_;
  obs::Counter obs_retransmissions_;
  obs::Counter obs_rtos_;
  obs::Counter obs_fast_retransmits_;
  obs::Histogram obs_rtt_ms_;
};

/// Receiver-side upper layer: consumes arriving segments and fills
/// protocol-specific ACK fields.
class DataSink {
 public:
  virtual ~DataSink() = default;

  /// Every arriving data segment (in order or not, duplicate seq or not)
  /// is delivered; content-level dedup is the upper layer's job (MPTCP
  /// reassembly by data_seq; FMTCP symbol rank check). The sink may MOVE
  /// the symbol payload bytes out of `p` (the decoder takes ownership of
  /// rows it keeps), but must leave all metadata — including the symbol
  /// block ids — intact: the subflow still builds the ACK from them.
  virtual void on_segment(std::uint32_t subflow, net::Packet& p) = 0;

  /// Piggybacks upper-layer fields (block ACKs, data ACK, window) onto
  /// the subflow-level ACK about to be sent for `data`. `extra_bytes`
  /// should be incremented by the wire size of added options.
  virtual void fill_ack(std::uint32_t subflow, const net::Packet& data,
                        net::Packet& ack, std::size_t& extra_bytes) {
    (void)subflow;
    (void)data;
    (void)ack;
    (void)extra_bytes;
  }
};

struct SubflowReceiverConfig {
  /// RFC 1122-style delayed ACKs: in-order segments are acknowledged
  /// every `ack_every` packets or after `delack_timeout`, whichever
  /// comes first; anything out of order (or filling a hole) is
  /// acknowledged immediately. Off by default — the paper-era ns-2
  /// agents ACK every packet, and so do this repo's calibrated runs.
  bool delayed_acks = false;
  int ack_every = 2;
  SimTime delack_timeout = from_ms(40);
};

/// Receiver-side subflow endpoint: tracks rcv_next, delivers every
/// arriving segment to the sink, and ACKs data packets on the reverse
/// link (every packet, or delayed per the config).
class SubflowReceiver {
 public:
  SubflowReceiver(sim::Simulator& simulator, std::uint32_t id,
                  net::Link& ack_out, DataSink& sink,
                  const SubflowReceiverConfig& config = {});

  /// Attach as the forward link's sink.
  void on_data_packet(net::Packet p);

  std::uint64_t rcv_next() const { return rcv_next_; }
  std::uint64_t segments_received() const { return segments_received_; }
  std::uint64_t duplicate_segments() const { return duplicates_; }
  std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void send_ack(const net::Packet& data);
  void on_delack_timer();

  sim::Simulator& simulator_;
  std::uint32_t id_;
  net::Link& ack_out_;
  DataSink& sink_;
  SubflowReceiverConfig config_;
  sim::Timer delack_timer_;
  /// Data packet awaiting a (delayed) ACK; empty kind==kAck when none.
  net::Packet pending_ack_for_;
  bool ack_pending_ = false;
  int unacked_in_order_ = 0;
  std::uint64_t rcv_next_ = 0;
  std::set<std::uint64_t> out_of_order_;
  std::uint64_t segments_received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace fmtcp::tcp
