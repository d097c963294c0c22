// Congestion control for subflows.
//
// The paper (§III-A) notes its framework works with any of the surveyed
// controllers and that on disjoint paths the choice does not influence the
// results; both protocols here run Reno per subflow by default. A coupled
// LIA controller (RFC 6356, the "MPTCP" controller of [14]) is provided as
// an extension for shared-bottleneck scenarios.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"

namespace fmtcp::tcp {

/// Congestion window state machine; the window is in packets (fractional
/// internally for additive increase).
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Current congestion window in packets (>= 1).
  virtual double cwnd() const = 0;

  /// Slow-start threshold in packets.
  virtual double ssthresh() const = 0;

  /// `newly_acked` in-order segments were acknowledged.
  virtual void on_ack(std::uint64_t newly_acked) = 0;

  /// Loss detected via triple duplicate ACK (fast retransmit).
  virtual void on_fast_retransmit() = 0;

  /// Retransmission timeout fired.
  virtual void on_timeout() = 0;

  /// The subflow's smoothed RTT after each sample. Only coupled
  /// controllers (LIA) read it.
  virtual void set_rtt(SimTime /*srtt*/) {}

  virtual bool in_slow_start() const { return cwnd() < ssthresh(); }
};

struct RenoConfig {
  double initial_cwnd = 2.0;
  /// Moderate initial threshold (ns-2-style): without SACK, letting the
  /// initial slow start run to queue overflow causes a burst-loss
  /// collapse that NewReno needs one RTT per hole to repair.
  double initial_ssthresh = 64.0;
  double max_cwnd = 10000.0;
};

/// TCP Reno: slow start, additive increase, halve on fast retransmit,
/// collapse to one segment on timeout.
class RenoCc final : public CongestionControl {
 public:
  explicit RenoCc(const RenoConfig& config = {});

  double cwnd() const override { return cwnd_; }
  double ssthresh() const override { return ssthresh_; }
  void on_ack(std::uint64_t newly_acked) override;
  void on_fast_retransmit() override;
  void on_timeout() override;

 private:
  RenoConfig config_;
  double cwnd_;
  double ssthresh_;
};

struct CubicConfig {
  double initial_cwnd = 2.0;
  double initial_ssthresh = 64.0;
  double max_cwnd = 10000.0;
  /// CUBIC's C constant (window units per second cubed).
  double c = 0.4;
  /// Multiplicative decrease factor (RFC 8312's β_cubic = 0.7).
  double beta = 0.7;
};

/// CUBIC (RFC 8312, simplified: no TCP-friendly region, no fast
/// convergence) — the window grows as W(t) = C(t-K)^3 + W_max between
/// loss events, plateauing near the last loss point before probing.
/// Provided as an extension beyond the paper's Reno-era controllers.
class CubicCc final : public CongestionControl {
 public:
  /// `now` supplies the simulation clock (CUBIC growth is time-based,
  /// not ACK-counted).
  CubicCc(std::function<SimTime()> now, const CubicConfig& config = {});

  double cwnd() const override { return cwnd_; }
  double ssthresh() const override { return ssthresh_; }
  void on_ack(std::uint64_t newly_acked) override;
  void on_fast_retransmit() override;
  void on_timeout() override;

  double w_max() const { return w_max_; }

 private:
  /// Current cubic target window.
  double target_window() const;
  void start_epoch();

  std::function<SimTime()> now_;
  CubicConfig config_;
  double cwnd_;
  double ssthresh_;
  double w_max_;
  double k_seconds_ = 0.0;  ///< Time to return to W_max after a loss.
  SimTime epoch_start_;
};

class LiaCc;

/// Shared state for one MPTCP connection's coupled subflows. The group
/// computes the RFC 6356 aggressiveness factor `alpha` from every member's
/// window and RTT.
class LiaGroup {
 public:
  /// Registers a member; called by LiaCc's constructor.
  void add_member(LiaCc* member);
  void remove_member(LiaCc* member);

  /// alpha = cwnd_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
  double alpha() const;

  double total_cwnd() const;

 private:
  std::vector<LiaCc*> members_;
};

/// One subflow of a Linked-Increases (RFC 6356) coupled controller.
/// Decrease behaviour is Reno's; increase is capped by the coupled alpha.
class LiaCc final : public CongestionControl {
 public:
  LiaCc(LiaGroup& group, const RenoConfig& config = {});
  ~LiaCc() override;

  double cwnd() const override { return cwnd_; }
  double ssthresh() const override { return ssthresh_; }
  void on_ack(std::uint64_t newly_acked) override;
  void on_fast_retransmit() override;
  void on_timeout() override;

  /// The subflow feeds its smoothed RTT here so the group can compute
  /// alpha; defaults to 100 ms until the first report.
  void set_rtt(SimTime srtt) override;
  SimTime rtt() const { return srtt_; }

 private:
  LiaGroup& group_;
  RenoConfig config_;
  double cwnd_;
  double ssthresh_;
  SimTime srtt_ = from_ms(100);
};

}  // namespace fmtcp::tcp
