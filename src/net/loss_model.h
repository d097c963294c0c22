// Packet loss models for simulated links.
//
// The paper's experiments use i.i.d. (Bernoulli) loss per path, plus a
// time-varying schedule for the loss-surge experiment (Fig. 4). A
// Gilbert–Elliott model is included for bursty-loss extensions.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace fmtcp::net {

/// Decides, per packet, whether the channel erases it.
class LossModel {
 public:
  virtual ~LossModel() = default;

  /// Returns true if the packet leaving the link at time `now` is lost.
  virtual bool should_drop(SimTime now, Rng& rng) = 0;

  /// The model's current configured loss probability (for reporting and
  /// for protocols that are told the statistical loss rate).
  virtual double current_rate(SimTime now) const = 0;
};

/// Never drops.
class NoLoss final : public LossModel {
 public:
  bool should_drop(SimTime, Rng&) override { return false; }
  double current_rate(SimTime) const override { return 0.0; }
};

/// Independent drops with fixed probability p in [0, 1]; p = 1 is a
/// dead path (every packet lost).
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p);
  bool should_drop(SimTime now, Rng& rng) override;
  double current_rate(SimTime) const override { return p_; }

 private:
  double p_;
};

/// Piecewise-constant loss rate over time: the Fig. 4 surge schedule
/// (1% -> 25%/35% at 50 s -> 1% at 200 s) is three steps.
class TimeVaryingLoss final : public LossModel {
 public:
  struct Step {
    SimTime start;  ///< Rate applies from this time (inclusive).
    double rate;
  };

  /// `steps` must be non-empty, sorted by start, first start == 0; each
  /// rate is in [0, 1] (1 kills the path for that step).
  explicit TimeVaryingLoss(std::vector<Step> steps);

  bool should_drop(SimTime now, Rng& rng) override;
  double current_rate(SimTime now) const override;

 private:
  std::vector<Step> steps_;
};

/// Two-state Markov (Gilbert–Elliott) bursty loss, advanced per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Config {
    double p_good_to_bad = 0.01;  ///< Per-packet transition G->B.
    double p_bad_to_good = 0.2;   ///< Per-packet transition B->G.
    double loss_good = 0.0;       ///< Drop probability in Good.
    double loss_bad = 0.5;        ///< Drop probability in Bad.
  };

  explicit GilbertElliottLoss(const Config& config);

  bool should_drop(SimTime now, Rng& rng) override;

  /// Long-run average loss rate implied by the chain's stationary
  /// distribution.
  double current_rate(SimTime) const override;

  bool in_bad_state() const { return bad_; }

 private:
  Config config_;
  bool bad_ = false;
};

/// Convenience factory: NoLoss for p<=0, else BernoulliLoss(p).
std::unique_ptr<LossModel> make_bernoulli(double p);

}  // namespace fmtcp::net
