#include "net/loss_model.h"

#include "common/check.h"

namespace fmtcp::net {

BernoulliLoss::BernoulliLoss(double p) : p_(p) {
  FMTCP_CHECK(p >= 0.0 && p <= 1.0);
}

bool BernoulliLoss::should_drop(SimTime, Rng& rng) {
  return rng.bernoulli(p_);
}

TimeVaryingLoss::TimeVaryingLoss(std::vector<Step> steps)
    : steps_(std::move(steps)) {
  FMTCP_CHECK(!steps_.empty());
  FMTCP_CHECK(steps_.front().start == 0);
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    FMTCP_CHECK(steps_[i].start > steps_[i - 1].start);
  }
  for (const Step& s : steps_) {
    FMTCP_CHECK(s.rate >= 0.0 && s.rate <= 1.0);
  }
}

bool TimeVaryingLoss::should_drop(SimTime now, Rng& rng) {
  return rng.bernoulli(current_rate(now));
}

double TimeVaryingLoss::current_rate(SimTime now) const {
  double rate = steps_.front().rate;
  for (const Step& s : steps_) {
    if (s.start <= now) {
      rate = s.rate;
    } else {
      break;
    }
  }
  return rate;
}

GilbertElliottLoss::GilbertElliottLoss(const Config& config)
    : config_(config) {
  FMTCP_CHECK(config.p_good_to_bad >= 0 && config.p_good_to_bad <= 1);
  FMTCP_CHECK(config.p_bad_to_good >= 0 && config.p_bad_to_good <= 1);
  FMTCP_CHECK(config.loss_good >= 0 && config.loss_good < 1);
  FMTCP_CHECK(config.loss_bad >= 0 && config.loss_bad <= 1);
}

bool GilbertElliottLoss::should_drop(SimTime, Rng& rng) {
  // Advance the state chain once per packet, then draw the loss.
  if (bad_) {
    if (rng.bernoulli(config_.p_bad_to_good)) bad_ = false;
  } else {
    if (rng.bernoulli(config_.p_good_to_bad)) bad_ = true;
  }
  return rng.bernoulli(bad_ ? config_.loss_bad : config_.loss_good);
}

double GilbertElliottLoss::current_rate(SimTime) const {
  const double denom = config_.p_good_to_bad + config_.p_bad_to_good;
  if (denom == 0.0) {
    return bad_ ? config_.loss_bad : config_.loss_good;
  }
  const double frac_bad = config_.p_good_to_bad / denom;
  return frac_bad * config_.loss_bad + (1.0 - frac_bad) * config_.loss_good;
}

std::unique_ptr<LossModel> make_bernoulli(double p) {
  if (p <= 0.0) return std::make_unique<NoLoss>();
  return std::make_unique<BernoulliLoss>(p);
}

}  // namespace fmtcp::net
