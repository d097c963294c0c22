#include "net/loss_model.h"

#include <gtest/gtest.h>

#include <memory>

namespace fmtcp::net {
namespace {

TEST(NoLoss, NeverDrops) {
  NoLoss model;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.should_drop(0, rng));
  }
  EXPECT_EQ(model.current_rate(0), 0.0);
}

TEST(BernoulliLoss, MatchesConfiguredRate) {
  BernoulliLoss model(0.2);
  Rng rng(7);
  int drops = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (model.should_drop(0, rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.01);
  EXPECT_EQ(model.current_rate(12345), 0.2);
}

TEST(BernoulliLoss, ZeroNeverDrops) {
  BernoulliLoss model(0.0);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.should_drop(0, rng));
}

// Rate 1 is a dead path: every packet is erased, at any time.
TEST(BernoulliLoss, OneDropsEveryPacket) {
  const std::unique_ptr<LossModel> model = make_bernoulli(1.0);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(model->should_drop(i, rng));
  EXPECT_EQ(model->current_rate(0), 1.0);
}

TEST(TimeVaryingLoss, DeadStepDropsEveryPacket) {
  TimeVaryingLoss model({{0, 0.0}, {100, 1.0}});
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(model.should_drop(50, rng));
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(model.should_drop(100 + i, rng));
}

TEST(TimeVaryingLoss, SwitchesAtBoundaries) {
  TimeVaryingLoss model({{0, 0.0}, {100, 0.5}, {200, 0.1}});
  EXPECT_EQ(model.current_rate(0), 0.0);
  EXPECT_EQ(model.current_rate(99), 0.0);
  EXPECT_EQ(model.current_rate(100), 0.5);
  EXPECT_EQ(model.current_rate(199), 0.5);
  EXPECT_EQ(model.current_rate(200), 0.1);
  EXPECT_EQ(model.current_rate(1000000), 0.1);
}

TEST(TimeVaryingLoss, DropsAtCurrentRate) {
  TimeVaryingLoss model({{0, 0.0}, {100, 1.0 - 1e-9}});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(model.should_drop(50, rng));
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (model.should_drop(150, rng)) ++drops;
  }
  EXPECT_EQ(drops, 100);
}

TEST(TimeVaryingLoss, SingleStep) {
  TimeVaryingLoss model({{0, 0.25}});
  EXPECT_EQ(model.current_rate(0), 0.25);
  EXPECT_EQ(model.current_rate(99999), 0.25);
}

TEST(GilbertElliott, StationaryRate) {
  GilbertElliottLoss::Config config;
  config.p_good_to_bad = 0.1;
  config.p_bad_to_good = 0.3;
  config.loss_good = 0.0;
  config.loss_bad = 0.4;
  GilbertElliottLoss model(config);
  // Stationary P(bad) = 0.1/0.4 = 0.25 -> rate = 0.25*0.4 = 0.1.
  EXPECT_NEAR(model.current_rate(0), 0.1, 1e-12);

  Rng rng(11);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (model.should_drop(0, rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.1, 0.01);
}

TEST(GilbertElliott, LossesAreBursty) {
  GilbertElliottLoss::Config config;
  config.p_good_to_bad = 0.01;
  config.p_bad_to_good = 0.1;
  config.loss_good = 0.0;
  config.loss_bad = 0.8;
  GilbertElliottLoss model(config);
  Rng rng(13);
  // P(loss | previous loss) should far exceed the marginal rate.
  int losses = 0;
  int pairs = 0;
  bool prev = false;
  for (int i = 0; i < 200000; ++i) {
    const bool drop = model.should_drop(0, rng);
    if (drop) ++losses;
    if (prev && drop) ++pairs;
    prev = drop;
  }
  const double marginal = losses / 200000.0;
  const double conditional = static_cast<double>(pairs) / losses;
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(MakeBernoulli, FactorySelectsModel) {
  auto none = make_bernoulli(0.0);
  EXPECT_EQ(none->current_rate(0), 0.0);
  auto some = make_bernoulli(0.3);
  EXPECT_EQ(some->current_rate(0), 0.3);
}

}  // namespace
}  // namespace fmtcp::net
