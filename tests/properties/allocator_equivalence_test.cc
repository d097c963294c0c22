// Algorithm 1 with reused scratch must make exactly the decisions of the
// straightforward form it replaced. The reference below is that form: a
// std::map of virtual k̃ per block, and the env asked for block_at /
// block_k_hat / real_k_tilde on every visit. Both run over seeded random
// environments: 1-4 subflows (loss 0, mid-range or near 1; random EDT,
// RT, tau, window and MSS), 0-70 open blocks, 0-5 prospective blocks,
// four δ̂ values and both allocation modes.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/allocator.h"
#include "core/block_manager.h"
#include "fountain/random_linear.h"

namespace fmtcp::core {
namespace {

class RandomEnv final : public AllocatorEnv {
 public:
  std::vector<SubflowSnapshot> subflows;
  std::vector<net::BlockId> blocks;     ///< Open block ids in order.
  std::map<net::BlockId, double> k_tilde;
  std::map<net::BlockId, std::uint32_t> k_hat;
  std::uint32_t prospective_k_hat = 8;
  std::uint64_t prospective_limit = 0;
  double delta = 0.05;
  std::size_t wire = 172;

  void subflow_snapshots(std::vector<SubflowSnapshot>& out) const override {
    out = subflows;
  }
  std::optional<net::BlockId> block_at(std::size_t index) const override {
    if (index < blocks.size()) return blocks[index];
    const std::uint64_t beyond = index - blocks.size();
    if (beyond < prospective_limit) {
      return (blocks.empty() ? 1000 : blocks.back() + 1) + beyond;
    }
    return std::nullopt;
  }
  std::uint32_t block_k_hat(net::BlockId id) const override {
    const auto it = k_hat.find(id);
    return it == k_hat.end() ? prospective_k_hat : it->second;
  }
  double real_k_tilde(net::BlockId id) const override {
    const auto it = k_tilde.find(id);
    return it == k_tilde.end() ? 0.0 : it->second;
  }
  double delta_hat() const override { return delta; }
  std::size_t symbol_wire_bytes() const override { return wire; }
};

constexpr int kMaxRounds = 100000;

/// The allocator as it was before its scratch was kept across calls.
std::optional<PacketPlan> reference_allocate(const AllocatorEnv& env,
                                             AllocationMode mode,
                                             std::uint32_t pending_id) {
  std::vector<SubflowSnapshot> snaps;
  env.subflow_snapshots(snaps);
  const double delta_hat = env.delta_hat();
  const std::size_t sym_bytes = env.symbol_wire_bytes();
  std::vector<std::uint64_t> assigned(snaps.size(), 0);
  std::map<net::BlockId, double> virtual_k;

  const auto fill_packet = [&](const SubflowSnapshot& snap) {
    PacketPlan plan;
    std::size_t used = 0;
    for (std::size_t bi = 0;; ++bi) {
      if (used + sym_bytes > snap.mss_payload) break;
      const std::optional<net::BlockId> id = env.block_at(bi);
      if (!id.has_value()) break;
      const std::uint32_t k_hat = env.block_k_hat(*id);
      double k = env.real_k_tilde(*id) + virtual_k[*id];
      std::uint32_t count = 0;
      while (used + sym_bytes <= snap.mss_payload &&
             fountain::decode_failure_probability(k_hat, k) >= delta_hat) {
        ++count;
        used += sym_bytes;
        k += 1.0 - snap.loss;
      }
      if (count > 0) {
        plan.entries.push_back({*id, count});
        virtual_k[*id] = k - env.real_k_tilde(*id);
      }
    }
    plan.payload_bytes = used;
    return plan;
  };

  if (mode == AllocationMode::kGreedy) {
    for (const SubflowSnapshot& s : snaps) {
      if (s.id != pending_id) continue;
      PacketPlan plan = fill_packet(s);
      if (plan.entries.empty()) return std::nullopt;
      return plan;
    }
    return std::nullopt;
  }

  for (int round = 0; round < kMaxRounds; ++round) {
    std::size_t best = 0;
    SimTime best_eat = kNever;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      const SimTime eat = expected_arrival_time(snaps[i], assigned[i]);
      if (eat < best_eat ||
          (eat == best_eat && snaps[i].id < snaps[best].id)) {
        best = i;
        best_eat = eat;
      }
    }
    PacketPlan plan = fill_packet(snaps[best]);
    if (plan.entries.empty()) return std::nullopt;
    ++assigned[best];
    if (snaps[best].id == pending_id) return plan;
  }
  for (const SubflowSnapshot& s : snaps) {
    if (s.id == pending_id) {
      PacketPlan plan = fill_packet(s);
      if (plan.entries.empty()) return std::nullopt;
      return plan;
    }
  }
  return std::nullopt;
}

double random_loss(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return 0.0;
    case 1: return rng.uniform(0.05, 0.6);
    default: return rng.uniform(0.95, 0.999);
  }
}

RandomEnv random_env(Rng& rng) {
  RandomEnv env;
  const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  // Ids are a permutation of 0..n-1, so EAT ties break by id, not by
  // position.
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  env.wire = static_cast<std::size_t>(rng.uniform_int(20, 200));
  for (std::uint32_t i = 0; i < n; ++i) {
    SubflowSnapshot s;
    s.id = ids[i];
    s.mss_payload = env.wire * static_cast<std::size_t>(
                                   rng.uniform_int(0, 9)) +
                    static_cast<std::size_t>(rng.uniform_int(0, 30));
    s.window_space = static_cast<std::uint64_t>(rng.uniform_int(0, 20));
    s.cwnd = rng.uniform(1.0, 20.0);
    s.edt = from_ms(rng.uniform_int(1, 300));
    s.rt = s.edt + from_ms(rng.uniform_int(20, 300));
    s.tau = from_ms(rng.uniform_int(0, 400));
    s.loss = random_loss(rng);
    env.subflows.push_back(s);
  }
  const auto blocks = rng.uniform_int(0, 70);
  net::BlockId id = static_cast<net::BlockId>(rng.uniform_int(0, 500));
  for (std::int64_t b = 0; b < blocks; ++b) {
    env.blocks.push_back(id);
    const auto k_hat = static_cast<std::uint32_t>(rng.uniform_int(1, 130));
    env.k_hat[id] = k_hat;
    // Real k̃ from nothing to past δ̂-completeness, often fractional.
    env.k_tilde[id] = rng.bernoulli(0.3)
                          ? static_cast<double>(rng.uniform_int(0, k_hat + 25))
                          : rng.uniform(0.0, k_hat + 25.0);
    id += static_cast<net::BlockId>(rng.uniform_int(1, 3));
  }
  env.prospective_limit = static_cast<std::uint64_t>(rng.uniform_int(0, 5));
  env.prospective_k_hat = static_cast<std::uint32_t>(rng.uniform_int(1, 130));
  constexpr double kDeltas[] = {1e-6, 0.01, 0.05, 0.5};
  env.delta = kDeltas[rng.next_below(4)];
  return env;
}

void expect_same_plan(const PacketPlan* got,
                      const std::optional<PacketPlan>& want, int trial) {
  ASSERT_EQ(got != nullptr, want.has_value()) << "trial " << trial;
  if (!want.has_value()) return;
  EXPECT_EQ(got->payload_bytes, want->payload_bytes) << "trial " << trial;
  ASSERT_EQ(got->entries.size(), want->entries.size()) << "trial " << trial;
  for (std::size_t i = 0; i < want->entries.size(); ++i) {
    EXPECT_EQ(got->entries[i].block, want->entries[i].block)
        << "trial " << trial << " entry " << i;
    EXPECT_EQ(got->entries[i].symbols, want->entries[i].symbols)
        << "trial " << trial << " entry " << i;
  }
}

TEST(AllocatorEquivalence, MatchesReferenceOnRandomEnvs) {
  Rng rng(20260);
  int plans = 0;
  int nothing = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const RandomEnv env = random_env(rng);
    for (const AllocationMode mode :
         {AllocationMode::kEatVirtual, AllocationMode::kGreedy}) {
      // One allocator serves every subflow of the env in turn, so its
      // kept scratch is reused across calls as in the sender.
      Allocator allocator(env, mode);
      for (const SubflowSnapshot& s : env.subflows) {
        const std::optional<PacketPlan> want =
            reference_allocate(env, mode, s.id);
        expect_same_plan(allocator.allocate(s.id), want, trial);
        if (want.has_value()) {
          ++plans;
        } else {
          ++nothing;
        }
      }
    }
  }
  // The generator reaches both outcomes, often.
  EXPECT_GT(plans, 500);
  EXPECT_GT(nothing, 200);
}

TEST(AllocatorEquivalence, KTildeAfterDrainMatchesMapOrderSum) {
  sim::Simulator simulator(1);
  FmtcpParams params;
  params.block_symbols = 8;
  params.symbol_bytes = 16;
  BlockManager manager(simulator, params, nullptr);
  SenderBlock& block = manager.ensure_block(0);
  block.k_bar = 3;
  manager.on_symbols_sent(0, 2, 5);
  manager.on_symbols_sent(0, 0, 7);
  manager.on_symbols_sent(0, 1, 4);
  manager.on_symbols_acked(0, 1, 4);  // Subflow 1's count returns to 0.
  manager.on_symbols_lost(0, 0, 2);
  const auto loss_of = [](std::uint32_t f) { return 0.1 + 0.3 * f; };
  // What the per-block std::map gave: every subflow that ever sent, in
  // ascending id order, zero counts included.
  const std::map<std::uint32_t, std::uint32_t> in_flight = {
      {0, 5}, {1, 0}, {2, 5}};
  double want = 3.0;
  for (const auto& [f, count] : in_flight) {
    want += static_cast<double>(count) * (1.0 - loss_of(f));
  }
  EXPECT_EQ(manager.k_tilde(block, loss_of), want);
  EXPECT_EQ(block.total_in_flight(), 10u);
}

}  // namespace
}  // namespace fmtcp::core
