#include "core/allocator.h"

#include <gtest/gtest.h>

#include <map>

#include "common/time.h"

namespace fmtcp::core {
namespace {

/// Scriptable environment: a fixed set of blocks with given real k̃, a
/// fixed set of subflow snapshots, uniform k̂.
class MockEnv final : public AllocatorEnv {
 public:
  std::vector<SubflowSnapshot> subflows;
  std::vector<net::BlockId> blocks;          ///< Open block ids in order.
  std::map<net::BlockId, double> k_tilde;    ///< Real k̃ per block.
  std::uint32_t k_hat = 8;
  double delta = 0.05;                       ///< Needs k̂ + ~4.32.
  std::size_t wire = 172;
  std::uint64_t prospective_limit = 0;       ///< Extra openable blocks.

  void subflow_snapshots(std::vector<SubflowSnapshot>& out) const override {
    out = subflows;
  }
  std::optional<net::BlockId> block_at(std::size_t index) const override {
    if (index < blocks.size()) return blocks[index];
    const std::uint64_t beyond = index - blocks.size();
    if (beyond < prospective_limit) {
      return (blocks.empty() ? 0 : blocks.back() + 1) + beyond;
    }
    return std::nullopt;
  }
  std::uint32_t block_k_hat(net::BlockId) const override { return k_hat; }
  double real_k_tilde(net::BlockId id) const override {
    const auto it = k_tilde.find(id);
    return it == k_tilde.end() ? 0.0 : it->second;
  }
  double delta_hat() const override { return delta; }
  std::size_t symbol_wire_bytes() const override { return wire; }
};

SubflowSnapshot make_snap(std::uint32_t id, std::uint64_t window,
                          SimTime edt, double loss = 0.0) {
  SubflowSnapshot s;
  s.id = id;
  s.mss_payload = 1204;  // 7 symbols of 172.
  s.window_space = window;
  s.cwnd = 10.0;
  s.edt = edt;
  s.rt = 2 * edt;
  s.tau = 0;
  s.loss = loss;
  return s;
}

TEST(Allocator, FillsFirstIncompleteBlock) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {0};
  env.k_tilde[0] = 0.0;
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->entries.size(), 1u);
  EXPECT_EQ(plan->entries[0].block, 0u);
  EXPECT_EQ(plan->entries[0].symbols, 7u);  // MSS-limited.
  EXPECT_EQ(plan->payload_bytes, 7u * 172u);
}

TEST(Allocator, StopsAtDeltaCompleteness) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {0};
  // Needs k̂ + log2(1/0.05) ≈ 8 + 4.32; with k̃ = 11, 2 more symbols on a
  // lossless flow reach 13 > 12.32.
  env.k_tilde[0] = 11.0;
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->entries.size(), 1u);
  EXPECT_EQ(plan->entries[0].symbols, 2u);
}

TEST(Allocator, SpillsIntoNextBlockWithinMss) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {0, 1};
  env.k_tilde[0] = 11.0;  // Needs 2.
  env.k_tilde[1] = 0.0;   // Needs plenty.
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->entries.size(), 2u);
  EXPECT_EQ(plan->entries[0].block, 0u);
  EXPECT_EQ(plan->entries[0].symbols, 2u);
  EXPECT_EQ(plan->entries[1].block, 1u);
  EXPECT_EQ(plan->entries[1].symbols, 5u);
}

TEST(Allocator, RuleR2OrdersBlocks) {
  // Block 1 may not receive symbols while block 0 is incomplete.
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {0, 1};
  env.k_tilde[0] = 0.0;
  env.k_tilde[1] = 0.0;
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->entries.size(), 1u);
  EXPECT_EQ(plan->entries[0].block, 0u);
}

TEST(Allocator, RuleR1NothingWhenAllComplete) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {0};
  env.k_tilde[0] = 20.0;  // Far past δ̂-completeness.
  Allocator alloc(env);
  EXPECT_EQ(alloc.allocate(0), nullptr);
}

TEST(Allocator, OpensProspectiveBlocks) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {};
  env.prospective_limit = 2;
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->entries[0].block, 0u);
}

TEST(Allocator, ExhaustedStreamYieldsNothing) {
  MockEnv env;
  env.subflows = {make_snap(0, 5, from_ms(100))};
  env.blocks = {};
  env.prospective_limit = 0;
  Allocator alloc(env);
  EXPECT_EQ(alloc.allocate(0), nullptr);
}

TEST(Allocator, VirtualAllocationGivesSlowFlowLaterBlocks) {
  // Fast flow 0 (low EAT, huge window) virtually absorbs the early
  // blocks; the pending slow flow 1 is assigned a later block.
  MockEnv env;
  env.subflows = {make_snap(0, 50, from_ms(50)),
                  make_snap(1, 2, from_ms(400))};
  env.blocks = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Allocator alloc(env);
  const auto plan = alloc.allocate(1);
  // Flow 0's 50-packet window (350 symbols) virtually absorbs all ten
  // blocks (~130 symbols), so the slow pending flow is left with nothing
  // (correct per R1: flow 0 will physically send them when it pulls) —
  // or, at most, a late block. Never an early one.
  if (plan != nullptr) {
    EXPECT_GE(plan->entries[0].block, 8u);
  }
}

TEST(Allocator, PendingFastFlowGetsFirstBlock) {
  MockEnv env;
  env.subflows = {make_snap(0, 50, from_ms(50)),
                  make_snap(1, 2, from_ms(400))};
  env.blocks = {0, 1, 2};
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->entries[0].block, 0u);
}

TEST(Allocator, LossyFlowAllocatesMoreSymbols) {
  MockEnv env;
  env.blocks = {0};
  env.k_tilde[0] = 11.0;
  // Lossless flow: 2 symbols reach 13 > 12.32. Half-lossy flow: each
  // symbol counts 0.5, so 3 are needed (11 + 1.5 = 12.5).
  env.subflows = {make_snap(0, 5, from_ms(100), /*loss=*/0.5)};
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->entries[0].symbols, 3u);
}

TEST(Allocator, RespectsSmallMss) {
  MockEnv env;
  SubflowSnapshot tiny = make_snap(0, 5, from_ms(100));
  tiny.mss_payload = 200;  // One 172-byte symbol fits.
  env.subflows = {tiny};
  env.blocks = {0};
  Allocator alloc(env);
  const auto plan = alloc.allocate(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->total_symbols(), 1u);
  EXPECT_LE(plan->payload_bytes, 200u);
}

TEST(Allocator, MssSmallerThanSymbolSendsNothing) {
  MockEnv env;
  SubflowSnapshot tiny = make_snap(0, 5, from_ms(100));
  tiny.mss_payload = 100;
  env.subflows = {tiny};
  env.blocks = {0};
  Allocator alloc(env);
  EXPECT_EQ(alloc.allocate(0), nullptr);
}

TEST(PacketPlan, TotalSymbols) {
  PacketPlan plan;
  plan.entries = {{0, 3}, {1, 4}};
  EXPECT_EQ(plan.total_symbols(), 7u);
}

}  // namespace
}  // namespace fmtcp::core
