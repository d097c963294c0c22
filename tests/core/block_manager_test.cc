#include "core/block_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace fmtcp::core {
namespace {

FmtcpParams small_params() {
  FmtcpParams params;
  params.block_symbols = 8;
  params.symbol_bytes = 16;
  params.max_pending_blocks = 4;
  return params;
}

struct Completion {
  net::BlockId id;
  SimTime delay;
};

struct Fixture {
  sim::Simulator sim{1};
  std::vector<Completion> completions;
  BlockManager manager;

  explicit Fixture(FmtcpParams params = small_params())
      : manager(sim, params, [this](net::BlockId id, SimTime delay) {
          completions.push_back({id, delay});
        }) {}
};

TEST(BlockManager, EnsureCreatesSequentially) {
  Fixture f;
  EXPECT_EQ(f.manager.next_block_id(), 0u);
  SenderBlock& b0 = f.manager.ensure_block(0);
  EXPECT_EQ(b0.id, 0u);
  EXPECT_EQ(f.manager.next_block_id(), 1u);
  SenderBlock& b2 = f.manager.ensure_block(2);  // Opens 1 and 2.
  EXPECT_EQ(b2.id, 2u);
  EXPECT_EQ(f.manager.open_blocks().size(), 3u);
  EXPECT_NE(f.manager.find(1), nullptr);
}

TEST(BlockManager, FindMissesClosedAndUnopened) {
  Fixture f;
  f.manager.ensure_block(0);
  EXPECT_EQ(f.manager.find(5), nullptr);
  net::BlockAck ack;
  ack.block = 0;
  ack.independent_symbols = 8;
  ack.decoded = true;
  f.manager.on_block_ack(ack);
  EXPECT_EQ(f.manager.find(0), nullptr);  // Closed.
}

TEST(BlockManager, CanOpenRespectsPendingCap) {
  Fixture f;
  EXPECT_TRUE(f.manager.can_open(4));
  EXPECT_FALSE(f.manager.can_open(5));
  f.manager.ensure_block(3);  // Opens 4 blocks.
  EXPECT_FALSE(f.manager.can_open(1));
}

TEST(BlockManager, CanOpenRespectsTotalBlocks) {
  FmtcpParams params = small_params();
  params.total_blocks = 2;
  Fixture f(params);
  EXPECT_TRUE(f.manager.can_open(2));
  EXPECT_FALSE(f.manager.can_open(3));
  f.manager.ensure_block(1);
  EXPECT_FALSE(f.manager.can_open(1));
}

TEST(BlockManager, KTildeWeightsInFlightByLoss) {
  Fixture f;
  SenderBlock& block = f.manager.ensure_block(0);
  f.manager.on_symbols_sent(0, 0, 4);  // Subflow 0.
  f.manager.on_symbols_sent(0, 1, 10); // Subflow 1.
  block.k_bar = 2;
  const auto loss_of = [](std::uint32_t subflow) {
    return subflow == 0 ? 0.0 : 0.5;
  };
  // 2 + 4*(1-0) + 10*(1-0.5) = 11.
  EXPECT_DOUBLE_EQ(f.manager.k_tilde(block, loss_of), 11.0);
}

TEST(BlockManager, AckAndLossDrainInFlight) {
  Fixture f;
  SenderBlock& block = f.manager.ensure_block(0);
  f.manager.on_symbols_sent(0, 0, 6);
  EXPECT_EQ(block.total_in_flight(), 6u);
  f.manager.on_symbols_acked(0, 0, 2);
  EXPECT_EQ(block.total_in_flight(), 4u);
  f.manager.on_symbols_lost(0, 0, 3);
  EXPECT_EQ(block.total_in_flight(), 1u);
}

TEST(BlockManager, DrainClampsAtZero) {
  Fixture f;
  SenderBlock& block = f.manager.ensure_block(0);
  f.manager.on_symbols_sent(0, 0, 2);
  f.manager.on_symbols_acked(0, 0, 5);
  EXPECT_EQ(block.total_in_flight(), 0u);
}

TEST(BlockManager, BlockAckUpdatesKBarMonotonically) {
  Fixture f;
  SenderBlock& block = f.manager.ensure_block(0);
  net::BlockAck ack;
  ack.block = 0;
  ack.independent_symbols = 5;
  f.manager.on_block_ack(ack);
  EXPECT_EQ(block.k_bar, 5u);
  ack.independent_symbols = 3;  // Stale.
  f.manager.on_block_ack(ack);
  EXPECT_EQ(block.k_bar, 5u);
}

TEST(BlockManager, CompletionCallbackCarriesDelay) {
  Fixture f;
  f.manager.ensure_block(0);
  f.sim.schedule_at(from_ms(10), [&] {
    f.manager.on_symbols_sent(0, 0, 1);
  });
  f.sim.schedule_at(from_ms(250), [&] {
    net::BlockAck ack;
    ack.block = 0;
    ack.independent_symbols = 8;
    ack.decoded = true;
    f.manager.on_block_ack(ack);
  });
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].id, 0u);
  EXPECT_EQ(f.completions[0].delay, from_ms(240));
}

TEST(BlockManager, CompletionFiresOnce) {
  Fixture f;
  f.manager.ensure_block(0);
  net::BlockAck ack;
  ack.block = 0;
  ack.independent_symbols = 8;
  ack.decoded = true;
  f.manager.on_block_ack(ack);
  f.manager.on_block_ack(ack);
  EXPECT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.manager.blocks_completed(), 1u);
}

TEST(BlockManager, ClosesOnlyFromFront) {
  Fixture f;
  f.manager.ensure_block(1);  // Opens 0 and 1.
  net::BlockAck ack;
  ack.block = 1;
  ack.independent_symbols = 8;
  ack.decoded = true;
  f.manager.on_block_ack(ack);
  // Block 1 decoded but block 0 still open: both remain in the deque.
  EXPECT_EQ(f.manager.open_blocks().size(), 2u);
  ack.block = 0;
  f.manager.on_block_ack(ack);
  EXPECT_EQ(f.manager.open_blocks().size(), 0u);
}

TEST(BlockManager, StaleEventsForClosedBlocksIgnored) {
  Fixture f;
  f.manager.ensure_block(0);
  net::BlockAck ack;
  ack.block = 0;
  ack.independent_symbols = 8;
  ack.decoded = true;
  f.manager.on_block_ack(ack);
  // These must be no-ops, not crashes.
  f.manager.on_symbols_acked(0, 0, 3);
  f.manager.on_symbols_lost(0, 0, 3);
  f.manager.on_block_ack(ack);
  EXPECT_EQ(f.manager.blocks_completed(), 1u);
}

TEST(BlockManager, TotalSymbolCounter) {
  Fixture f;
  f.manager.ensure_block(0);
  f.manager.on_symbols_sent(0, 0, 7);
  f.manager.on_symbols_sent(0, 1, 3);
  EXPECT_EQ(f.manager.total_symbols_sent(), 10u);
}

}  // namespace
}  // namespace fmtcp::core
