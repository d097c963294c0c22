#include "core/block_manager.h"

#include <utility>

#include "common/check.h"
#include "fountain/block.h"

namespace fmtcp::core {

namespace {

/// Encodes block `id`: the application's bytes when a source is attached,
/// otherwise deterministic content the receiver regenerates to verify.
fountain::SymbolEncoder make_encoder(net::BlockId id,
                                     const FmtcpParams& params, Rng rng,
                                     BlockSource* source, BufferPool* pool) {
  fountain::BlockData block =
      source != nullptr
          ? source->build_block(id, params.block_symbols, params.symbol_bytes)
          : fountain::make_deterministic_block(id, params.block_symbols,
                                               params.symbol_bytes);
  return fountain::SymbolEncoder(params.coding_field, id, std::move(block),
                                 rng, params.systematic, pool);
}

}  // namespace

SenderBlock::SenderBlock(net::BlockId block_id, const FmtcpParams& params,
                         Rng rng, BlockSource* source, BufferPool* pool)
    : id(block_id),
      k_hat(params.block_symbols),
      encoder(make_encoder(id, params, rng, source, pool)) {}

std::uint32_t SenderBlock::total_in_flight() const {
  std::uint32_t total = 0;
  for (const std::uint32_t count : in_flight) total += count;
  return total;
}

BlockManager::BlockManager(sim::Simulator& simulator,
                           const FmtcpParams& params,
                           CompletionCallback on_complete,
                           BlockSource* source)
    : simulator_(simulator),
      params_(params),
      on_complete_(std::move(on_complete)),
      source_(source) {
  encoder_rng_ = simulator.fork_rng();
  params_.validate();
}

const SenderBlock* BlockManager::find(net::BlockId id) const {
  if (blocks_.empty() || id < blocks_.front().id) return nullptr;
  const std::uint64_t offset = id - blocks_.front().id;
  if (offset >= blocks_.size()) return nullptr;
  const SenderBlock& block = blocks_[offset];
  FMTCP_DCHECK(block.id == id);
  return &block;
}

SenderBlock* BlockManager::find(net::BlockId id) {
  return const_cast<SenderBlock*>(
      static_cast<const BlockManager*>(this)->find(id));
}

bool BlockManager::can_open(std::uint64_t extra) const {
  if (params_.total_blocks != 0 &&
      next_id_ + extra > params_.total_blocks) {
    return false;
  }
  if (blocks_.size() + extra > params_.max_pending_blocks) return false;
  // Application-limited: the source must have the data ready.
  return source_ == nullptr || source_->has_block(next_id_ + extra - 1);
}

SenderBlock& BlockManager::ensure_block(net::BlockId id) {
  if (SenderBlock* existing = find(id)) return *existing;
  // Virtual allocation may have (virtually) satisfied earlier prospective
  // blocks and handed this subflow a later one; open every block up to
  // `id` so the stream stays contiguous.
  FMTCP_CHECK(id >= next_id_);
  while (next_id_ <= id) {
    FMTCP_CHECK(can_open());
    // Symbol payload buffers cycle through the simulator-local pool:
    // receiver-side drops feed the next encodes.
    blocks_.emplace_back(next_id_, params_, encoder_rng_.fork(), source_,
                         &simulator_.buffer_pool());
    ++next_id_;
  }
  return blocks_.back();
}

void BlockManager::on_symbols_sent(net::BlockId id, std::uint32_t subflow,
                                   std::uint32_t count) {
  SenderBlock* block = find(id);
  FMTCP_CHECK(block != nullptr);
  if (block->in_flight.size() <= subflow) {
    block->in_flight.resize(subflow + 1, 0);
  }
  block->in_flight[subflow] += count;
  block->symbols_sent += count;
  symbols_sent_ += count;
  if (block->first_symbol_sent == kNever) {
    block->first_symbol_sent = simulator_.now();
  }
}

void BlockManager::on_symbols_acked(net::BlockId id, std::uint32_t subflow,
                                    std::uint32_t count) {
  SenderBlock* block = find(id);
  if (block == nullptr) return;  // Block already closed; stale echo.
  if (subflow >= block->in_flight.size()) return;
  std::uint32_t& flight = block->in_flight[subflow];
  flight = flight > count ? flight - count : 0;
}

void BlockManager::on_symbols_lost(net::BlockId id, std::uint32_t subflow,
                                   std::uint32_t count) {
  on_symbols_acked(id, subflow, count);  // Same accounting: leaves window.
}

void BlockManager::account_symbols(
    const std::vector<net::EncodedSymbol>& symbols, std::uint32_t subflow,
    bool acked) {
  for (std::size_t i = 0; i < symbols.size();) {
    const net::BlockId block = symbols[i].block;
    std::size_t end = i + 1;
    while (end < symbols.size() && symbols[end].block == block) ++end;
    const auto count = static_cast<std::uint32_t>(end - i);
    if (acked) {
      on_symbols_acked(block, subflow, count);
    } else {
      on_symbols_lost(block, subflow, count);
    }
    i = end;
  }
}

void BlockManager::on_block_ack(const net::BlockAck& ack) {
  SenderBlock* block = find(ack.block);
  if (block == nullptr) return;  // Already closed.
  block->k_bar = std::max(block->k_bar, ack.independent_symbols);
  if (ack.decoded && !block->decoded) {
    block->decoded = true;
    block->k_bar = block->k_hat;
    ++completed_;
    const SimTime delay = block->first_symbol_sent == kNever
                              ? 0
                              : simulator_.now() - block->first_symbol_sent;
    if (on_complete_) on_complete_(block->id, delay);
    maybe_close_front();
  }
}

void BlockManager::maybe_close_front() {
  while (!blocks_.empty() && blocks_.front().decoded) {
    closed_below_ = blocks_.front().id + 1;
    blocks_.pop_front();
  }
}

}  // namespace fmtcp::core
