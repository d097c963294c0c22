// Sender-side block bookkeeping (paper §IV-A).
//
// For every open block the manager tracks k̄_b (receiver-confirmed
// independent symbols, from block ACKs), the per-subflow in-flight symbol
// counts l_b^f, and the encoder that generates fresh symbols. It computes
// the estimated received count k̃_b (Eq. 8) and the expected decoding
// failure probability δ̃_b (Def. 3), and reports block completion with
// the sender-measured delivery delay (first symbol sent → decode ACK).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/block_source.h"
#include "core/params.h"
#include "fountain/codec.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace fmtcp::core {

/// One open (created, not yet confirmed-decoded) block at the sender.
struct SenderBlock {
  net::BlockId id = 0;
  std::uint32_t k_hat = 0;
  std::uint32_t k_bar = 0;  ///< Receiver-confirmed independent symbols.
  bool decoded = false;     ///< Receiver confirmed full decode.
  /// l_b^f: symbols of this block inside subflow f's window, indexed by
  /// subflow id (grown on the first send from a subflow).
  std::vector<std::uint32_t> in_flight;
  std::uint64_t symbols_sent = 0;
  SimTime first_symbol_sent = kNever;
  fountain::SymbolEncoder encoder;  ///< Field per params.coding_field.

  /// `source` may be null (deterministic content). `pool`, when set,
  /// supplies the encoder's symbol payload buffers.
  SenderBlock(net::BlockId id, const FmtcpParams& params, Rng rng,
              BlockSource* source, BufferPool* pool);

  std::uint32_t total_in_flight() const;
};

class BlockManager {
 public:
  /// `on_complete(block_id, delivery_delay)` fires when the decode ACK
  /// for a block first arrives.
  using CompletionCallback =
      std::function<void(net::BlockId, SimTime delay)>;

  /// `source` supplies block payloads; null = deterministic content.
  /// When set, can_open() additionally requires the source to have the
  /// data ready (application-limited sending).
  BlockManager(sim::Simulator& simulator, const FmtcpParams& params,
               CompletionCallback on_complete,
               BlockSource* source = nullptr);

  const FmtcpParams& params() const { return params_; }

  /// Blocks still open, in id order.
  const std::deque<SenderBlock>& open_blocks() const { return blocks_; }
  std::deque<SenderBlock>& open_blocks() { return blocks_; }

  /// Finds an open block; nullptr if closed (decoded) or never created.
  SenderBlock* find(net::BlockId id);
  const SenderBlock* find(net::BlockId id) const;

  /// Id the next created block will get.
  net::BlockId next_block_id() const { return next_id_; }

  /// True if `extra` more blocks could be opened right now (pending-block
  /// cap and the application's total-block limit).
  bool can_open(std::uint64_t extra = 1) const;

  /// Creates (if necessary) and returns the block with `id`; `id` must be
  /// the next unopened id when creating. Respects can_open().
  SenderBlock& ensure_block(net::BlockId id);

  /// k̃_b (Eq. 8): k̄_b + Σ_f l_b^f (1 - p_f), summed in ascending
  /// subflow order. `loss_of(f)` supplies p_f; it is not called for
  /// subflows with nothing in flight, whose term is zero.
  template <typename LossOf>
  double k_tilde(const SenderBlock& block, const LossOf& loss_of) const {
    double estimate = static_cast<double>(block.k_bar);
    for (std::uint32_t f = 0; f < block.in_flight.size(); ++f) {
      const std::uint32_t count = block.in_flight[f];
      if (count == 0) continue;
      estimate += static_cast<double>(count) * (1.0 - loss_of(f));
    }
    return estimate;
  }

  // --- Event handlers -----------------------------------------------

  /// `count` fresh symbols of `block` entered subflow `f`'s window.
  void on_symbols_sent(net::BlockId block, std::uint32_t subflow,
                       std::uint32_t count);

  /// Symbols left the window because their segment was cumulatively acked.
  void on_symbols_acked(net::BlockId block, std::uint32_t subflow,
                        std::uint32_t count);

  /// Symbols left the window because their segment was declared lost.
  void on_symbols_lost(net::BlockId block, std::uint32_t subflow,
                       std::uint32_t count);

  /// One segment's symbols left subflow `subflow`'s window, acked or
  /// lost: one on_symbols_acked/on_symbols_lost call per run of
  /// same-block symbols (senders write each block's symbols as one run).
  void account_symbols(const std::vector<net::EncodedSymbol>& symbols,
                       std::uint32_t subflow, bool acked);

  /// Receiver feedback for one block (k̄_b and the decoded flag).
  void on_block_ack(const net::BlockAck& ack);

  // --- Counters -------------------------------------------------------
  std::uint64_t blocks_completed() const { return completed_; }
  std::uint64_t total_symbols_sent() const { return symbols_sent_; }

 private:
  void maybe_close_front();

  sim::Simulator& simulator_;
  FmtcpParams params_;
  CompletionCallback on_complete_;
  BlockSource* source_;
  Rng encoder_rng_;
  std::deque<SenderBlock> blocks_;
  net::BlockId next_id_ = 0;
  /// Blocks fully closed (decoded and popped): ids below this are closed.
  net::BlockId closed_below_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t symbols_sent_ = 0;
};

}  // namespace fmtcp::core
