// Application-data interfaces for FMTCP.
//
// The sender pulls coding blocks from a BlockSource; the receiver hands
// decoded, in-order blocks to a BlockSink. Without them the sender
// encodes deterministic pseudo-random content and the receiver verifies
// it byte-exactly (every simulation doubles as an integrity check); the
// stream adapters in core/stream.h carry real application bytes instead.
#pragma once

#include <cstdint>

#include "fountain/block.h"
#include "net/packet.h"

namespace fmtcp::core {

/// Supplies the sender's block payloads.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// True if block `id` can be built right now. Blocks must become
  /// available in order: has_block(id) implies has_block(id') for all
  /// id' < id that were ever requested.
  virtual bool has_block(net::BlockId id) = 0;

  /// Builds block `id` (exactly `symbols` x `symbol_bytes`). Called at
  /// most once per id, in order, only after has_block(id) returned true.
  virtual fountain::BlockData build_block(net::BlockId id,
                                          std::uint32_t symbols,
                                          std::size_t symbol_bytes) = 0;
};

/// Consumes decoded blocks at the receiver, in block-id order.
class BlockSink {
 public:
  virtual ~BlockSink() = default;

  /// Block `id` decoded and all predecessors already delivered.
  virtual void on_block(net::BlockId id,
                        const fountain::BlockData& block) = 0;
};

}  // namespace fmtcp::core
