// Link queue: the drop-tail FIFO of the paper's setup.
#pragma once

#include <cstdint>
#include <deque>

#include "net/packet.h"

namespace fmtcp::net {

/// Byte- and packet-capacity-bounded FIFO with drop-tail semantics.
class DropTailQueue {
 public:
  /// `max_packets` == 0 means unlimited packet count; `max_bytes` == 0
  /// means unlimited byte count.
  DropTailQueue(std::size_t max_packets, std::size_t max_bytes);

  /// True if a push of `bytes` would be rejected right now.
  bool would_overflow(std::size_t bytes) const;

  /// Enqueues unless the queue is full; returns false (and counts a
  /// drop) otherwise.
  bool push(Packet p);

  /// Pops the head; queue must be non-empty.
  Packet pop();

  bool empty() const { return queue_.empty(); }
  std::size_t packets() const { return queue_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::uint64_t drop_count() const { return drops_; }

 private:
  std::size_t max_packets_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::deque<Packet> queue_;
};

}  // namespace fmtcp::net
