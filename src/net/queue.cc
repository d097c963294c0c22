#include "net/queue.h"

#include <utility>

#include "common/check.h"

namespace fmtcp::net {

DropTailQueue::DropTailQueue(std::size_t max_packets, std::size_t max_bytes)
    : max_packets_(max_packets), max_bytes_(max_bytes) {}

bool DropTailQueue::would_overflow(std::size_t bytes) const {
  const bool over_packets =
      max_packets_ != 0 && queue_.size() >= max_packets_;
  const bool over_bytes = max_bytes_ != 0 && bytes_ + bytes > max_bytes_;
  return over_packets || over_bytes;
}

bool DropTailQueue::push(Packet p) {
  if (would_overflow(p.size_bytes)) {
    ++drops_;
    return false;
  }
  bytes_ += p.size_bytes;
  queue_.push_back(std::move(p));
  return true;
}

Packet DropTailQueue::pop() {
  FMTCP_CHECK(!queue_.empty());
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  FMTCP_DCHECK(bytes_ >= p.size_bytes);
  bytes_ -= p.size_bytes;
  return p;
}

}  // namespace fmtcp::net
