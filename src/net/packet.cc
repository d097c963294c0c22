#include "net/packet.h"

#include <atomic>

namespace fmtcp::net {

namespace {
// Atomic so parallel simulations (harness/sweep.h) can share the counter.
std::atomic<std::uint64_t> g_next_uid{1};
}  // namespace

std::uint64_t next_packet_uid() {
  return g_next_uid.fetch_add(1, std::memory_order_relaxed);
}

void finalize_size(Packet& p, std::size_t payload) {
  p.size_bytes = kHeaderBytes + payload;
}

}  // namespace fmtcp::net
