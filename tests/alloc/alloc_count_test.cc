// Heap allocations per data segment in each protocol's default cell.
//
// This binary replaces the global operator new with a counting one, so
// it runs alone: no other suite shares its allocator. Each test builds
// the cell through harness::make_connection (the Table-I paths, path 2
// at 10% loss, ProtocolOptions::defaults()), runs it to t = 10 s, then
// counts every allocation from t = 10 s to t = 40 s and divides by the
// data segments the subflows put on the wire in that window (new
// segments plus retransmissions). The count is deterministic per seed,
// so the bounds below are exact regressions, not timing noise. Each
// bound sits just above what the protocol measures today; lower it when
// a change removes allocations from the per-packet path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "fountain/coding_field.h"
#include "harness/scenario.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "tcp/wiring.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fmtcp::harness {
namespace {

std::uint64_t data_segments(tcp::Connection& connection) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < connection.subflow_count(); ++i) {
    total += connection.subflow(i).segments_sent() +
             connection.subflow(i).retransmissions();
  }
  return total;
}

/// Allocations per data segment from t = 10 s to t = 40 s of the
/// default cell.
double allocations_per_segment(
    Protocol protocol,
    fountain::CodingField field = fountain::CodingField::kGf2) {
  sim::Simulator simulator(1);
  Scenario scenario;
  scenario.path2 = {100.0, 0.10};
  net::Topology topology(simulator, {scenario.path_config(scenario.path1),
                                     scenario.path_config(scenario.path2)});
  ProtocolOptions options = ProtocolOptions::defaults();
  options.fmtcp.coding_field = field;
  const std::unique_ptr<tcp::Connection> connection =
      make_connection(protocol, simulator, options, nullptr);
  connection->wire(topology);
  connection->start();
  simulator.run_until(10 * kSecond);

  const std::uint64_t segments_before = data_segments(*connection);
  g_allocations = 0;
  g_counting = true;
  simulator.run_until(40 * kSecond);
  g_counting = false;
  const std::uint64_t segments =
      data_segments(*connection) - segments_before;
  EXPECT_GT(segments, 1000u);
  EXPECT_TRUE(connection->payload_verified());
  const double per_segment =
      static_cast<double>(g_allocations) / static_cast<double>(segments);
  std::printf("%s: %llu allocations / %llu segments = %.2f per segment\n",
              protocol_name(protocol),
              static_cast<unsigned long long>(g_allocations),
              static_cast<unsigned long long>(segments), per_segment);
  return per_segment;
}

// Measured at seed 1 (GCC 12.2, libstdc++): FMTCP 9.25 (gf2) and 9.41
// (gf256), MPTCP 6.94, HMTP 8.84, fixed-rate 15.61.
TEST(AllocationCount, FmtcpGf2) {
  EXPECT_LE(allocations_per_segment(Protocol::kFmtcp), 10.0);
}

TEST(AllocationCount, FmtcpGf256) {
  EXPECT_LE(allocations_per_segment(Protocol::kFmtcp,
                                    fountain::CodingField::kGf256),
            10.0);
}

TEST(AllocationCount, Mptcp) {
  EXPECT_LE(allocations_per_segment(Protocol::kMptcp), 7.0);
}

TEST(AllocationCount, Hmtp) {
  EXPECT_LE(allocations_per_segment(Protocol::kHmtp), 9.0);
}

TEST(AllocationCount, FixedRate) {
  EXPECT_LE(allocations_per_segment(Protocol::kFixedRate), 16.0);
}

}  // namespace
}  // namespace fmtcp::harness
