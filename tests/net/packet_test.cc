#include "net/packet.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

namespace fmtcp::net {
namespace {

TEST(Packet, UidsAreUniqueAndMonotonic) {
  const std::uint64_t a = next_packet_uid();
  const std::uint64_t b = next_packet_uid();
  EXPECT_LT(a, b);
}

TEST(Packet, GlobalUidsUniqueAcrossThreads) {
  // The process-global fallback counter is atomic so concurrent sweeps
  // that reach it never hand out duplicate uids.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&drawn, t] {
      drawn[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        drawn[t].push_back(next_packet_uid());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::uint64_t> unique;
  for (const auto& uids : drawn) unique.insert(uids.begin(), uids.end());
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Packet, FinalizeSizeAddsHeader) {
  Packet p;
  finalize_size(p, 1000);
  EXPECT_EQ(p.size_bytes, 1000 + kHeaderBytes);
  finalize_size(p, 0);
  EXPECT_EQ(p.size_bytes, kHeaderBytes);
}

TEST(Packet, DefaultsAreSane) {
  Packet p;
  EXPECT_EQ(p.kind, PacketKind::kData);
  EXPECT_TRUE(p.symbols.empty());
  EXPECT_TRUE(p.block_acks.empty());
  EXPECT_EQ(p.data_len, 0u);
}

TEST(EncodedSymbol, CarriesBlockGeometry) {
  EncodedSymbol s;
  s.block = 42;
  s.block_symbols = 64;
  s.coeff_seed = 7;
  EXPECT_EQ(s.block, 42u);
  EXPECT_TRUE(s.data.empty());  // No payload by default.
}

}  // namespace
}  // namespace fmtcp::net
