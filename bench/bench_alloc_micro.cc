// Microbenchmarks (google-benchmark): Algorithm 1 allocation cost as the
// number of pending blocks and subflows grows — the §IV-B complexity
// claim O(m + MSS_f · log n) motivates keeping this off the critical
// path's hot loop.
#include <benchmark/benchmark.h>

#include <map>

#include "core/allocator.h"

namespace {

using namespace fmtcp;
using namespace fmtcp::core;

/// Static environment with `blocks` half-filled pending blocks and
/// `subflows` identical subflows.
class StaticEnv final : public AllocatorEnv {
 public:
  StaticEnv(std::size_t subflows, std::size_t blocks) : blocks_(blocks) {
    for (std::size_t i = 0; i < subflows; ++i) {
      SubflowSnapshot s;
      s.id = static_cast<std::uint32_t>(i);
      s.mss_payload = 1204;
      s.window_space = 4;
      s.cwnd = 10.0;
      s.edt = from_ms(50 + 30 * static_cast<std::int64_t>(i));
      s.rt = 2 * s.edt;
      s.loss = 0.02 * static_cast<double>(i);
      snaps_.push_back(s);
    }
  }

  void subflow_snapshots(std::vector<SubflowSnapshot>& out) const override {
    out = snaps_;
  }
  std::optional<net::BlockId> block_at(std::size_t index) const override {
    if (index < blocks_) return index;
    return std::nullopt;
  }
  std::uint32_t block_k_hat(net::BlockId) const override { return 64; }
  double real_k_tilde(net::BlockId id) const override {
    return id == 0 ? 60.0 : 0.0;  // Front block nearly done.
  }
  double delta_hat() const override { return 0.05; }
  std::size_t symbol_wire_bytes() const override { return 172; }

 private:
  std::vector<SubflowSnapshot> snaps_;
  std::size_t blocks_;
};

void BM_AllocatePacket(benchmark::State& state) {
  StaticEnv env(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  Allocator allocator(env);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(0));
  }
}
BENCHMARK(BM_AllocatePacket)
    ->Args({2, 8})
    ->Args({2, 64})
    ->Args({2, 512})
    ->Args({4, 64})
    ->Args({8, 64});

void BM_AllocateForSlowestSubflow(benchmark::State& state) {
  // Worst case: the pending subflow has the highest EAT, so the virtual
  // loop walks the other subflows' windows first.
  StaticEnv env(static_cast<std::size_t>(state.range(0)), 256);
  Allocator allocator(env);
  const auto pending =
      static_cast<std::uint32_t>(state.range(0) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(pending));
  }
}
BENCHMARK(BM_AllocateForSlowestSubflow)->Arg(2)->Arg(4)->Arg(8);

void BM_GreedyAllocate(benchmark::State& state) {
  StaticEnv env(2, static_cast<std::size_t>(state.range(0)));
  Allocator allocator(env, AllocationMode::kGreedy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(0));
  }
}
BENCHMARK(BM_GreedyAllocate)->Arg(8)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
