#include "core/allocator.h"

#include "common/check.h"
#include "fountain/random_linear.h"

namespace fmtcp::core {

namespace {
/// Safety valve on the virtual-allocation loop; in sane configurations the
/// pending subflow is reached within a few window-loads of rounds.
constexpr int kMaxRounds = 100000;
}  // namespace

std::uint32_t PacketPlan::total_symbols() const {
  std::uint32_t total = 0;
  for (const Entry& e : entries) total += e.symbols;
  return total;
}

Allocator::Allocator(const AllocatorEnv& env, AllocationMode mode)
    : env_(env), mode_(mode) {}

Allocator::Candidate* Allocator::candidate(std::size_t index) {
  if (index < candidates_.size()) return &candidates_[index];
  // fill_packet walks the candidates in order, so the first unseen
  // index is always the next one.
  FMTCP_DCHECK(index == candidates_.size());
  if (exhausted_) return nullptr;
  const std::optional<net::BlockId> id = env_.block_at(index);
  if (!id.has_value()) {
    exhausted_ = true;
    return nullptr;
  }
  candidates_.push_back(
      {*id, env_.block_k_hat(*id), env_.real_k_tilde(*id), 0.0});
  return &candidates_.back();
}

// Builds the description vector V for one packet on subflow `snap`,
// consuming blocks in sequence order (rules R1/R2): symbols go to the
// first block that is not yet δ̂-complete under real + virtual k̃.
std::uint32_t Allocator::fill_packet(const SubflowSnapshot& snap,
                                     PacketPlan* plan) {
  std::size_t used = 0;
  std::uint32_t placed = 0;
  for (std::size_t bi = 0;; ++bi) {
    if (used + sym_bytes_ > snap.mss_payload) break;
    Candidate* c = candidate(bi);
    if (c == nullptr) break;
    double k = c->real_k + c->virtual_k;
    std::uint32_t count = 0;
    while (used + sym_bytes_ <= snap.mss_payload &&
           fountain::decode_failure_probability(c->k_hat, k) >= delta_hat_) {
      ++count;
      used += sym_bytes_;
      k += 1.0 - snap.loss;
    }
    if (count > 0) {
      if (plan != nullptr) plan->entries.push_back({c->id, count});
      c->virtual_k = k - c->real_k;
      placed += count;
    }
  }
  if (plan != nullptr) plan->payload_bytes = used;
  return placed;
}

const PacketPlan* Allocator::serve(const SubflowSnapshot& snap) {
  plan_.entries.clear();
  if (fill_packet(snap, &plan_) == 0) return nullptr;
  return &plan_;
}

const PacketPlan* Allocator::allocate(std::uint32_t pending_id) {
  env_.subflow_snapshots(snaps_);
  const std::vector<SubflowSnapshot>& snaps = snaps_;
  FMTCP_CHECK(!snaps.empty());
  bool pending_found = false;
  for (const SubflowSnapshot& s : snaps) {
    pending_found = pending_found || s.id == pending_id;
  }
  FMTCP_CHECK(pending_found);

  delta_hat_ = env_.delta_hat();
  sym_bytes_ = env_.symbol_wire_bytes();
  candidates_.clear();
  exhausted_ = false;
  assigned_.assign(snaps.size(), 0);

  if (mode_ == AllocationMode::kGreedy) {
    for (const SubflowSnapshot& s : snaps) {
      if (s.id == pending_id) return serve(s);
    }
    return nullptr;
  }

  for (int round = 0; round < kMaxRounds; ++round) {
    // f <- argmin_g EAT_g (ties to the lower subflow id).
    std::size_t best = 0;
    SimTime best_eat = kNever;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      const SimTime eat = expected_arrival_time(snaps[i], assigned_[i]);
      if (eat < best_eat ||
          (eat == best_eat && snaps[i].id < snaps[best].id)) {
        best = i;
        best_eat = eat;
      }
    }

    if (snaps[best].id == pending_id) return serve(snaps[best]);
    // An empty packet means every reachable block is δ̂-complete: rule R1
    // forbids sending anything, on this subflow or any other.
    if (fill_packet(snaps[best], nullptr) == 0) return nullptr;
    ++assigned_[best];
  }

  // Degenerate EAT configuration: serve the pending subflow directly
  // rather than spin (virtual k̃ built so far is kept, erring toward
  // fewer redundant symbols).
  for (const SubflowSnapshot& s : snaps) {
    if (s.id == pending_id) return serve(s);
  }
  return nullptr;
}

}  // namespace fmtcp::core
