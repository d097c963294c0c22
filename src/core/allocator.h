// Data-allocation Algorithm 1 (paper §IV-B) with virtual allocation.
//
// When subflow f_p has a transmission opportunity, the allocator repeats:
// pick the subflow with the smallest EAT, virtually fill one packet for it
// with symbols of the first blocks whose expected decoding-failure
// probability δ̃ is still ≥ δ̂ (rules R1/R2), advance that subflow's EAT —
// until the chosen subflow *is* f_p, whose packet plan is returned and
// materialised by the sender. Virtual assignments are per-call scratch
// state only, exactly as §IV-B describes ("no need to physically generate
// symbols ... when f_v has transmission opportunity later, it will trigger
// the allocation algorithm [again]").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/eat.h"
#include "core/params.h"
#include "net/packet.h"

namespace fmtcp::core {

/// What to put into one packet: the description vector V of Algorithm 1.
struct PacketPlan {
  struct Entry {
    net::BlockId block;
    std::uint32_t symbols;
  };
  std::vector<Entry> entries;
  std::size_t payload_bytes = 0;

  std::uint32_t total_symbols() const;
};

/// State the allocator reads; implemented by FmtcpSender, mocked in tests.
class AllocatorEnv {
 public:
  virtual ~AllocatorEnv() = default;

  /// Replaces `out` with a snapshot of every subflow, indexed by
  /// position (ids unique).
  virtual void subflow_snapshots(std::vector<SubflowSnapshot>& out) const = 0;

  /// Id of the index-th allocatable block in sequence order (ids
  /// unique). Existing open blocks come first; ids past them are
  /// *prospective* blocks the application could still supply (respecting
  /// the pending-block cap), or nullopt when exhausted (and for every
  /// later index).
  virtual std::optional<net::BlockId> block_at(std::size_t index) const = 0;

  /// k̂ of `block`.
  virtual std::uint32_t block_k_hat(net::BlockId block) const = 0;

  /// Real (non-virtual) k̃ of `block` from current k̄/in-flight state
  /// (Eq. 8). Prospective blocks report 0.
  virtual double real_k_tilde(net::BlockId block) const = 0;

  /// δ̂ threshold.
  virtual double delta_hat() const = 0;

  /// Wire bytes per symbol inside a packet.
  virtual std::size_t symbol_wire_bytes() const = 0;
};

class Allocator {
 public:
  explicit Allocator(const AllocatorEnv& env,
                     AllocationMode mode = AllocationMode::kEatVirtual);

  /// Runs Algorithm 1 for the pending subflow `pending_id`: its packet
  /// plan, or null when there is nothing to send (every reachable block
  /// is δ̂-complete). The plan is the allocator's own and stays valid
  /// until the next call. In kGreedy mode the virtual-allocation loop is
  /// skipped and the pending subflow is served the first incomplete
  /// blocks directly.
  const PacketPlan* allocate(std::uint32_t pending_id);

  AllocationMode mode() const { return mode_; }

 private:
  /// One block the current allocate() call may fill. The env is asked
  /// for its id, k̂ and real k̃ once per call; `virtual_k` is the
  /// weighted contribution of the symbols virtually placed on it so far:
  /// each symbol placed on subflow f adds (1 - p_f), mirroring Eq. 8.
  struct Candidate {
    net::BlockId id;
    std::uint32_t k_hat;
    double real_k;
    double virtual_k;
  };

  /// The index-th candidate, fetched from the env on first use in this
  /// call; null once the stream is exhausted.
  Candidate* candidate(std::size_t index);

  /// Fills one packet for `snap` (rules R1/R2), updating the candidates'
  /// virtual k̃, and records its entries into `plan` when non-null.
  /// Returns the symbols placed.
  std::uint32_t fill_packet(const SubflowSnapshot& snap, PacketPlan* plan);

  /// fill_packet for the pending subflow into plan_: the plan, or null
  /// if empty.
  const PacketPlan* serve(const SubflowSnapshot& snap);

  const AllocatorEnv& env_;
  AllocationMode mode_;

  // Per-call scratch, kept across calls so a call allocates nothing.
  std::vector<SubflowSnapshot> snaps_;
  std::vector<Candidate> candidates_;
  bool exhausted_ = false;  ///< block_at(candidates_.size()) is nullopt.
  std::vector<std::uint64_t> assigned_;  ///< Virtual packets per subflow.
  double delta_hat_ = 0.0;
  std::size_t sym_bytes_ = 0;
  PacketPlan plan_;  ///< What allocate() returns.
};

}  // namespace fmtcp::core
