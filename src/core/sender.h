// FMTCP sender: block management + Algorithm 1 allocation, wired into the
// TCP subflows as their SegmentProvider (paper Fig. 1 architecture).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/allocator.h"
#include "core/block_manager.h"
#include "core/params.h"
#include "metrics/block_stats.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"

namespace fmtcp::core {

class FmtcpSender final : public tcp::SegmentProvider, public AllocatorEnv {
 public:
  /// `delays` may be null; when set, receives one sample per completed
  /// block (sender-measured: first symbol sent → decode ACK, §V).
  /// `source` may be null (deterministic payloads); when set, block
  /// payloads come from the application (see core/stream.h).
  /// `observer` may be null; when set, allocation decisions and EAT
  /// prediction/outcome pairs land on its timeline and fmtcp.* metrics.
  FmtcpSender(sim::Simulator& simulator, const FmtcpParams& params,
              metrics::BlockDelayRecorder* delays = nullptr,
              BlockSource* source = nullptr,
              obs::Observer* observer = nullptr);

  /// The application produced new data (the BlockSource can now build
  /// more blocks): re-offers send opportunities to every subflow.
  void notify_data_available() { schedule_poke(); }

  /// Registers a subflow; ids must be dense starting at 0, registration
  /// order == id order. Called during connection wiring.
  void register_subflow(tcp::Subflow* subflow);

  /// Kicks every subflow once the topology is wired.
  void start();

  BlockManager& blocks() { return blocks_; }
  const BlockManager& blocks() const { return blocks_; }

  // --- tcp::SegmentProvider ------------------------------------------
  std::optional<tcp::SegmentContent> next_segment(
      std::uint32_t subflow) override;
  std::optional<tcp::SegmentContent> retransmit_segment(
      std::uint32_t subflow, std::uint64_t seq) override;
  void on_segment_acked(std::uint32_t subflow, std::uint64_t seq,
                        const tcp::SegmentContent& content) override;
  void on_segment_lost(std::uint32_t subflow, std::uint64_t seq,
                       const tcp::SegmentContent& content) override;
  void on_ack_info(std::uint32_t subflow, const net::Packet& ack) override;

  // --- AllocatorEnv ----------------------------------------------------
  void subflow_snapshots(std::vector<SubflowSnapshot>& out) const override;
  std::optional<net::BlockId> block_at(std::size_t index) const override;
  std::uint32_t block_k_hat(net::BlockId block) const override;
  double real_k_tilde(net::BlockId block) const override;
  double delta_hat() const override { return params_.delta_hat; }
  std::size_t symbol_wire_bytes() const override {
    return params_.symbol_wire_bytes();
  }

  /// p_f used in Eq. 8: the subflow's live loss estimate.
  double loss_of(std::uint32_t subflow) const;

 private:
  tcp::SegmentContent materialize(const PacketPlan& plan,
                                  std::uint32_t subflow);
  void account_symbols(const tcp::SegmentContent& content,
                       std::uint32_t subflow, bool acked);

  /// Schedules a coalesced zero-delay event that re-offers a send
  /// opportunity to every subflow. Called whenever allocation inputs
  /// change (k̄ update, in-flight drain): a subflow that was refused
  /// symbols earlier may be the only one able to carry them now, and
  /// without this the connection can idle with open blocks (no ACKs in
  /// flight => no events => deadlock).
  void schedule_poke();

  sim::Simulator& simulator_;
  FmtcpParams params_;
  BlockManager blocks_;
  Allocator allocator_;
  std::vector<tcp::Subflow*> subflows_;
  bool poke_pending_ = false;

  // Observability (no-ops when obs_ is null).
  obs::Observer* obs_ = nullptr;
  std::uint64_t eat_samples_ = 0;
  obs::Counter obs_allocations_;
  obs::Counter obs_symbols_allocated_;
  obs::Histogram obs_eat_error_ms_;
};

}  // namespace fmtcp::core
