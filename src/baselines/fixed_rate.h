// Fixed-rate FEC multipath baseline (paper §III-B analysis).
//
// Each block of A source symbols is pre-encoded into a fixed batch of
// a = ceil(A / (1 - p̂)) symbols under an MDS assumption (any A distinct
// symbols recover the block), where p̂ is the loss rate the scheme
// *assumed* when it chose the rate. If the actual loss exceeds p̂, the
// batch is insufficient and the sender must fall back to ARQ top-up
// rounds — the retransmission blow-up Eq. 3–6 quantify.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "metrics/block_stats.h"
#include "metrics/goodput.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "tcp/wiring.h"

namespace fmtcp::baselines {

struct FixedRateParams {
  std::uint32_t block_symbols = 64;  ///< A: source symbols per block.
  std::size_t symbol_bytes = 160;
  std::size_t symbol_header_bytes = 12;
  /// p̂: the loss rate assumed when fixing the code rate.
  double assumed_loss = 0.02;
  std::size_t max_pending_blocks = 32;
  std::uint64_t total_blocks = 0;  ///< 0 = unbounded.

  std::size_t block_bytes() const {
    return static_cast<std::size_t>(block_symbols) * symbol_bytes;
  }
  std::size_t symbol_wire_bytes() const {
    return symbol_bytes + symbol_header_bytes;
  }
  /// a: batch size (Eq. 4).
  std::uint32_t batch_size() const;
};

/// Sender: streams each block's fixed batch in order, then ARQ top-ups.
class FixedRateSender final : public tcp::SegmentProvider {
 public:
  FixedRateSender(sim::Simulator& simulator, const FixedRateParams& params,
                  metrics::BlockDelayRecorder* delays = nullptr);

  void register_subflow(tcp::Subflow* subflow);
  void start();

  std::uint64_t blocks_completed() const { return completed_; }
  std::uint64_t symbols_sent() const { return symbols_sent_; }
  std::uint64_t topup_rounds() const { return topup_rounds_; }

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

 private:
  struct PendingBlock {
    net::BlockId id = 0;
    std::uint32_t received = 0;    ///< Distinct symbols receiver reported.
    std::uint32_t next_symbol = 0; ///< Next symbol index to emit.
    std::uint32_t budget = 0;      ///< Symbols authorised (batch+top-ups).
    std::uint32_t in_flight = 0;
    bool decoded = false;
    SimTime first_sent = kNever;
  };

  PendingBlock* sendable_block();
  void account(const tcp::SegmentContent& content, bool acked);
  /// Coalesced zero-delay re-offer of send opportunities to all subflows.
  void schedule_poke();

  sim::Simulator& simulator_;
  FixedRateParams params_;
  metrics::BlockDelayRecorder* delays_;
  std::vector<tcp::Subflow*> subflows_;
  std::map<net::BlockId, PendingBlock> pending_;
  net::BlockId next_id_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t symbols_sent_ = 0;
  std::uint64_t topup_rounds_ = 0;
  bool poke_pending_ = false;
};

/// Receiver: counts distinct symbol indices per block (MDS decode at A).
class FixedRateReceiver final : public tcp::DataSink {
 public:
  FixedRateReceiver(sim::Simulator& simulator, const FixedRateParams& params,
                    metrics::GoodputMeter* goodput = nullptr);

  void on_segment(std::uint32_t subflow, net::Packet& p) override;
  void fill_ack(std::uint32_t subflow, const net::Packet& data,
                net::Packet& ack, std::size_t& extra_bytes) override;

  std::uint64_t blocks_delivered() const { return blocks_delivered_; }
  std::uint64_t redundant_symbols() const { return redundant_; }

 private:
  bool is_decoded(net::BlockId id) const;
  void deliver_ready();

  sim::Simulator& simulator_;
  FixedRateParams params_;
  metrics::GoodputMeter* goodput_;
  std::map<net::BlockId, std::set<std::uint64_t>> received_;
  std::set<net::BlockId> decoded_waiting_;
  std::deque<net::BlockId> recently_decoded_;
  net::BlockId deliver_next_ = 0;
  /// fill_ack's block list, reused across ACKs.
  std::vector<net::BlockId> ack_blocks_;
  std::uint64_t blocks_delivered_ = 0;
  std::uint64_t redundant_ = 0;
};

struct FixedRateConnectionConfig {
  FixedRateParams params;
  tcp::SubflowConfig subflow;
  SimTime goodput_bin = kSecond;
};

/// Fixed-rate endpoints over tcp::Connection's subflows.
class FixedRateConnection final : public tcp::Connection {
 public:
  /// Unwired: wire() or attach() the subflows, then start().
  FixedRateConnection(sim::Simulator& simulator,
                      const FixedRateConnectionConfig& config);

  void start() override { sender_->start(); }

  FixedRateSender& sender() { return *sender_; }
  FixedRateReceiver& receiver() { return *receiver_; }

  std::uint64_t symbols_sent() const override {
    return sender_->symbols_sent();
  }
  std::uint64_t redundant_symbols() const override {
    return receiver_->redundant_symbols();
  }

 private:
  tcp::SegmentProvider& provider() override { return *sender_; }
  tcp::DataSink& sink() override { return *receiver_; }
  void register_subflow(tcp::Subflow* subflow) override {
    sender_->register_subflow(subflow);
  }

  std::unique_ptr<FixedRateSender> sender_;
  std::unique_ptr<FixedRateReceiver> receiver_;
};

}  // namespace fmtcp::baselines
