// FMTCP receiver: symbol aggregation, per-block decoding, in-order block
// delivery, and block-ACK feedback (paper §III-A receiver side).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "core/block_source.h"
#include "core/params.h"
#include "fountain/codec.h"
#include "metrics/goodput.h"
#include "net/packet.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"

namespace fmtcp::core {

class FmtcpReceiver final : public tcp::DataSink {
 public:
  /// `goodput` may be null (no measurement). Delivered application bytes
  /// are counted when a block leaves the receive buffer in order.
  /// `sink` may be null; when set it receives every decoded block in id
  /// order — the application-data path (see core/stream.h). Without a
  /// sink each decoded block is verified against its deterministic
  /// content.
  /// `observer` may be null; when set, per-block rank progress,
  /// redundant-symbol detections, and decode completions land on its
  /// timeline and fmtcp.* metrics, and every decoder's coding costs
  /// (SymbolDecoder's accessors) are added to the fountain.payload_bytes,
  /// fountain.coeff_work and fountain.rows_composed counters when the
  /// block decodes, or at destruction for blocks still open.
  FmtcpReceiver(sim::Simulator& simulator, const FmtcpParams& params,
                metrics::GoodputMeter* goodput = nullptr,
                BlockSink* sink = nullptr,
                obs::Observer* observer = nullptr);
  ~FmtcpReceiver() override;

  // tcp::DataSink
  void on_segment(std::uint32_t subflow, net::Packet& p) override;
  void fill_ack(std::uint32_t subflow, const net::Packet& data,
                net::Packet& ack, std::size_t& extra_bytes) override;

  /// Next block id awaited for in-order delivery.
  net::BlockId deliver_next() const { return deliver_next_; }

  std::uint64_t blocks_delivered() const { return blocks_delivered_; }

  /// Symbols that arrived but were linearly dependent or targeted an
  /// already-decoded block (pure redundancy).
  std::uint64_t redundant_symbols() const { return redundant_symbols_; }

  std::uint64_t total_symbols_received() const { return symbols_received_; }

  /// Peak receive-buffer occupancy (undecoded symbol rows + decoded
  /// blocks awaiting in-order delivery).
  std::size_t max_buffered_bytes() const { return max_buffered_; }

  /// False if any decoded block failed payload verification (always
  /// true with a sink, which receives the bytes instead).
  bool payload_verified() const { return payload_ok_; }

 private:
  bool is_decoded(net::BlockId id) const;
  /// Counts a redundant symbol and emits its timeline event.
  void note_redundant(std::uint32_t subflow, net::BlockId block,
                      std::uint32_t rank);
  /// Adds `decoder`'s coding costs to the fountain.* counters.
  void note_coding_cost(const fountain::SymbolDecoder& decoder);
  void deliver_ready_blocks();
  void note_buffer_occupancy();
  net::BlockAck make_block_ack(net::BlockId id) const;

  sim::Simulator& simulator_;
  FmtcpParams params_;
  metrics::GoodputMeter* goodput_;
  BlockSink* sink_;

  std::map<net::BlockId, fountain::SymbolDecoder> decoders_;
  std::set<net::BlockId> decoded_waiting_;  ///< Decoded, awaiting order.
  /// Decoded payloads held for the sink until in-order delivery.
  std::map<net::BlockId, fountain::BlockData> decoded_data_;
  std::deque<net::BlockId> recently_decoded_;
  net::BlockId deliver_next_ = 0;
  /// Symbol rows held by the open decoders (the sum of their ranks).
  std::size_t buffered_rows_ = 0;
  /// fill_ack's block list, reused across ACKs.
  std::vector<net::BlockId> ack_blocks_;

  std::uint64_t blocks_delivered_ = 0;
  std::uint64_t redundant_symbols_ = 0;
  std::uint64_t symbols_received_ = 0;
  std::size_t max_buffered_ = 0;
  bool payload_ok_ = true;

  // Observability (no-ops when obs_ is null).
  obs::Observer* obs_ = nullptr;
  obs::Counter obs_symbols_;
  obs::Counter obs_redundant_;
  obs::Counter obs_blocks_decoded_;
  obs::Counter obs_blocks_delivered_;
  obs::Counter obs_payload_bytes_;
  obs::Counter obs_coeff_work_;
  obs::Counter obs_rows_composed_;
  /// Shared decode() workspace: solve/M4R table storage amortises across
  /// every block this receiver decodes.
  fountain::DecodeScratch decode_scratch_;
};

}  // namespace fmtcp::core
