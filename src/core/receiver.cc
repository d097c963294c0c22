#include "core/receiver.h"

#include <algorithm>

#include "common/check.h"
#include "fountain/block.h"

namespace fmtcp::core {

namespace {
/// How many freshly decoded blocks keep appearing in ACKs so a lost
/// decode notification is repaired by later ACKs.
constexpr std::size_t kRecentlyDecodedEcho = 4;
}  // namespace

FmtcpReceiver::FmtcpReceiver(sim::Simulator& simulator,
                             const FmtcpParams& params,
                             metrics::GoodputMeter* goodput,
                             BlockSink* sink, obs::Observer* observer)
    : simulator_(simulator),
      params_(params),
      goodput_(goodput),
      sink_(sink),
      obs_(observer) {
  params_.validate();
  if (obs_ != nullptr) {
    obs_symbols_ = obs_->metrics.counter("fmtcp.symbols_received");
    obs_redundant_ = obs_->metrics.counter("fmtcp.redundant_symbols");
    obs_blocks_decoded_ = obs_->metrics.counter("fmtcp.blocks_decoded");
    obs_blocks_delivered_ =
        obs_->metrics.counter("fmtcp.blocks_delivered");
    obs_payload_bytes_ = obs_->metrics.counter("fountain.payload_bytes");
    obs_coeff_work_ = obs_->metrics.counter("fountain.coeff_work");
    obs_rows_composed_ = obs_->metrics.counter("fountain.rows_composed");
  }
}

FmtcpReceiver::~FmtcpReceiver() {
  for (const auto& [id, decoder] : decoders_) note_coding_cost(decoder);
}

void FmtcpReceiver::note_coding_cost(const fountain::SymbolDecoder& decoder) {
  obs_payload_bytes_.inc(decoder.payload_bytes());
  obs_coeff_work_.inc(decoder.coeff_work());
  obs_rows_composed_.inc(decoder.rows_composed());
}

bool FmtcpReceiver::is_decoded(net::BlockId id) const {
  return id < deliver_next_ || decoded_waiting_.count(id) != 0;
}

void FmtcpReceiver::note_redundant(std::uint32_t subflow,
                                   net::BlockId block,
                                   std::uint32_t rank) {
  obs_redundant_.inc();
  if (obs_ != nullptr) {
    obs_->timeline.emit({obs::EventType::kRedundantSymbol, subflow,
                         simulator_.now(), block,
                         static_cast<double>(rank), 0.0});
  }
}

void FmtcpReceiver::on_segment(std::uint32_t subflow, net::Packet& p) {
  // Payload bytes are moved off the packet (into the decoder or back to
  // the simulator's buffer pool); symbol metadata stays for fill_ack.
  for (net::EncodedSymbol& symbol : p.symbols) {
    ++symbols_received_;
    obs_symbols_.inc();
    if (is_decoded(symbol.block)) {
      ++redundant_symbols_;
      note_redundant(subflow, symbol.block,
                     /*rank=*/symbol.block_symbols);
      simulator_.buffer_pool().release(std::move(symbol.data));
      continue;
    }
    auto [it, inserted] = decoders_.try_emplace(
        symbol.block, params_.coding_field, symbol.block_symbols,
        params_.symbol_bytes, &simulator_.buffer_pool());
    fountain::SymbolDecoder& decoder = it->second;
    if (!decoder.add_symbol(std::move(symbol))) {
      ++redundant_symbols_;  // Linearly dependent; dropped (§III-B).
      note_redundant(subflow, symbol.block, decoder.rank());
      continue;
    }
    ++buffered_rows_;
    if (obs_ != nullptr) {
      obs_->timeline.emit({obs::EventType::kRankProgress, subflow,
                           simulator_.now(), symbol.block,
                           static_cast<double>(decoder.rank()),
                           static_cast<double>(symbol.block_symbols)});
    }
    if (decoder.complete()) {
      if (sink_ != nullptr) {
        decoded_data_.emplace(symbol.block, decoder.decode(decode_scratch_));
      } else {
        // No application sink: verify against the deterministic content.
        if (!fountain::matches_deterministic_block(
                symbol.block, decoder.decode(decode_scratch_))) {
          payload_ok_ = false;
        }
      }
      decoded_waiting_.insert(symbol.block);
      recently_decoded_.push_front(symbol.block);
      if (recently_decoded_.size() > kRecentlyDecodedEcho) {
        recently_decoded_.pop_back();
      }
      obs_blocks_decoded_.inc();
      if (obs_ != nullptr) {
        obs_->timeline.emit(
            {obs::EventType::kBlockDecoded, subflow, simulator_.now(),
             symbol.block, static_cast<double>(decoder.received_count()),
             static_cast<double>(decoder.redundant_count())});
      }
      note_coding_cost(decoder);
      buffered_rows_ -= decoder.rank();
      decoders_.erase(it);
      deliver_ready_blocks();
    }
  }
  note_buffer_occupancy();
}

void FmtcpReceiver::deliver_ready_blocks() {
  while (decoded_waiting_.erase(deliver_next_) != 0) {
    if (sink_ != nullptr) {
      const auto it = decoded_data_.find(deliver_next_);
      FMTCP_CHECK(it != decoded_data_.end());
      sink_->on_block(deliver_next_, it->second);
      decoded_data_.erase(it);
    }
    if (goodput_ != nullptr) {
      goodput_->on_delivered(simulator_.now(), params_.block_bytes());
    }
    ++blocks_delivered_;
    obs_blocks_delivered_.inc();
    if (obs_ != nullptr) {
      obs_->timeline.emit({obs::EventType::kBlockDelivered, 0,
                           simulator_.now(), deliver_next_,
                           static_cast<double>(blocks_delivered_), 0.0});
    }
    ++deliver_next_;
  }
}

void FmtcpReceiver::note_buffer_occupancy() {
  // Every decoder still open is undecoded and holds one symbol row per
  // unit of rank.
  const std::size_t occupancy =
      decoded_waiting_.size() * params_.block_bytes() +
      buffered_rows_ * params_.symbol_bytes;
  max_buffered_ = std::max(max_buffered_, occupancy);
}

net::BlockAck FmtcpReceiver::make_block_ack(net::BlockId id) const {
  net::BlockAck ack;
  ack.block = id;
  if (is_decoded(id)) {
    ack.independent_symbols = params_.block_symbols;
    ack.decoded = true;
    return ack;
  }
  const auto it = decoders_.find(id);
  ack.independent_symbols = it == decoders_.end() ? 0 : it->second.rank();
  return ack;
}

void FmtcpReceiver::fill_ack(std::uint32_t /*subflow*/,
                             const net::Packet& data, net::Packet& ack,
                             std::size_t& /*extra_bytes*/) {
  std::vector<net::BlockId>& mentioned = ack_blocks_;
  mentioned.clear();
  // Blocks whose symbols rode this data packet.
  for (const net::EncodedSymbol& symbol : data.symbols) {
    mentioned.push_back(symbol.block);
  }
  // The first block still being decoded (drives R2 at the sender).
  if (!decoders_.empty()) mentioned.push_back(decoders_.begin()->first);
  // Recently decoded blocks, so a lost decode notification heals.
  for (net::BlockId id : recently_decoded_) mentioned.push_back(id);
  // One ack per block, in id order.
  std::sort(mentioned.begin(), mentioned.end());
  mentioned.erase(std::unique(mentioned.begin(), mentioned.end()),
                  mentioned.end());

  ack.block_acks.reserve(mentioned.size());
  for (net::BlockId id : mentioned) {
    ack.block_acks.push_back(make_block_ack(id));
  }
}

}  // namespace fmtcp::core
