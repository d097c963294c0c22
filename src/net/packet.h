// Wire packet model shared by every protocol in the repository.
//
// One struct covers all protocols: a packet is either a data segment or an
// ACK, with optional MPTCP data-sequence mapping and optional FMTCP symbol
// payloads / block-acknowledgement fields. A real implementation would use
// TCP options; in the simulator the fields live side by side and the wire
// size is accounted for explicitly in `size_bytes`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/time.h"

namespace fmtcp::net {

/// Identifier of a data block (FMTCP coding unit), assigned sequentially
/// from 0 by the sender.
using BlockId = std::uint64_t;

/// One encoded fountain symbol carried in a packet.
///
/// The coefficient vector is not shipped explicitly: like practical
/// fountain deployments (e.g. RFC 5053 / RaptorQ), the packet carries the
/// PRNG seed from which both ends regenerate the k-bit coefficient vector.
/// `data` carries the encoded bytes; it is empty for the fixed-rate
/// baseline, which counts MDS symbols without coding them (protocol
/// timing is unaffected).
struct EncodedSymbol {
  BlockId block = 0;
  std::uint32_t block_symbols = 0;  ///< k̂ of the block (vector length).
  std::uint64_t coeff_seed = 0;     ///< Seed regenerating the coefficients.
  /// Systematic-code marker: when != kNotSystematic the symbol IS source
  /// symbol `systematic_index` (unit coefficient vector; coeff_seed
  /// unused). Lets a systematic encoder ship plain data first.
  std::uint32_t systematic_index = kNotSystematic;
  /// Encoded payload bytes (optional). AlignedBytes so the 64-byte
  /// alignment a BufferPool establishes survives every move of the
  /// symbol across the packet path (moves never reallocate).
  AlignedBytes data;

  static constexpr std::uint32_t kNotSystematic = UINT32_MAX;

  bool is_systematic() const { return systematic_index != kNotSystematic; }
};

/// Per-block feedback carried on FMTCP ACKs: the receiver's current count
/// of linearly independent symbols, k̄_b (paper §III-B).
struct BlockAck {
  BlockId block = 0;
  std::uint32_t independent_symbols = 0;  ///< k̄_b.
  bool decoded = false;                   ///< Block fully decoded.
};

enum class PacketKind : std::uint8_t { kData, kAck };

/// A simulated packet. Moved (never copied) through links — copying is
/// deleted so an accidental copy of the payload vectors cannot sneak
/// into the hot path.
struct Packet {
  Packet() = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  Packet(Packet&&) = default;
  Packet& operator=(Packet&&) = default;

  PacketKind kind = PacketKind::kData;

  /// Which subflow this packet belongs to (index into the connection's
  /// subflow array). ACKs travel on the same subflow's reverse path.
  std::uint32_t subflow = 0;

  /// Connection tag for demultiplexing when several connections share a
  /// link (fairness experiments). 0 for single-connection topologies.
  std::uint32_t flow_tag = 0;

  /// Subflow-level segment sequence number (packet granularity). For ACKs,
  /// unused; see `ack_next`.
  std::uint64_t seq = 0;

  /// For ACKs: next expected subflow-level sequence (cumulative ACK).
  std::uint64_t ack_next = 0;

  /// MPTCP: connection-level data sequence number of the first payload
  /// byte (data-sequence mapping). For MPTCP ACKs: connection-level
  /// cumulative ACK (next expected data-sequence byte).
  std::uint64_t data_seq = 0;

  /// MPTCP: payload length in bytes covered by the data-sequence mapping.
  std::uint32_t data_len = 0;

  /// MPTCP ACKs: receive window in bytes (connection-level flow control).
  std::uint32_t window = 0;

  /// FMTCP: encoded symbols carried by a data packet (description vector
  /// V of Algorithm 1, materialised).
  std::vector<EncodedSymbol> symbols;

  /// FMTCP ACKs: per-block decoding feedback.
  std::vector<BlockAck> block_acks;

  /// Optional SACK option: up to a few [start, end) subflow-sequence
  /// ranges received above the cumulative ACK.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack_ranges;

  /// Wire size in bytes, including header overhead; used for link
  /// serialisation time and queue accounting.
  std::size_t size_bytes = 0;

  /// Time the packet was handed to the link (set by the sender; used for
  /// RTT sampling on the ACK path).
  SimTime sent_at = 0;

  /// Echo of the data packet's `sent_at`, set on ACKs (RTT timestamp
  /// option) so senders can take RTT samples without per-packet state.
  SimTime echo_sent_at = 0;

  /// Globally unique id for tracing/debugging.
  std::uint64_t uid = 0;
};

/// Header overhead charged per packet (IP + TCP-like header, bytes).
inline constexpr std::size_t kHeaderBytes = 40;

/// Returns a fresh globally-unique packet uid (monotonic within a process).
std::uint64_t next_packet_uid();

/// Computes and stores `size_bytes` for a data packet carrying `payload`
/// payload bytes.
void finalize_size(Packet& p, std::size_t payload);

}  // namespace fmtcp::net
