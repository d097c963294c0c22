#include "core/receiver.h"

#include <gtest/gtest.h>

#include "fountain/block.h"
#include "fountain/codec.h"

namespace fmtcp::core {
namespace {

FmtcpParams small_params() {
  FmtcpParams params;
  params.block_symbols = 8;
  params.symbol_bytes = 16;
  return params;
}

/// Packet carrying `count` fresh symbols of `block` from `encoder`.
net::Packet symbol_packet(fountain::SymbolEncoder& encoder,
                          std::uint32_t count) {
  net::Packet p;
  p.kind = net::PacketKind::kData;
  for (std::uint32_t i = 0; i < count; ++i) {
    p.symbols.push_back(encoder.next_symbol());
  }
  return p;
}

fountain::SymbolEncoder encoder_for(net::BlockId id,
                                    const FmtcpParams& params,
                                    std::uint64_t seed) {
  return fountain::SymbolEncoder(
      fountain::CodingField::kGf2, id,
      fountain::make_deterministic_block(id, params.block_symbols,
                                         params.symbol_bytes),
      Rng(seed));
}

struct Fixture {
  sim::Simulator sim{1};
  metrics::GoodputMeter goodput{kSecond};
  FmtcpParams params = small_params();
  FmtcpReceiver receiver{sim, params, &goodput};

  // on_segment takes a mutable lvalue (it moves payloads off the packet);
  // this adapter lets tests feed freshly built packets inline.
  void deliver(net::Packet p) { receiver.on_segment(0, p); }
};

TEST(FmtcpReceiver, DecodesAndDeliversInOrder) {
  Fixture f;
  auto enc0 = encoder_for(0, f.params, 5);
  auto enc1 = encoder_for(1, f.params, 6);
  // Block 1 completes first but must wait for block 0.
  f.deliver(symbol_packet(enc1, 12));
  EXPECT_EQ(f.receiver.blocks_delivered(), 0u);
  f.deliver(symbol_packet(enc0, 12));
  EXPECT_EQ(f.receiver.blocks_delivered(), 2u);
  EXPECT_EQ(f.receiver.deliver_next(), 2u);
  EXPECT_TRUE(f.receiver.payload_verified());
  EXPECT_EQ(f.goodput.total_bytes(), 2u * f.params.block_bytes());
}

TEST(FmtcpReceiver, RedundantSymbolsCounted) {
  Fixture f;
  auto enc = encoder_for(0, f.params, 5);
  f.deliver(symbol_packet(enc, 12));  // Decodes block 0.
  const std::uint64_t redundant = f.receiver.redundant_symbols();
  f.deliver(symbol_packet(enc, 3));  // All redundant now.
  EXPECT_EQ(f.receiver.redundant_symbols(), redundant + 3);
}

TEST(FmtcpReceiver, FillAckReportsRankAndDecode) {
  Fixture f;
  auto enc = encoder_for(0, f.params, 5);
  net::Packet partial = symbol_packet(enc, 3);
  f.receiver.on_segment(0, partial);

  net::Packet ack;
  std::size_t extra = 0;
  f.receiver.fill_ack(0, partial, ack, extra);
  ASSERT_EQ(ack.block_acks.size(), 1u);
  EXPECT_EQ(ack.block_acks[0].block, 0u);
  EXPECT_EQ(ack.block_acks[0].independent_symbols, 3u);
  EXPECT_FALSE(ack.block_acks[0].decoded);

  net::Packet rest = symbol_packet(enc, 9);
  f.receiver.on_segment(0, rest);
  net::Packet ack2;
  f.receiver.fill_ack(0, rest, ack2, extra);
  bool decoded_reported = false;
  for (const auto& block_ack : ack2.block_acks) {
    if (block_ack.block == 0) {
      decoded_reported = block_ack.decoded;
      EXPECT_EQ(block_ack.independent_symbols, 8u);
    }
  }
  EXPECT_TRUE(decoded_reported);
}

TEST(FmtcpReceiver, AckMentionsFirstUndecodedBlock) {
  Fixture f;
  auto enc0 = encoder_for(0, f.params, 5);
  auto enc1 = encoder_for(1, f.params, 6);
  f.deliver(symbol_packet(enc0, 2));  // Block 0 partial.
  net::Packet block1_packet = symbol_packet(enc1, 2);
  f.receiver.on_segment(0, block1_packet);

  net::Packet ack;
  std::size_t extra = 0;
  f.receiver.fill_ack(0, block1_packet, ack, extra);
  bool mentions_block0 = false;
  for (const auto& block_ack : ack.block_acks) {
    mentions_block0 = mentions_block0 || block_ack.block == 0;
  }
  EXPECT_TRUE(mentions_block0);
}

TEST(FmtcpReceiver, RecentlyDecodedEchoedForAckLossRepair) {
  Fixture f;
  auto enc0 = encoder_for(0, f.params, 5);
  auto enc1 = encoder_for(1, f.params, 6);
  f.deliver(symbol_packet(enc0, 12));  // Decode block 0.
  // A later packet with only block-1 symbols must still re-announce
  // block 0's decode (the previous ACK may have been lost).
  net::Packet block1_packet = symbol_packet(enc1, 2);
  f.receiver.on_segment(0, block1_packet);
  net::Packet ack;
  std::size_t extra = 0;
  f.receiver.fill_ack(0, block1_packet, ack, extra);
  bool block0_decoded = false;
  for (const auto& block_ack : ack.block_acks) {
    if (block_ack.block == 0) block0_decoded = block_ack.decoded;
  }
  EXPECT_TRUE(block0_decoded);
}

TEST(FmtcpReceiver, BufferOccupancyTracksUndeliveredData) {
  Fixture f;
  auto enc1 = encoder_for(1, f.params, 6);
  f.deliver(symbol_packet(enc1, 12));  // Decoded, held.
  EXPECT_GE(f.receiver.max_buffered_bytes(), f.params.block_bytes());
}

TEST(FmtcpReceiver, CorruptPayloadDetected) {
  Fixture f;
  // Feed symbols whose payload does NOT match the deterministic block:
  // encode a different block id under block 0's label.
  fountain::SymbolEncoder wrong(
      fountain::CodingField::kGf2, 0,
      fountain::make_deterministic_block(99, f.params.block_symbols,
                                         f.params.symbol_bytes),
      Rng(7));
  f.deliver(symbol_packet(wrong, 12));
  EXPECT_EQ(f.receiver.blocks_delivered(), 1u);  // Decodes fine...
  EXPECT_FALSE(f.receiver.payload_verified());   // ...but fails the check.
}

}  // namespace
}  // namespace fmtcp::core
