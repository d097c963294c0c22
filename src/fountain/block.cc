#include "fountain/block.h"

#include <cstring>

#include "common/check.h"

namespace fmtcp::fountain {

BlockData::BlockData(std::uint32_t symbols, std::size_t symbol_bytes)
    : symbols_(symbols),
      symbol_bytes_(symbol_bytes),
      bytes_(static_cast<std::size_t>(symbols) * symbol_bytes, 0) {
  FMTCP_CHECK(symbols > 0);
  FMTCP_CHECK(symbol_bytes > 0);
}

std::uint8_t* BlockData::symbol(std::uint32_t i) {
  FMTCP_DCHECK(i < symbols_);
  return bytes_.data() + static_cast<std::size_t>(i) * symbol_bytes_;
}

const std::uint8_t* BlockData::symbol(std::uint32_t i) const {
  FMTCP_DCHECK(i < symbols_);
  return bytes_.data() + static_cast<std::size_t>(i) * symbol_bytes_;
}

AlignedBytes BlockData::symbol_copy(std::uint32_t i) const {
  const std::uint8_t* p = symbol(i);
  return AlignedBytes(p, p + symbol_bytes_);
}

namespace {

/// The generator of block `block_id`'s content, drawn once per 8 bytes.
Rng content_rng(std::uint64_t block_id) {
  // Seed mixed with a constant so block 0 is not the RNG's default stream.
  return Rng(block_id * 0x9e3779b97f4a7c15ULL + 0x51ed2701);
}

}  // namespace

BlockData make_deterministic_block(std::uint64_t block_id,
                                   std::uint32_t symbols,
                                   std::size_t symbol_bytes) {
  BlockData block(symbols, symbol_bytes);
  Rng rng = content_rng(block_id);
  std::uint8_t* out = block.bytes().data();
  const std::size_t n = block.total_bytes();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(out + i, &word, 8);
  }
  if (i < n) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(out + i, &word, n - i);
  }
  return block;
}

bool matches_deterministic_block(std::uint64_t block_id,
                                 const BlockData& block) {
  Rng rng = content_rng(block_id);
  const std::uint8_t* in = block.bytes().data();
  const std::size_t n = block.total_bytes();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = rng.next_u64();
    if (std::memcmp(in + i, &word, 8) != 0) return false;
  }
  if (i < n) {
    const std::uint64_t word = rng.next_u64();
    if (std::memcmp(in + i, &word, n - i) != 0) return false;
  }
  return true;
}

}  // namespace fmtcp::fountain
