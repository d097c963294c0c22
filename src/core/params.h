// FMTCP protocol parameters (paper §III-B "determining k̂" and §IV).
#pragma once

#include <cstdint>

#include "common/time.h"
#include "fountain/coding_field.h"

namespace fmtcp::core {

/// How the sender fills a packet for a subflow with send opportunity.
enum class AllocationMode {
  /// Algorithm 1: virtual allocation over all subflows by EAT (paper).
  kEatVirtual,
  /// Greedy ablation: fill the pending subflow with the first incomplete
  /// blocks directly, ignoring the other subflows' EAT.
  kGreedy,
};

struct FmtcpParams {
  /// k̂: source symbols per block. Sized so coding cost is negligible and
  /// the block fits the receive buffer (paper's constraints on k̂).
  std::uint32_t block_symbols = 64;

  /// Symbol payload size in bytes.
  std::size_t symbol_bytes = 160;

  /// Wire overhead charged per symbol in a packet (block ref + seed).
  std::size_t symbol_header_bytes = 12;

  /// δ̂: maximum acceptable decoding-failure probability (Def. 4). A block
  /// counts δ̂-complete once k̃ ≥ k̂ + log2(1/δ̂).
  double delta_hat = 0.05;

  /// Cap on concurrently open (created, not yet decoded) blocks; models
  /// the receive-buffer constraint on pending blocks.
  std::size_t max_pending_blocks = 128;

  /// Total blocks the application will send; 0 = unbounded stream.
  std::uint64_t total_blocks = 0;

  /// Data-allocation strategy (kGreedy is an ablation knob).
  AllocationMode allocation = AllocationMode::kEatVirtual;

  /// Systematic fountain code (extension): each block's first k̂ symbols
  /// are the source symbols themselves, so a lossless stretch decodes
  /// with zero coding overhead; repair symbols stay random linear.
  bool systematic = false;

  /// Coefficient field of the random linear code (ablation knob; CTCP
  /// comparison). kGf2 is the paper's code and the default; kGf256 buys
  /// lower reception overhead (δ̃ shrinks 256× per extra symbol instead
  /// of 2×) at a higher decode cost. Orthogonal to `systematic`.
  fountain::CodingField coding_field = fountain::CodingField::kGf2;

  /// Application bytes per block.
  std::size_t block_bytes() const {
    return static_cast<std::size_t>(block_symbols) * symbol_bytes;
  }

  /// Wire bytes one symbol occupies inside a packet.
  std::size_t symbol_wire_bytes() const {
    return symbol_bytes + symbol_header_bytes;
  }

  /// Extra independent symbols needed beyond k̂ for δ̂-completeness:
  /// log2(1/δ̂) (paper §IV-A).
  double delta_margin_symbols() const;

  /// Validates parameter sanity; aborts on nonsense.
  void validate() const;
};

}  // namespace fmtcp::core
