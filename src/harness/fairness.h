// Shared-bottleneck fairness experiments (paper §III-A / §II: FMTCP's
// coding must not "do harm to the fairness of transmission").
//
// Two single-path connections share one bottleneck link; each is built
// by make_connection and given one subflow over the shared links, so
// kMptcp is a plain TCP stream. Packets carry a connection flow_tag,
// demultiplexed at both ends. The result reports each connection's
// goodput and Jain's fairness index.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "harness/scenario.h"

namespace fmtcp::harness {

struct FairnessConfig {
  Protocol protocol_a = Protocol::kFmtcp;
  Protocol protocol_b = Protocol::kMptcp;  ///< kMptcp == plain TCP here.
  double bottleneck_Bps = 0.625e6;
  SimTime one_way_delay = from_ms(100);
  double loss_rate = 0.0;  ///< Random loss on the bottleneck.
  std::size_t queue_packets = 50;
  SimTime duration = 100 * kSecond;
  std::uint64_t seed = 1;
};

struct FairnessResult {
  double goodput_a_MBps = 0.0;
  double goodput_b_MBps = 0.0;

  /// Jain's index over the two goodputs: 1.0 = perfectly fair, 0.5 =
  /// one flow starved.
  double jain_index() const;

  /// Connection A's share of the aggregate goodput.
  double share_a() const;
};

/// Runs the two connections head to head over the shared bottleneck.
FairnessResult run_fairness(const FairnessConfig& config);

}  // namespace fmtcp::harness
