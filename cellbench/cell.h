// One benchmark cell: a single FMTCP or IETF-MPTCP connection over the
// Table-I two-path topology (5 Mb/s paths, 100 ms one-way delay, path 2 at
// 10% i.i.d. loss, 100-packet drop-tail queues), run for 100 simulated
// seconds with ProtocolOptions::defaults().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/connection.h"
#include "harness/scenario.h"
#include "metrics/block_stats.h"
#include "metrics/goodput.h"
#include "mptcp/connection.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace cellbench {

using fmtcp::SimTime;

enum class Workload { kFmtcpGf2, kFmtcpGf256, kMptcp };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);
inline bool is_fmtcp(Workload w) { return w != Workload::kMptcp; }

/// Simulated length of every cell; main.cc advances it in one-second
/// slices.
constexpr int kCellSeconds = 100;

/// Protocol knobs of a workload: the repository defaults, with the
/// coefficient field switched to GF(256) for fmtcp-gf256.
fmtcp::harness::ProtocolOptions cell_options(Workload workload);

fmtcp::core::FmtcpConnectionConfig fmtcp_config(
    const fmtcp::harness::ProtocolOptions& options);
fmtcp::mptcp::MptcpConnectionConfig mptcp_config(
    const fmtcp::harness::ProtocolOptions& options);

/// Builds the Table-I topology on `simulator`.
fmtcp::net::Topology make_topology(fmtcp::sim::Simulator& simulator);

/// The deterministic result of a cell, compared across runs, commits and
/// wirings. Event count is deliberately absent: an optimisation that drops
/// no-op events does not change what the protocol did.
struct Outcome {
  std::uint64_t delivered_bytes = 0;
  std::uint64_t blocks_completed = 0;
  std::uint64_t symbols_sent = 0;       ///< FMTCP only.
  std::uint64_t redundant_symbols = 0;  ///< FMTCP only.
  std::vector<std::uint64_t> segments_sent;    ///< Per subflow.
  std::vector<std::uint64_t> retransmissions;  ///< Per subflow.
  /// Empty when the cell passed its internal consistency checks, else
  /// the first failed check.
  std::string failure;
};

Outcome fmtcp_outcome(const fmtcp::core::FmtcpParams& params,
                      const fmtcp::metrics::GoodputMeter& goodput,
                      const fmtcp::metrics::BlockDelayRecorder& delays,
                      const fmtcp::core::FmtcpSender& sender,
                      const fmtcp::core::FmtcpReceiver& receiver,
                      const std::vector<fmtcp::tcp::Subflow*>& subflows);

Outcome mptcp_outcome(const fmtcp::metrics::GoodputMeter& goodput,
                      const fmtcp::mptcp::MptcpSender& sender,
                      const fmtcp::mptcp::MptcpReceiver& receiver,
                      const std::vector<fmtcp::tcp::Subflow*>& subflows);

/// The real, undecorated cell: Simulator + Topology + the library's own
/// FmtcpConnection or MptcpConnection, started on construction.
class Cell {
 public:
  /// `recorder` (may be null) observes every scheduler operation from
  /// construction on; `profile` turns on the per-tag dispatch profile.
  Cell(Workload workload, std::uint64_t seed,
       fmtcp::sim::SchedulerOpRecorder* recorder = nullptr,
       bool profile = false);

  fmtcp::sim::Simulator& simulator() { return simulator_; }
  Outcome outcome();

 private:
  fmtcp::harness::ProtocolOptions options_;
  fmtcp::sim::Simulator simulator_;
  fmtcp::net::Topology topology_;
  std::unique_ptr<fmtcp::core::FmtcpConnection> fmtcp_;
  std::unique_ptr<fmtcp::mptcp::MptcpConnection> mptcp_;
};

}  // namespace cellbench
