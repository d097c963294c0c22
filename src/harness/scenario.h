// Experiment configuration shared by benches, examples, and tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/fixed_rate.h"
#include "core/params.h"
#include "mptcp/scheduler.h"
#include "net/loss_model.h"
#include "net/path.h"
#include "obs/observer.h"
#include "sim/simulator.h"
#include "tcp/subflow.h"
#include "tcp/wiring.h"

namespace fmtcp::harness {

/// One path's quality, in the paper's Table-I units.
struct PathSpec {
  double delay_ms = 100.0;  ///< One-way propagation delay.
  double loss = 0.0;        ///< i.i.d. loss rate (data direction).
};

/// A full experiment setup: the paper's two-disjoint-path topology with
/// subflow 1 fixed and subflow 2 swept.
struct Scenario {
  PathSpec path1{100.0, 0.0};
  PathSpec path2{100.0, 0.02};

  /// Per-path bandwidth in bytes/second (default 5 Mb/s: a wireless-ish
  /// access link whose BDP the congestion window actually reaches, so
  /// congestion and loss dynamics both matter).
  double bandwidth_Bps = 0.625e6;
  std::size_t queue_packets = 100;

  SimTime duration = 100 * kSecond;
  std::uint64_t seed = 1;

  /// Optional time-varying loss schedule for path 2 (Fig. 4 surges);
  /// empty = constant path2.loss.
  std::vector<net::TimeVaryingLoss::Step> path2_loss_schedule;

  /// Optional observability sink (not owned): metrics and timeline
  /// events from every layer of the run, plus per-sim-second event-loop
  /// progress records, a scheduler dispatch profile (sim.events.*
  /// counters) and every link's packet events (forward links get ids
  /// 2*path, reverse links 2*path+1). Null = off, with near-zero
  /// overhead.
  obs::Observer* observer = nullptr;

  net::PathConfig path_config(const PathSpec& spec) const;
};

enum class Protocol { kFmtcp, kMptcp, kHmtp, kFixedRate };

const char* protocol_name(Protocol protocol);

/// Command-line spelling: fmtcp | mptcp | hmtp | fixedrate (also
/// fixed-rate); nullopt for anything else.
std::optional<Protocol> parse_protocol(const std::string& name);

/// Knobs for every protocol, with defaults giving a like-for-like
/// comparison (equal packet sizes, equal metric block size).
struct ProtocolOptions {
  core::FmtcpParams fmtcp;               ///< Also used by HMTP.
  baselines::FixedRateParams fixed_rate;
  tcp::SubflowConfig subflow;
  std::size_t mptcp_receive_buffer = 128 * 1024;
  mptcp::SchedulerPolicy mptcp_scheduler =
      mptcp::SchedulerPolicy::kOpportunistic;
  bool mptcp_use_lia = false;
  /// Extensions (all off at the paper's baseline operating point).
  bool mptcp_reinjection = false;
  bool fmtcp_use_lia = false;
  bool sack = false;
  bool delayed_acks = false;
  SimTime goodput_bin = kSecond;

  /// Defaults: 128×160 B blocks (k̂ = 128), δ̂ = 0.01, 64 pending
  /// blocks, 7 symbols/packet (1204 B payload), MPTCP segments of the
  /// same wire size.
  static ProtocolOptions defaults();
};

/// Builds `protocol`'s connection from `options`, unwired: call wire()
/// (or attach()) and then start(). `observer` (not owned; may be null)
/// reaches every subflow, plus FMTCP's sender and receiver and MPTCP's
/// sender. The one place ProtocolOptions is translated into a
/// protocol's config.
std::unique_ptr<tcp::Connection> make_connection(
    Protocol protocol, sim::Simulator& simulator,
    const ProtocolOptions& options, obs::Observer* observer);

}  // namespace fmtcp::harness
