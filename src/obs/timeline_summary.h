// Aggregates a JSONL event timeline (EventTimeline's file sink) into
// per-subflow, per-block and per-link summaries.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/timeline.h"

namespace fmtcp::obs {

/// Parses one JSONL line produced by to_jsonl(). Returns false (leaving
/// `event` untouched) on malformed lines or unknown event names.
bool parse_jsonl_line(const std::string& line, TimelineEvent& event);

struct SubflowTimelineStats {
  std::uint64_t cwnd_changes = 0;
  double last_cwnd = 0.0;
  double min_cwnd = 0.0;
  double max_cwnd = 0.0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t allocations = 0;
  std::uint64_t scheduler_grants = 0;
  std::uint64_t reinjections = 0;
  std::uint64_t eat_outcomes = 0;
  /// Mean |predicted - actual| arrival error over eat_outcome events.
  double mean_abs_eat_error_s = 0.0;
};

/// Packet events of one link (pkt_* records; sf = link id).
struct LinkTimelineStats {
  std::uint64_t enqueued = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t channel_drops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  double first_event_s = 0.0;
  double last_event_s = 0.0;

  /// Fraction of transmitted packets the channel erased.
  double channel_loss_rate() const;
  /// Delivered bytes over the link's observed span (bytes/second).
  double delivery_rate_Bps() const;
};

struct TimelineSummary {
  std::uint64_t total_events = 0;
  std::map<std::string, std::uint64_t> per_type;
  std::map<std::uint32_t, SubflowTimelineStats> per_subflow;

  // Block-level aggregates (FMTCP runs).
  std::uint64_t blocks_decoded = 0;
  std::uint64_t blocks_delivered = 0;
  std::uint64_t rank_progress_events = 0;
  std::uint64_t redundant_symbols = 0;
  /// Mean symbols received per decoded block (kBlockDecoded.a).
  double mean_symbols_per_block = 0.0;
  double first_decode_s = 0.0;
  double last_decode_s = 0.0;

  std::map<std::uint32_t, LinkTimelineStats> per_link;

  double first_event_s = 0.0;
  double last_event_s = 0.0;
  std::uint64_t malformed_lines = 0;
};

/// Reads JSONL lines from `in` until EOF; malformed lines are counted,
/// not fatal.
TimelineSummary summarize_timeline(std::istream& in);

/// Human-readable multi-line report.
std::string format_timeline_summary(const TimelineSummary& summary);

}  // namespace fmtcp::obs
