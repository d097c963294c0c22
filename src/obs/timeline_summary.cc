#include "obs/timeline_summary.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <vector>

namespace fmtcp::obs {

namespace {

/// Finds `"key":` in `line` and parses the value that follows as a
/// double. Returns false if the key is absent or non-numeric.
bool find_number(const std::string& line, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtod(start, &end);
  return end != start;
}

bool find_string(const std::string& line, const char* key,
                 std::string& out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t start = at + needle.size();
  const std::size_t close = line.find('"', start);
  if (close == std::string::npos) return false;
  out = line.substr(start, close - start);
  return true;
}

const std::vector<EventType>& all_event_types() {
  static const std::vector<EventType> types = {
      EventType::kCwndChange,     EventType::kRtoFired,
      EventType::kFastRetransmit, EventType::kRankProgress,
      EventType::kRedundantSymbol, EventType::kBlockDecoded,
      EventType::kBlockDelivered, EventType::kEatPrediction,
      EventType::kEatOutcome,     EventType::kAllocation,
      EventType::kSchedulerGrant, EventType::kReinjection,
      EventType::kSimProgress,    EventType::kPktEnqueue,
      EventType::kPktQueueDrop,   EventType::kPktChannelDrop,
      EventType::kPktDeliver,
  };
  return types;
}

std::string fmt_line(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Folds one pkt_* record into its link's stats; false for any other
/// type.
bool note_packet(const TimelineEvent& event, double t_s,
                 TimelineSummary& summary) {
  if (event.type < EventType::kPktEnqueue) return false;
  LinkTimelineStats& link = summary.per_link[event.subflow];
  if (link.enqueued + link.queue_drops + link.channel_drops +
          link.delivered ==
      0) {
    link.first_event_s = t_s;
  }
  link.last_event_s = std::max(link.last_event_s, t_s);
  switch (event.type) {
    case EventType::kPktEnqueue:
      ++link.enqueued;
      break;
    case EventType::kPktQueueDrop:
      ++link.queue_drops;
      break;
    case EventType::kPktChannelDrop:
      ++link.channel_drops;
      break;
    default:  // kPktDeliver
      ++link.delivered;
      link.delivered_bytes += static_cast<std::uint64_t>(event.a);
      break;
  }
  return true;
}

}  // namespace

double LinkTimelineStats::channel_loss_rate() const {
  const std::uint64_t transmitted = delivered + channel_drops;
  if (transmitted == 0) return 0.0;
  return static_cast<double>(channel_drops) /
         static_cast<double>(transmitted);
}

double LinkTimelineStats::delivery_rate_Bps() const {
  const double span = last_event_s - first_event_s;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(delivered_bytes) / span;
}

bool parse_jsonl_line(const std::string& line, TimelineEvent& event) {
  std::string name;
  if (!find_string(line, "ev", name)) return false;
  bool known = false;
  TimelineEvent parsed;
  for (EventType type : all_event_types()) {
    if (name == event_type_name(type)) {
      parsed.type = type;
      known = true;
      break;
    }
  }
  if (!known) return false;

  double t = 0, sf = 0, id = 0;
  if (!find_number(line, "t", t) || !find_number(line, "sf", sf) ||
      !find_number(line, "id", id)) {
    return false;
  }
  parsed.t = from_seconds(t);
  parsed.subflow = static_cast<std::uint32_t>(sf);
  parsed.id = static_cast<std::uint64_t>(id);
  find_number(line, "a", parsed.a);
  find_number(line, "b", parsed.b);
  event = parsed;
  return true;
}

TimelineSummary summarize_timeline(std::istream& in) {
  TimelineSummary summary;
  double eat_error_sum = 0.0;
  double symbols_sum = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TimelineEvent event;
    if (!parse_jsonl_line(line, event)) {
      ++summary.malformed_lines;
      continue;
    }
    const double t_s = to_seconds(event.t);
    if (summary.total_events == 0) summary.first_event_s = t_s;
    summary.last_event_s = t_s;
    ++summary.total_events;
    ++summary.per_type[event_type_name(event.type)];
    if (note_packet(event, t_s, summary)) continue;

    SubflowTimelineStats& sf = summary.per_subflow[event.subflow];
    switch (event.type) {
      case EventType::kCwndChange:
        if (sf.cwnd_changes == 0) {
          sf.min_cwnd = sf.max_cwnd = event.a;
        }
        ++sf.cwnd_changes;
        sf.last_cwnd = event.a;
        sf.min_cwnd = std::min(sf.min_cwnd, event.a);
        sf.max_cwnd = std::max(sf.max_cwnd, event.a);
        break;
      case EventType::kRtoFired:
        ++sf.rto_fires;
        break;
      case EventType::kFastRetransmit:
        ++sf.fast_retransmits;
        break;
      case EventType::kAllocation:
        ++sf.allocations;
        break;
      case EventType::kSchedulerGrant:
        ++sf.scheduler_grants;
        break;
      case EventType::kReinjection:
        ++sf.reinjections;
        break;
      case EventType::kEatOutcome:
        ++sf.eat_outcomes;
        eat_error_sum += std::abs(event.a - event.b);
        break;
      case EventType::kRankProgress:
        ++summary.rank_progress_events;
        break;
      case EventType::kRedundantSymbol:
        ++summary.redundant_symbols;
        break;
      case EventType::kBlockDecoded:
        if (summary.blocks_decoded == 0) summary.first_decode_s = t_s;
        summary.last_decode_s = t_s;
        ++summary.blocks_decoded;
        symbols_sum += event.a;
        break;
      case EventType::kBlockDelivered:
        ++summary.blocks_delivered;
        break;
      default:  // kEatPrediction, kSimProgress: counted per type only.
        break;
    }
  }

  std::uint64_t outcomes = 0;
  for (const auto& [id, sf] : summary.per_subflow) {
    outcomes += sf.eat_outcomes;
  }
  if (outcomes > 0) {
    const double mean = eat_error_sum / static_cast<double>(outcomes);
    for (auto& [id, sf] : summary.per_subflow) {
      sf.mean_abs_eat_error_s = mean;
    }
  }
  if (summary.blocks_decoded > 0) {
    summary.mean_symbols_per_block =
        symbols_sum / static_cast<double>(summary.blocks_decoded);
  }
  return summary;
}

std::string format_timeline_summary(const TimelineSummary& summary) {
  std::string out;
  out += fmt_line("timeline: %llu events over [%.3fs, %.3fs]\n",
                  static_cast<unsigned long long>(summary.total_events),
                  summary.first_event_s, summary.last_event_s);
  if (summary.malformed_lines > 0) {
    out += fmt_line("  (%llu malformed lines skipped)\n",
                    static_cast<unsigned long long>(summary.malformed_lines));
  }
  out += "\nevents by type:\n";
  for (const auto& [name, count] : summary.per_type) {
    out += fmt_line("  %-16s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
  }
  out += "\nper subflow:\n";
  for (const auto& [id, sf] : summary.per_subflow) {
    // Subflow 0 also accumulates block/sim events (they carry sf=0);
    // only print rows that saw subflow-scoped activity.
    if (sf.cwnd_changes == 0 && sf.rto_fires == 0 &&
        sf.fast_retransmits == 0 && sf.allocations == 0 &&
        sf.scheduler_grants == 0 && sf.reinjections == 0) {
      continue;
    }
    out += fmt_line(
        "  sf%u: cwnd %llu changes (last %.1f, min %.1f, max %.1f), "
        "%llu RTO, %llu fast-rtx\n",
        id, static_cast<unsigned long long>(sf.cwnd_changes), sf.last_cwnd,
        sf.min_cwnd, sf.max_cwnd,
        static_cast<unsigned long long>(sf.rto_fires),
        static_cast<unsigned long long>(sf.fast_retransmits));
    if (sf.allocations > 0 || sf.scheduler_grants > 0 ||
        sf.reinjections > 0) {
      out += fmt_line(
          "       %llu allocations, %llu grants, %llu reinjections\n",
          static_cast<unsigned long long>(sf.allocations),
          static_cast<unsigned long long>(sf.scheduler_grants),
          static_cast<unsigned long long>(sf.reinjections));
    }
    if (sf.eat_outcomes > 0) {
      out += fmt_line(
          "       EAT: %llu outcomes, mean |error| %.3f s\n",
          static_cast<unsigned long long>(sf.eat_outcomes),
          sf.mean_abs_eat_error_s);
    }
  }
  if (summary.blocks_decoded > 0) {
    out += fmt_line(
        "\nblocks: %llu decoded in [%.3fs, %.3fs] (%llu delivered), "
        "%.1f symbols/block, %llu redundant symbols, "
        "%llu rank-progress events\n",
        static_cast<unsigned long long>(summary.blocks_decoded),
        summary.first_decode_s, summary.last_decode_s,
        static_cast<unsigned long long>(summary.blocks_delivered),
        summary.mean_symbols_per_block,
        static_cast<unsigned long long>(summary.redundant_symbols),
        static_cast<unsigned long long>(summary.rank_progress_events));
  }
  if (!summary.per_link.empty()) {
    out += "\nper link:\n";
    out += "link  enqueued  qdrops  chdrops  delivered  loss%   rate(B/s)\n";
    for (const auto& [id, link] : summary.per_link) {
      out += fmt_line("%-5u %-9llu %-7llu %-8llu %-10llu %-6.2f %.0f\n", id,
                      static_cast<unsigned long long>(link.enqueued),
                      static_cast<unsigned long long>(link.queue_drops),
                      static_cast<unsigned long long>(link.channel_drops),
                      static_cast<unsigned long long>(link.delivered),
                      link.channel_loss_rate() * 100.0,
                      link.delivery_rate_Bps());
    }
  }
  return out;
}

}  // namespace fmtcp::obs
