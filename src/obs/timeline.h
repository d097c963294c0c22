// Structured protocol event timeline.
//
// Instrumentation points across the stack emit typed records — cwnd
// changes, RTO fires, fountain decode progress, EAT predictions,
// scheduler decisions, sim-loop progress, per-link packet events (the
// ns-2 trace-file equivalent) — into one per-run timeline. Records land
// in a bounded in-memory ring (tests, post-run inspection) and, when a
// path is attached, in a JSONL file (one JSON object per line) for
// offline analysis; `tools/trace_summary` aggregates such files.
//
// The record is a fixed-size POD with two generic value fields; the
// meaning of `subflow`/`id`/`a`/`b` is per-type (see the field table in
// timeline.cc next to the JSONL writer, and docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.h"

namespace fmtcp::obs {

enum class EventType : std::uint8_t {
  kCwndChange,      ///< subflow, a=cwnd, b=ssthresh.
  kRtoFired,        ///< subflow, id=snd_una, a=rto_s, b=cwnd after.
  kFastRetransmit,  ///< subflow, id=seq, a=cwnd after, b=ssthresh after.
  kRankProgress,    ///< id=block, a=rank, b=k_hat.
  kRedundantSymbol, ///< subflow, id=block, a=rank at arrival.
  kBlockDecoded,    ///< id=block, a=symbols received, b=redundant among them.
  kBlockDelivered,  ///< id=block, a=blocks delivered so far.
  kEatPrediction,   ///< subflow, id=sample#, a=predicted arrival (abs s).
  kEatOutcome,      ///< subflow, id=sample#, a=predicted (abs s), b=actual.
  kAllocation,      ///< subflow, id=first block, a=symbols, b=block count.
  kSchedulerGrant,  ///< subflow, id=data_seq, a=data_len.
  kReinjection,     ///< subflow=target, id=data_seq, a=lost-on subflow.
  kSimProgress,     ///< a=wall ms for the last sim-second, b=events run.
  // Packet events from net::Link: sf=link id, id=packet uid, a=size in
  // bytes, b=seq. Kept last: the summary tells them apart by order.
  kPktEnqueue,      ///< Packet handed to the link (entered the queue).
  kPktQueueDrop,    ///< Drop-tail overflow.
  kPktChannelDrop,  ///< Erased by the loss model after transmission.
  kPktDeliver,      ///< Arrived at the sink.
};

/// Stable string tag used in the JSONL `ev` field.
const char* event_type_name(EventType type);

struct TimelineEvent {
  EventType type{};
  std::uint32_t subflow = 0;
  SimTime t = 0;
  std::uint64_t id = 0;
  double a = 0.0;
  double b = 0.0;
};

class EventTimeline {
 public:
  /// `ring_capacity` bounds the in-memory tail kept for inspection.
  explicit EventTimeline(std::size_t ring_capacity = 8192);
  ~EventTimeline();
  EventTimeline(const EventTimeline&) = delete;
  EventTimeline& operator=(const EventTimeline&) = delete;

  /// Attaches a JSONL sink, truncating `path`. Fails the run loudly
  /// (FMTCP_CHECK with the path in the message) if it cannot be opened.
  void open_jsonl(const std::string& path);

  void emit(const TimelineEvent& event);

  /// Events emitted over the run, including those evicted from the ring.
  std::uint64_t emitted() const { return emitted_; }

  /// The retained tail, oldest first.
  std::vector<TimelineEvent> recent() const;

  /// Retained events of one type, oldest first.
  std::vector<TimelineEvent> recent(EventType type) const;

  void flush();

 private:
  std::size_t capacity_;
  std::vector<TimelineEvent> ring_;
  std::size_t next_ = 0;  ///< Ring write cursor once full.
  std::uint64_t emitted_ = 0;
  std::FILE* file_ = nullptr;
};

/// Writes one event as a single JSONL line (no trailing newline) — the
/// exact format EventTimeline's file sink produces.
std::string to_jsonl(const TimelineEvent& event);

/// JSON string-body escaping (quotes, backslashes, control chars) used
/// by the JSONL writer. Exposed for tests and other JSON emitters.
std::string json_escape(const std::string& s);

/// Flushes (and fsyncs) every open timeline file sink. Installed as the
/// FMTCP_CHECK failure hook so a crashing run keeps the events it
/// emitted; safe to call at any time.
void flush_all_timelines();

}  // namespace fmtcp::obs
