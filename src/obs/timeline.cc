#include "obs/timeline.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"

namespace fmtcp::obs {

namespace {

// Open file sinks, so a failed FMTCP_CHECK can flush them before the
// process aborts (see flush_all_timelines). Guarded: timelines are
// single-threaded, but independent runs on different threads may each
// own one.
Mutex g_sinks_mutex;
std::vector<std::FILE*>& sinks() FMTCP_REQUIRES(g_sinks_mutex) {
  static std::vector<std::FILE*>* files = new std::vector<std::FILE*>;
  return *files;
}

void register_sink(std::FILE* file) FMTCP_EXCLUDES(g_sinks_mutex) {
  MutexLock lock(g_sinks_mutex);
  sinks().push_back(file);
  detail::check_failure_hook().store(&flush_all_timelines);
}

void unregister_sink(std::FILE* file) FMTCP_EXCLUDES(g_sinks_mutex) {
  MutexLock lock(g_sinks_mutex);
  auto& files = sinks();
  files.erase(std::remove(files.begin(), files.end(), file),
              files.end());
}

}  // namespace

void flush_all_timelines() {
  MutexLock lock(g_sinks_mutex);
  for (std::FILE* file : sinks()) {
    std::fflush(file);
    fsync(fileno(file));
  }
}

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kCwndChange:
      return "cwnd_change";
    case EventType::kRtoFired:
      return "rto_fired";
    case EventType::kFastRetransmit:
      return "fast_retransmit";
    case EventType::kRankProgress:
      return "rank_progress";
    case EventType::kRedundantSymbol:
      return "redundant_symbol";
    case EventType::kBlockDecoded:
      return "block_decoded";
    case EventType::kBlockDelivered:
      return "block_delivered";
    case EventType::kEatPrediction:
      return "eat_prediction";
    case EventType::kEatOutcome:
      return "eat_outcome";
    case EventType::kAllocation:
      return "allocation";
    case EventType::kSchedulerGrant:
      return "scheduler_grant";
    case EventType::kReinjection:
      return "reinjection";
    case EventType::kSimProgress:
      return "sim_progress";
    case EventType::kPktEnqueue:
      return "pkt_enqueue";
    case EventType::kPktQueueDrop:
      return "pkt_queue_drop";
    case EventType::kPktChannelDrop:
      return "pkt_channel_drop";
    case EventType::kPktDeliver:
      return "pkt_deliver";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Every record serializes with the same uniform keys so one parser reads
// every type; the per-type meaning of sf/id/a/b is documented on
// EventType. Example line:
//   {"ev":"cwnd_change","t":1.234000000,"sf":1,"id":0,"a":12.5,"b":64}
std::string to_jsonl(const TimelineEvent& event) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "{\"ev\":\"%s\",\"t\":%.9f,\"sf\":%u,\"id\":%llu,"
                "\"a\":%.9g,\"b\":%.9g}",
                json_escape(event_type_name(event.type)).c_str(),
                to_seconds(event.t), event.subflow,
                static_cast<unsigned long long>(event.id), event.a,
                event.b);
  return buffer;
}

EventTimeline::EventTimeline(std::size_t ring_capacity)
    : capacity_(ring_capacity) {
  FMTCP_CHECK(capacity_ > 0);
  ring_.reserve(capacity_);
}

EventTimeline::~EventTimeline() {
  if (file_ != nullptr) {
    unregister_sink(file_);
    std::fclose(file_);
  }
}

void EventTimeline::open_jsonl(const std::string& path) {
  FMTCP_CHECK(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "timeline: cannot open '%s' for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    FMTCP_CHECK(file_ != nullptr);
  }
  // Line buffering keeps the file at a record boundary at all times: a
  // fully-buffered sink flushes mid-line whenever the 4 KiB buffer
  // happens to fill, so a crashed run used to truncate its last record.
  std::setvbuf(file_, nullptr, _IOLBF, 1 << 12);
  register_sink(file_);
}

void EventTimeline::emit(const TimelineEvent& event) {
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
  if (file_ != nullptr) {
    // One fwrite per complete line (newline included) so the
    // line-buffered stream hits the kernel only at record boundaries.
    std::string line = to_jsonl(event);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), file_);
  }
}

std::vector<TimelineEvent> EventTimeline::recent() const {
  std::vector<TimelineEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<long>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(next_));
  }
  return out;
}

std::vector<TimelineEvent> EventTimeline::recent(EventType type) const {
  std::vector<TimelineEvent> out;
  for (const TimelineEvent& event : recent()) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

void EventTimeline::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace fmtcp::obs
