#include "obs/trace/tracer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace/span.h"

namespace fmtcp::obs::trace {

namespace detail {

std::atomic<bool> g_tracing_enabled{false};

namespace {

// Durations are bucketed by octave (log2) with 4 sub-buckets each, so
// percentile estimates carry ~19% relative error — plenty for a "where
// did the time go" table without per-sample storage.
constexpr std::size_t kBucketsPerOctave = 4;
constexpr std::size_t kOctaves = 48;  // 2^48 ns ~ 3.3 days; ample.
constexpr std::size_t kBucketCount = kOctaves * kBucketsPerOctave;

std::size_t bucket_index(std::uint64_t ns) {
  const int octave = std::bit_width(ns | 1) - 1;
  const int shift = octave >= 2 ? octave - 2 : 0;
  const std::uint64_t minor = octave >= 2 ? ((ns >> shift) & 3) : 0;
  const std::size_t index =
      static_cast<std::size_t>(octave) * kBucketsPerOctave +
      static_cast<std::size_t>(minor);
  return std::min(index, kBucketCount - 1);
}

/// Geometric representative of a bucket (midpoint of its sub-range).
double bucket_value_ns(std::size_t index) {
  const double octave = static_cast<double>(index / kBucketsPerOctave);
  const double minor = static_cast<double>(index % kBucketsPerOctave);
  const double base = std::exp2(octave);
  return base * (1.0 + (minor + 0.5) / kBucketsPerOctave);
}

struct SpanShard {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t max_ns = 0;
  std::vector<std::uint32_t> buckets;  ///< Lazily sized to kBucketCount.

  void add(std::uint64_t dur_ns, std::uint64_t self) {
    ++count;
    total_ns += dur_ns;
    self_ns += self;
    max_ns = std::max(max_ns, dur_ns);
    if (buckets.empty()) buckets.assign(kBucketCount, 0);
    ++buckets[bucket_index(dur_ns)];
  }
};

struct ThreadState {
  std::uint32_t index = 0;
  std::string name;

  // Ring of completed spans. Only the owning thread writes; the write
  // cursor is release/acquire so a quiescent drain reads cleanly.
  std::vector<SpanRecord> ring;
  std::size_t ring_capacity = 0;
  std::atomic<std::uint64_t> ring_seq{0};
  std::uint64_t session_base_seq = 0;

  std::uint64_t next_span_seq = 0;

  // Keyed by span-name *content*, not pointer identity: the same string
  // literal can have a distinct address in every translation unit, and a
  // pointer key would split one logical span into several rows. The
  // views point into string literals (see SpanScope's contract), so
  // they outlive the session.
  std::unordered_map<std::string_view, SpanShard> spans;
  std::unordered_map<std::string_view, std::uint64_t> counters;
};

struct Registry {
  Mutex mutex;
  // Thread states live for the whole process; each entry is written by
  // its owning thread while a session is active and drained under the
  // mutex at stop() (the quiescence contract in tracer.h makes the two
  // phases disjoint). The *vector* itself is what the mutex guards.
  std::vector<std::unique_ptr<ThreadState>> threads
      FMTCP_GUARDED_BY(mutex);
  TraceConfig config FMTCP_GUARDED_BY(mutex);
  bool active FMTCP_GUARDED_BY(mutex) = false;
  std::uint64_t session_begin_ns FMTCP_GUARDED_BY(mutex) = 0;
};

// Session parameters the per-record hot path needs. push_record() runs
// on arbitrary threads without the registry mutex, so reading
// reg.config there would be a lock-discipline hole (it was, before the
// thread-safety annotations flagged it); instead start() snapshots the
// two fields it needs into these atomics *before* the release store
// that enables tracing, and the hot path reads them relaxed (the
// acquire load in tracing_enabled() orders them).
std::atomic<std::size_t> g_session_ring_capacity{0};
std::atomic<bool> g_session_capture_records{false};

Registry& registry() {
  static Registry* r = new Registry;  // Leaked: outlives thread_locals.
  return *r;
}

thread_local ThreadState* tls_state = nullptr;
thread_local SpanScope* tls_current_span = nullptr;
thread_local const char* tls_pending_name = nullptr;

ThreadState& thread_state() {
  if (tls_state == nullptr) {
    Registry& reg = registry();
    MutexLock lock(reg.mutex);
    auto state = std::make_unique<ThreadState>();
    state->index = static_cast<std::uint32_t>(reg.threads.size());
    if (tls_pending_name != nullptr) state->name = tls_pending_name;
    tls_state = state.get();
    reg.threads.push_back(std::move(state));
  }
  return *tls_state;
}

void push_record(ThreadState& state, const SpanRecord& record) {
  if (!g_session_capture_records.load(std::memory_order_relaxed)) return;
  const std::size_t ring_capacity =
      g_session_ring_capacity.load(std::memory_order_relaxed);
  if (state.ring.size() != ring_capacity) {
    // First record this session (or capacity changed): (re)size lazily
    // so idle threads from past sessions hold no ring memory.
    state.ring.assign(ring_capacity, SpanRecord{});
    state.ring_capacity = ring_capacity;
  }
  const std::uint64_t seq =
      state.ring_seq.load(std::memory_order_relaxed);
  state.ring[seq % state.ring_capacity] = record;
  state.ring_seq.store(seq + 1, std::memory_order_release);
}

}  // namespace

void count_slow(const char* name, std::uint64_t n) {
  thread_state().counters[name] += n;
}

}  // namespace detail

using detail::ThreadState;

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_thread_name(const char* name) {
  detail::tls_pending_name = name;
  if (detail::tls_state != nullptr) detail::tls_state->name = name;
}

void SpanScope::begin(const char* name, std::uint64_t arg) {
  ThreadState& state = detail::thread_state();
  armed_ = true;
  name_ = name;
  arg_ = arg;
  child_ns_ = 0;
  thread_state_ = &state;
  parent_ = detail::tls_current_span;
  depth_ = parent_ == nullptr ? 0 : parent_->depth_ + 1;
  // Span ids are unique across threads: thread index in the high bits.
  span_id_ = (static_cast<std::uint64_t>(state.index) << 40) |
             ++state.next_span_seq;
  detail::tls_current_span = this;
  begin_ns_ = clock_ns();  // Last: keep setup out of the measured span.
}

void SpanScope::finish() {
  const std::uint64_t end_ns = clock_ns();
  ThreadState& state = *static_cast<ThreadState*>(thread_state_);
  const std::uint64_t dur = end_ns - begin_ns_;
  const std::uint64_t self = dur > child_ns_ ? dur - child_ns_ : 0;
  state.spans[name_].add(dur, self);

  SpanRecord record;
  record.name = name_;
  record.begin_ns = begin_ns_;
  record.end_ns = end_ns;
  record.self_ns = self;
  record.span_id = span_id_;
  record.parent_id = parent_ == nullptr ? 0 : parent_->span_id_;
  record.arg = arg_;
  record.depth = depth_;
  record.thread_index = state.index;
  detail::push_record(state, record);

  detail::tls_current_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
}

void record_complete(const char* name, std::uint64_t begin_ns,
                     std::uint64_t end_ns, std::uint64_t arg) {
  if (!tracing_enabled()) return;
  ThreadState& state = detail::thread_state();
  const std::uint64_t dur = end_ns > begin_ns ? end_ns - begin_ns : 0;
  state.spans[name].add(dur, dur);

  SpanRecord record;
  record.name = name;
  record.begin_ns = begin_ns;
  record.end_ns = end_ns;
  record.self_ns = dur;
  record.span_id = (static_cast<std::uint64_t>(state.index) << 40) |
                   ++state.next_span_seq;
  record.arg = arg;
  record.thread_index = state.index;
  detail::push_record(state, record);
}

void start(const TraceConfig& config) {
  detail::Registry& reg = detail::registry();
  MutexLock lock(reg.mutex);
  FMTCP_CHECK(!reg.active);
  FMTCP_CHECK(config.ring_capacity > 0);
  reg.config = config;
  // Hot-path snapshot; must be visible before the enabling store below
  // (the release/acquire pair on g_tracing_enabled orders it).
  detail::g_session_ring_capacity.store(config.ring_capacity,
                                        std::memory_order_relaxed);
  detail::g_session_capture_records.store(config.capture_records,
                                          std::memory_order_relaxed);
  for (auto& state : reg.threads) {
    state->session_base_seq =
        state->ring_seq.load(std::memory_order_acquire);
    state->spans.clear();
    state->counters.clear();
  }
  reg.session_begin_ns = clock_ns();
  reg.active = true;
  detail::g_tracing_enabled.store(true, std::memory_order_release);
}

bool active() {
  detail::Registry& reg = detail::registry();
  MutexLock lock(reg.mutex);
  return reg.active;
}

TraceReport stop() {
  detail::Registry& reg = detail::registry();
  MutexLock lock(reg.mutex);
  FMTCP_CHECK(reg.active);
  detail::g_tracing_enabled.store(false, std::memory_order_release);
  reg.active = false;

  TraceReport report;
  report.session_begin_ns = reg.session_begin_ns;
  report.session_end_ns = clock_ns();
  report.captured_records = reg.config.capture_records;

  // Per-thread shards already key by name content; the std::map here
  // merges across threads and fixes the emission order (sorted by name,
  // so --profile / trace_summary spans.json tables are byte-stable for a
  // given set of span names).
  struct MergedSpan {
    SpanAggregate agg;
    std::vector<std::uint64_t> buckets;
  };
  std::map<std::string, MergedSpan> merged;
  std::map<std::string, std::uint64_t> counters;

  for (auto& state : reg.threads) {
    const std::uint64_t seq =
        state->ring_seq.load(std::memory_order_acquire);
    const std::uint64_t written = seq - state->session_base_seq;
    if (reg.config.capture_records && written > 0) {
      const std::uint64_t kept =
          std::min<std::uint64_t>(written, state->ring_capacity);
      report.dropped_records += written - kept;
      for (std::uint64_t i = seq - kept; i < seq; ++i) {
        report.records.push_back(
            state->ring[i % state->ring_capacity]);
      }
    }
    if (!state->spans.empty() || !state->counters.empty() ||
        written > 0) {
      report.threads.emplace_back(
          state->index, state->name.empty()
                            ? "thread-" + std::to_string(state->index)
                            : state->name);
    }
    for (const auto& [name, shard] : state->spans) {
      MergedSpan& m = merged[std::string(name)];
      m.agg.count += shard.count;
      m.agg.total_ms += static_cast<double>(shard.total_ns) / 1e6;
      m.agg.self_ms += static_cast<double>(shard.self_ns) / 1e6;
      m.agg.max_ms = std::max(
          m.agg.max_ms, static_cast<double>(shard.max_ns) / 1e6);
      if (!shard.buckets.empty()) {
        if (m.buckets.empty()) m.buckets.assign(shard.buckets.size(), 0);
        for (std::size_t i = 0; i < shard.buckets.size(); ++i) {
          m.buckets[i] += shard.buckets[i];
        }
      }
    }
    for (const auto& [name, value] : state->counters) {
      counters[std::string(name)] += value;
    }
    // Free ring memory until the next session's first record.
    state->ring.clear();
    state->ring.shrink_to_fit();
    state->ring_capacity = 0;
    state->spans.clear();
    state->counters.clear();
  }

  auto percentile = [](const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double q) {
    if (count == 0 || buckets.empty()) return 0.0;
    const double target = q * static_cast<double>(count - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (static_cast<double>(seen) > target) {
        return detail::bucket_value_ns(i) / 1e6;
      }
    }
    return detail::bucket_value_ns(buckets.size() - 1) / 1e6;
  };

  // The map iterates in name order, so the table comes out sorted by
  // name with no further sort — deterministic row order independent of
  // this run's timings.
  for (auto& [name, m] : merged) {
    m.agg.name = name;
    m.agg.p50_ms = percentile(m.buckets, m.agg.count, 0.50);
    m.agg.p99_ms = percentile(m.buckets, m.agg.count, 0.99);
    report.spans.push_back(std::move(m.agg));
  }
  for (const auto& [name, value] : counters) {
    report.counters.push_back({name, value});
  }
  return report;
}

const SpanAggregate* TraceReport::find(const std::string& name) const {
  for (const SpanAggregate& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::string format_span_table(const TraceReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "span profile: %.2f ms session, %zu span names, "
                "%zu threads%s\n",
                report.session_ms(), report.spans.size(),
                report.threads.size(),
                report.captured_records ? "" : " (aggregates only)");
  out += line;
  if (report.dropped_records > 0) {
    std::snprintf(line, sizeof(line),
                  "  (%llu records dropped to ring overflow; aggregates "
                  "are exact)\n",
                  static_cast<unsigned long long>(report.dropped_records));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-28s %10s %12s %12s %10s %10s %10s\n", "span", "count",
                "total_ms", "self_ms", "p50_ms", "p99_ms", "max_ms");
  out += line;
  for (const SpanAggregate& s : report.spans) {
    std::snprintf(line, sizeof(line),
                  "%-28s %10llu %12.3f %12.3f %10.4f %10.4f %10.3f\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ms,
                  s.self_ms, s.p50_ms, s.p99_ms, s.max_ms);
    out += line;
  }
  if (!report.counters.empty()) {
    std::snprintf(line, sizeof(line), "%-28s %10s\n", "counter",
                  "value");
    out += line;
    for (const CounterAggregate& c : report.counters) {
      std::snprintf(line, sizeof(line), "%-28s %10llu\n",
                    c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out += line;
    }
  }
  return out;
}

}  // namespace fmtcp::obs::trace
