// Chrome trace_events exporter for TraceReport records, plus the
// reader that aggregates such a file back into a span table
// (`tools/trace_summary`).
//
// The output is the "JSON object format" chrome://tracing and Perfetto
// both load: {"traceEvents":[...],"displayTimeUnit":"ms"} with one
// complete ("ph":"X") event per span and one metadata ("ph":"M")
// thread_name event per thread. Timestamps are microseconds relative
// to the session start; self time and the free-form span argument ride
// in "args" ("self_us", "arg", "id", "parent").
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace/tracer.h"

namespace fmtcp::obs::trace {

/// Serializes the report's records (one traceEvent per line, so the
/// file is greppable). Reports drained with capture_records=false
/// produce an empty traceEvents array.
std::string to_chrome_trace_json(const TraceReport& report);

/// Re-aggregates a Chrome trace produced by this exporter: parses the
/// "ph":"X" events and rebuilds per-span-name statistics (percentiles
/// here are exact — the file holds every retained record). Unknown or
/// malformed lines are skipped and counted.
struct ChromeTraceSummary {
  TraceReport report;                  ///< spans/counters/threads filled.
  std::uint64_t events_parsed = 0;
  std::uint64_t lines_skipped = 0;
};
ChromeTraceSummary summarize_chrome_trace(std::istream& in);

}  // namespace fmtcp::obs::trace
