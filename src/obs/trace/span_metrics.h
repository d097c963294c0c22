// Folds a drained TraceReport into a MetricsRegistry so span profiles
// ride along in `fmtcp_sim --obs-dir`'s metrics.json next to the run's
// protocol metrics. Lives in fmtcp_obs (not fmtcp_trace) because it is the one
// trace-plane piece that depends on the registry.
//
// Naming scheme, per span name S:
//   counter  span.S.count
//   gauges   span.S.total_ms, span.S.self_ms, span.S.p50_ms,
//            span.S.p99_ms, span.S.max_ms
// per FMTCP_COUNT counter C:
//   counter  trace.C
// plus counter trace.dropped_records when the ring overflowed.
#pragma once

#include "obs/metrics.h"
#include "obs/trace/tracer.h"

namespace fmtcp::obs::trace {

void merge_report(const TraceReport& report, MetricsRegistry& metrics);

}  // namespace fmtcp::obs::trace
