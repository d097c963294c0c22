// The per-run observability context: one metrics registry plus one event
// timeline, attached to a run as a non-owned pointer threaded through the
// configs (Scenario.observer, FmtcpConnectionConfig.observer,
// SubflowConfig.observer, ...). The harness also attaches the timeline
// to every link (net::Link::set_timeline), so packet events share it.
//
// Null observer (the default everywhere) means zero instrumentation
// cost beyond a pointer test at each site, so benches keep their seed
// performance unless a run opts in.
#pragma once

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace fmtcp::obs {

struct Observer {
  Observer() = default;
  /// `ring_capacity` sizes the timeline's in-memory tail (tests that
  /// assert on full event history want a large one).
  explicit Observer(std::size_t ring_capacity)
      : timeline(ring_capacity) {}

  MetricsRegistry metrics;
  EventTimeline timeline;
};

}  // namespace fmtcp::obs
