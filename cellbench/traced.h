// Layer attribution measured from outside the program.
//
// A traced cell rebuilds the wiring FmtcpConnection / MptcpConnection do
// (sender, receiver, tcp::wire_subflows, register_subflow) from public
// parts, and inserts a timing SegmentProvider and DataSink between the
// subflows and the protocol. Every call across that boundary runs inside
// a trace span named after its layer, so the tracer's self-time
// arithmetic separates protocol work from the event core, links and TCP
// below it, and from the codec and buffer-pool spans the program already
// records inside it.
//
// OpTrace records a cell's scheduler operation stream through the public
// Scheduler::set_op_recorder hook and replays it with no-op callbacks:
// the event core's own cost for that cell.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cell.h"
#include "tcp/wiring.h"

namespace cellbench {

/// Span names of the decorated calls.
struct LayerNames {
  const char* next_segment;
  const char* retransmit_segment;
  const char* feedback;
  const char* on_segment;
  const char* fill_ack;
};

/// Forwards every SegmentProvider call to `inner` inside a span.
class TimedProvider final : public fmtcp::tcp::SegmentProvider {
 public:
  TimedProvider(fmtcp::tcp::SegmentProvider& inner, const LayerNames& names)
      : inner_(inner), names_(names) {}

  std::optional<fmtcp::tcp::SegmentContent> next_segment(
      std::uint32_t subflow) override;
  std::optional<fmtcp::tcp::SegmentContent> retransmit_segment(
      std::uint32_t subflow, std::uint64_t seq) override;
  void on_segment_acked(std::uint32_t subflow, std::uint64_t seq,
                        const fmtcp::tcp::SegmentContent& content) override;
  void on_segment_lost(std::uint32_t subflow, std::uint64_t seq,
                       const fmtcp::tcp::SegmentContent& content) override;
  void on_ack_info(std::uint32_t subflow,
                   const fmtcp::net::Packet& ack) override;

  /// next_segment calls that returned nothing to send.
  std::uint64_t empty_next_segments() const { return empty_next_; }

 private:
  fmtcp::tcp::SegmentProvider& inner_;
  LayerNames names_;
  std::uint64_t empty_next_ = 0;
};

/// Forwards every DataSink call to `inner` inside a span.
class TimedSink final : public fmtcp::tcp::DataSink {
 public:
  TimedSink(fmtcp::tcp::DataSink& inner, const LayerNames& names)
      : inner_(inner), names_(names) {}

  void on_segment(std::uint32_t subflow, fmtcp::net::Packet& p) override;
  void fill_ack(std::uint32_t subflow, const fmtcp::net::Packet& data,
                fmtcp::net::Packet& ack, std::size_t& extra_bytes) override;

 private:
  fmtcp::tcp::DataSink& inner_;
  LayerNames names_;
};

/// The decorated twin of Cell. Its deterministic outcome must equal the
/// real cell's for the same seed; run.py checks that for every cell
/// it traces.
class TracedCell {
 public:
  TracedCell(Workload workload, std::uint64_t seed);

  fmtcp::sim::Simulator& simulator() { return simulator_; }
  Outcome outcome();
  /// Per-layer work counters read from the program's own accessors, by
  /// metric name (summed over links and subflows).
  std::map<std::string, double> counters();

 private:
  fmtcp::harness::ProtocolOptions options_;
  fmtcp::sim::Simulator simulator_;
  fmtcp::net::Topology topology_;
  fmtcp::metrics::GoodputMeter goodput_;
  fmtcp::metrics::BlockDelayRecorder delays_;
  std::unique_ptr<fmtcp::core::FmtcpSender> fmtcp_sender_;
  std::unique_ptr<fmtcp::core::FmtcpReceiver> fmtcp_receiver_;
  std::unique_ptr<fmtcp::mptcp::MptcpSender> mptcp_sender_;
  std::unique_ptr<fmtcp::mptcp::MptcpReceiver> mptcp_receiver_;
  std::unique_ptr<TimedProvider> provider_;
  std::unique_ptr<TimedSink> sink_;
  fmtcp::tcp::WiredSubflows wired_;
  std::vector<fmtcp::tcp::Subflow*> subflows_;
};

/// A cell's scheduler operation stream, grouped by the event whose
/// callback performed each operation.
class OpTrace final : public fmtcp::sim::SchedulerOpRecorder {
 public:
  void on_schedule(std::uint64_t parent, std::uint64_t seq,
                   fmtcp::SimTime when, const char* tag) override;
  void on_handle(std::uint64_t parent, std::uint64_t seq) override;
  void on_cancel(std::uint64_t parent, std::uint64_t target) override;

  /// Replays the stream on a fresh Scheduler up to `horizon`, with
  /// callbacks that only re-issue their recorded operations. Returns the
  /// number of events executed.
  std::uint64_t replay(fmtcp::SimTime horizon) const;

 private:
  struct Op {
    std::uint64_t target = 0;  ///< Child seq (schedule) or victim (cancel).
    fmtcp::SimTime when = 0;
    bool is_cancel = false;
    bool want_handle = false;
  };
  struct Location {
    std::uint64_t parent = 0;
    std::size_t index = 0;
  };
  std::vector<Op>& ops_for(std::uint64_t parent);

  std::vector<Op> setup_;                   ///< Operations outside dispatch.
  std::vector<std::vector<Op>> by_parent_;  ///< Indexed by parent seq.
  std::vector<Location> locations_;         ///< Indexed by seq.
};

}  // namespace cellbench
