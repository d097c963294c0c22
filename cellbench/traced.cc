#include "traced.h"

#include "common/check.h"
#include "obs/trace/span.h"

namespace cellbench {

using namespace fmtcp;

namespace {

constexpr LayerNames kFmtcpNames = {
    "core.sender.next_segment", "core.sender.retransmit_segment",
    "core.sender.feedback",     "core.receiver.on_segment",
    "core.receiver.fill_ack",
};

constexpr LayerNames kMptcpNames = {
    "mptcp.sender.next_segment", "mptcp.sender.retransmit_segment",
    "mptcp.sender.feedback",     "mptcp.receiver.on_segment",
    "mptcp.receiver.fill_ack",
};

}  // namespace

std::optional<tcp::SegmentContent> TimedProvider::next_segment(
    std::uint32_t subflow) {
  FMTCP_SPAN(names_.next_segment);
  std::optional<tcp::SegmentContent> content = inner_.next_segment(subflow);
  if (!content) ++empty_next_;
  return content;
}

std::optional<tcp::SegmentContent> TimedProvider::retransmit_segment(
    std::uint32_t subflow, std::uint64_t seq) {
  FMTCP_SPAN(names_.retransmit_segment);
  return inner_.retransmit_segment(subflow, seq);
}

void TimedProvider::on_segment_acked(std::uint32_t subflow,
                                     std::uint64_t seq,
                                     const tcp::SegmentContent& content) {
  FMTCP_SPAN(names_.feedback);
  inner_.on_segment_acked(subflow, seq, content);
}

void TimedProvider::on_segment_lost(std::uint32_t subflow, std::uint64_t seq,
                                    const tcp::SegmentContent& content) {
  FMTCP_SPAN(names_.feedback);
  inner_.on_segment_lost(subflow, seq, content);
}

void TimedProvider::on_ack_info(std::uint32_t subflow,
                                const net::Packet& ack) {
  FMTCP_SPAN(names_.feedback);
  inner_.on_ack_info(subflow, ack);
}

void TimedSink::on_segment(std::uint32_t subflow, net::Packet& p) {
  FMTCP_SPAN(names_.on_segment);
  inner_.on_segment(subflow, p);
}

void TimedSink::fill_ack(std::uint32_t subflow, const net::Packet& data,
                         net::Packet& ack, std::size_t& extra_bytes) {
  FMTCP_SPAN(names_.fill_ack);
  inner_.fill_ack(subflow, data, ack, extra_bytes);
}

// Same construction order as FmtcpConnection / MptcpConnection, so every
// component forks the same RNG stream as in the real cell.
TracedCell::TracedCell(Workload workload, std::uint64_t seed)
    : options_(cell_options(workload)),
      simulator_(seed),
      topology_(make_topology(simulator_)),
      goodput_(options_.goodput_bin) {
  tcp::WiringOptions wiring;
  if (is_fmtcp(workload)) {
    const core::FmtcpConnectionConfig config = fmtcp_config(options_);
    FMTCP_CHECK(!config.use_lia);
    fmtcp_sender_ = std::make_unique<core::FmtcpSender>(
        simulator_, config.params, &delays_, config.source, config.observer);
    fmtcp_receiver_ = std::make_unique<core::FmtcpReceiver>(
        simulator_, config.params, &goodput_, config.block_sink,
        config.observer);
    wiring.subflow = config.subflow;
    wiring.receiver = config.receiver;
    wiring.fresh_payload_on_retransmit = true;
    wiring.seed_loss_hint = config.seed_loss_hint;
    provider_ = std::make_unique<TimedProvider>(*fmtcp_sender_, kFmtcpNames);
    sink_ = std::make_unique<TimedSink>(*fmtcp_receiver_, kFmtcpNames);
  } else {
    const mptcp::MptcpConnectionConfig config = mptcp_config(options_);
    FMTCP_CHECK(!config.use_lia);
    mptcp_sender_ = std::make_unique<mptcp::MptcpSender>(
        simulator_, config.sender, &delays_, config.observer);
    mptcp_receiver_ = std::make_unique<mptcp::MptcpReceiver>(
        simulator_, config.receive_buffer_bytes, &goodput_);
    wiring.subflow = config.subflow;
    wiring.subflow.mss_payload = config.sender.segment_bytes;
    wiring.receiver = config.receiver;
    wiring.fresh_payload_on_retransmit = false;
    wiring.seed_loss_hint = config.seed_loss_hint;
    provider_ = std::make_unique<TimedProvider>(*mptcp_sender_, kMptcpNames);
    sink_ = std::make_unique<TimedSink>(*mptcp_receiver_, kMptcpNames);
  }
  wired_ = tcp::wire_subflows(simulator_, topology_, *provider_, *sink_,
                              wiring);
  for (auto& subflow : wired_.subflows) {
    subflows_.push_back(subflow.get());
    if (fmtcp_sender_) {
      fmtcp_sender_->register_subflow(subflow.get());
    } else {
      mptcp_sender_->register_subflow(subflow.get());
    }
  }
  if (fmtcp_sender_) {
    fmtcp_sender_->start();
  } else {
    mptcp_sender_->start();
  }
}

Outcome TracedCell::outcome() {
  if (fmtcp_sender_) {
    return fmtcp_outcome(options_.fmtcp, goodput_, delays_, *fmtcp_sender_,
                         *fmtcp_receiver_, subflows_);
  }
  return mptcp_outcome(goodput_, *mptcp_sender_, *mptcp_receiver_,
                       subflows_);
}

std::map<std::string, double> TracedCell::counters() {
  std::map<std::string, double> c;
  const auto add = [&c](const char* name, double value) { c[name] += value; };
  for (std::size_t i = 0; i < topology_.path_count(); ++i) {
    for (net::Link* link :
         {&topology_.path(i).forward(), &topology_.path(i).reverse()}) {
      add("net.link.sent", static_cast<double>(link->sent_count()));
      add("net.link.channel_drops",
          static_cast<double>(link->channel_drop_count()));
      add("net.link.queue_drops",
          static_cast<double>(link->queue_drop_count()));
    }
  }
  for (const tcp::Subflow* subflow : subflows_) {
    add("tcp.segments_sent", static_cast<double>(subflow->segments_sent()));
    add("tcp.retransmissions",
        static_cast<double>(subflow->retransmissions()));
    add("tcp.timeouts", static_cast<double>(subflow->timeouts()));
  }
  for (const auto& receiver : wired_.subflow_receivers) {
    add("tcp.acks_sent", static_cast<double>(receiver->acks_sent()));
  }
  const BufferPool::Stats pool = simulator_.buffer_pool().stats();
  add("common.bufferpool.acquired", static_cast<double>(pool.acquired));
  add("common.bufferpool.reused", static_cast<double>(pool.reused));
  add("common.bufferpool.high_water", static_cast<double>(pool.high_water));
  add("common.bufferpool.outstanding_at_end",
      static_cast<double>(pool.outstanding));
  add("sim.events",
      static_cast<double>(simulator_.scheduler().executed_count()));
  add("next_segment.empty",
      static_cast<double>(provider_->empty_next_segments()));
  if (fmtcp_sender_) {
    add("fountain.symbols_sent",
        static_cast<double>(fmtcp_sender_->blocks().total_symbols_sent()));
    add("fountain.symbols_received",
        static_cast<double>(fmtcp_receiver_->total_symbols_received()));
    add("fountain.redundant_symbols",
        static_cast<double>(fmtcp_receiver_->redundant_symbols()));
    add("fountain.source_symbols",
        static_cast<double>(delays_.completed_blocks()) *
            options_.fmtcp.block_symbols);
  } else {
    add("mptcp.window_limited",
        static_cast<double>(mptcp_sender_->window_limited_events()));
    add("mptcp.max_ooo_bytes",
        static_cast<double>(mptcp_receiver_->max_out_of_order_bytes()));
  }
  return c;
}

std::vector<OpTrace::Op>& OpTrace::ops_for(std::uint64_t parent) {
  return parent == kNoParent ? setup_ : by_parent_[parent];
}

void OpTrace::on_schedule(std::uint64_t parent, std::uint64_t seq,
                          SimTime when, const char* /*tag*/) {
  // Grow before taking the parent's list: the resize moves the lists.
  if (by_parent_.size() <= seq) by_parent_.resize(seq + 1);
  if (locations_.size() <= seq) locations_.resize(seq + 1);
  std::vector<Op>& ops = ops_for(parent);
  locations_[seq] = {parent, ops.size()};
  ops.push_back({seq, when, false, false});
}

void OpTrace::on_handle(std::uint64_t /*parent*/, std::uint64_t seq) {
  const Location& at = locations_[seq];
  ops_for(at.parent)[at.index].want_handle = true;
}

void OpTrace::on_cancel(std::uint64_t parent, std::uint64_t target) {
  ops_for(parent).push_back({target, 0, true, false});
}

// Replayed seqs are assigned in the recording's global order, so recorded
// seqs index the replay's handles and cancels hit the intended events.
std::uint64_t OpTrace::replay(SimTime horizon) const {
  sim::Scheduler scheduler;
  std::vector<sim::EventHandle> handles(by_parent_.size());
  struct Replayer {
    const OpTrace& trace;
    sim::Scheduler& scheduler;
    std::vector<sim::EventHandle>& handles;
    void run(const std::vector<Op>& ops) {
      for (const Op& op : ops) {
        if (op.is_cancel) {
          handles[op.target].cancel();
          continue;
        }
        const std::uint64_t child = op.target;
        auto pending = scheduler.schedule_at(
            op.when, "replay", [this, child] { run(trace.by_parent_[child]); });
        if (op.want_handle) handles[child] = pending;
      }
    }
  };
  Replayer replayer{*this, scheduler, handles};
  replayer.run(setup_);
  scheduler.run_until(horizon);
  return scheduler.executed_count();
}

}  // namespace cellbench
