#include "cell.h"

namespace cellbench {

using namespace fmtcp;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "fmtcp-gf2") return Workload::kFmtcpGf2;
  if (name == "fmtcp-gf256") return Workload::kFmtcpGf256;
  if (name == "mptcp") return Workload::kMptcp;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kFmtcpGf2:
      return "fmtcp-gf2";
    case Workload::kFmtcpGf256:
      return "fmtcp-gf256";
    case Workload::kMptcp:
      return "mptcp";
  }
  return "?";
}

harness::ProtocolOptions cell_options(Workload workload) {
  harness::ProtocolOptions options = harness::ProtocolOptions::defaults();
  if (workload == Workload::kFmtcpGf256) {
    options.fmtcp.coding_field = fountain::CodingField::kGf256;
  }
  return options;
}

// Both configs mirror harness::run_scenario, so a cell here is the cell
// fmtcp_sim and the paper benches run.
core::FmtcpConnectionConfig fmtcp_config(
    const harness::ProtocolOptions& options) {
  core::FmtcpConnectionConfig config;
  config.params = options.fmtcp;
  config.subflow = options.subflow;
  config.subflow.enable_sack = options.sack;
  config.receiver.delayed_acks = options.delayed_acks;
  config.use_lia = options.fmtcp_use_lia;
  config.goodput_bin = options.goodput_bin;
  return config;
}

mptcp::MptcpConnectionConfig mptcp_config(
    const harness::ProtocolOptions& options) {
  mptcp::MptcpConnectionConfig config;
  config.subflow = options.subflow;
  config.subflow.enable_sack = options.sack;
  config.sender.segment_bytes = options.subflow.mss_payload;
  config.sender.metric_block_bytes = options.fmtcp.block_bytes();
  config.sender.scheduler = options.mptcp_scheduler;
  config.sender.enable_reinjection = options.mptcp_reinjection;
  config.receiver.delayed_acks = options.delayed_acks;
  config.receive_buffer_bytes = options.mptcp_receive_buffer;
  config.use_lia = options.mptcp_use_lia;
  config.goodput_bin = options.goodput_bin;
  return config;
}

net::Topology make_topology(sim::Simulator& simulator) {
  harness::Scenario scenario;
  scenario.path1 = {100.0, 0.0};
  scenario.path2 = {100.0, 0.10};
  scenario.bandwidth_Bps = 0.625e6;  // 5 Mb/s
  scenario.queue_packets = 100;
  return net::Topology(simulator, {scenario.path_config(scenario.path1),
                                   scenario.path_config(scenario.path2)});
}

namespace {

void collect_subflows(const std::vector<tcp::Subflow*>& subflows,
                      Outcome& outcome) {
  for (const tcp::Subflow* subflow : subflows) {
    outcome.segments_sent.push_back(subflow->segments_sent());
    outcome.retransmissions.push_back(subflow->retransmissions());
  }
}

}  // namespace

Outcome fmtcp_outcome(const core::FmtcpParams& params,
                      const metrics::GoodputMeter& goodput,
                      const metrics::BlockDelayRecorder& delays,
                      const core::FmtcpSender& sender,
                      const core::FmtcpReceiver& receiver,
                      const std::vector<tcp::Subflow*>& subflows) {
  Outcome outcome;
  outcome.delivered_bytes = goodput.total_bytes();
  outcome.blocks_completed = delays.completed_blocks();
  outcome.symbols_sent = sender.blocks().total_symbols_sent();
  outcome.redundant_symbols = receiver.redundant_symbols();
  collect_subflows(subflows, outcome);
  if (!receiver.payload_verified()) {
    outcome.failure = "payload verification failed";
  } else if (outcome.delivered_bytes !=
             receiver.blocks_delivered() * params.block_bytes()) {
    outcome.failure = "delivered bytes != delivered blocks x block bytes";
  }
  return outcome;
}

Outcome mptcp_outcome(const metrics::GoodputMeter& goodput,
                      const mptcp::MptcpSender& sender,
                      const mptcp::MptcpReceiver& receiver,
                      const std::vector<tcp::Subflow*>& subflows) {
  Outcome outcome;
  outcome.delivered_bytes = goodput.total_bytes();
  outcome.blocks_completed = sender.blocks_completed();
  collect_subflows(subflows, outcome);
  if (receiver.delivered_bytes() != outcome.delivered_bytes) {
    outcome.failure = "receiver delivered bytes != goodput meter bytes";
  }
  return outcome;
}

Cell::Cell(Workload workload, std::uint64_t seed,
           sim::SchedulerOpRecorder* recorder, bool profile)
    : options_(cell_options(workload)),
      simulator_(seed),
      topology_(make_topology(simulator_)) {
  // Topology construction schedules nothing, so attaching here still
  // sees every operation of the run.
  simulator_.scheduler().set_op_recorder(recorder);
  simulator_.scheduler().set_profiling(profile);
  if (is_fmtcp(workload)) {
    fmtcp_ = std::make_unique<core::FmtcpConnection>(simulator_, topology_,
                                                     fmtcp_config(options_));
    fmtcp_->start();
  } else {
    mptcp_ = std::make_unique<mptcp::MptcpConnection>(
        simulator_, topology_, mptcp_config(options_));
    mptcp_->start();
  }
}

Outcome Cell::outcome() {
  std::vector<tcp::Subflow*> subflows;
  if (fmtcp_) {
    for (std::size_t i = 0; i < fmtcp_->subflow_count(); ++i) {
      subflows.push_back(&fmtcp_->subflow(i));
    }
    return fmtcp_outcome(options_.fmtcp, fmtcp_->goodput(),
                         fmtcp_->block_delays(), fmtcp_->sender(),
                         fmtcp_->receiver(), subflows);
  }
  for (std::size_t i = 0; i < mptcp_->subflow_count(); ++i) {
    subflows.push_back(&mptcp_->subflow(i));
  }
  return mptcp_outcome(mptcp_->goodput(), mptcp_->sender(),
                       mptcp_->receiver(), subflows);
}

}  // namespace cellbench
