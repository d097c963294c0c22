#include "harness/fairness.h"

#include <memory>

#include "net/link.h"
#include "sim/simulator.h"
#include "tcp/wiring.h"

namespace fmtcp::harness {

double FairnessResult::jain_index() const {
  const double sum = goodput_a_MBps + goodput_b_MBps;
  const double sum_sq = goodput_a_MBps * goodput_a_MBps +
                        goodput_b_MBps * goodput_b_MBps;
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (2.0 * sum_sq);
}

double FairnessResult::share_a() const {
  const double sum = goodput_a_MBps + goodput_b_MBps;
  return sum == 0.0 ? 0.5 : goodput_a_MBps / sum;
}

FairnessResult run_fairness(const FairnessConfig& config) {
  sim::Simulator simulator(config.seed);
  const ProtocolOptions options = ProtocolOptions::defaults();

  // Shared bottleneck forward link; roomy reverse link for ACKs.
  net::LinkConfig forward_config;
  forward_config.bandwidth_Bps = config.bottleneck_Bps;
  forward_config.prop_delay = config.one_way_delay;
  forward_config.queue_packets = config.queue_packets;
  net::Link forward(simulator, forward_config,
                    net::make_bernoulli(config.loss_rate));

  net::LinkConfig reverse_config = forward_config;
  reverse_config.bandwidth_Bps = 100e6;
  reverse_config.queue_packets = 0;
  net::Link reverse(simulator, reverse_config, nullptr);

  std::unique_ptr<tcp::Connection> a =
      make_connection(config.protocol_a, simulator, options, nullptr);
  std::unique_ptr<tcp::Connection> b =
      make_connection(config.protocol_b, simulator, options, nullptr);

  // One subflow each over the shared links: connection A tagged 1, B 2.
  a->attach(forward, reverse, 1);
  b->attach(forward, reverse, 2);

  // Demultiplex by connection tag at both ends.
  forward.set_sink([a = a.get(), b = b.get()](net::Packet p) {
    (p.flow_tag == 1 ? a : b)->subflow_receiver(0).on_data_packet(
        std::move(p));
  });
  reverse.set_sink([a = a.get(), b = b.get()](net::Packet p) {
    (p.flow_tag == 1 ? a : b)->subflow(0).on_ack_packet(std::move(p));
  });

  a->start();
  b->start();
  simulator.run_until(config.duration);

  FairnessResult result;
  result.goodput_a_MBps = static_cast<double>(a->goodput().total_bytes()) /
                          to_seconds(config.duration) / 1e6;
  result.goodput_b_MBps = static_cast<double>(b->goodput().total_bytes()) /
                          to_seconds(config.duration) / 1e6;
  return result;
}

}  // namespace fmtcp::harness
