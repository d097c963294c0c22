// Parallel scenario sweeps: run many independent simulations across
// threads and aggregate per-seed statistics. Each simulation is fully
// self-contained (its own Simulator, topology, RNG streams, packet-uid
// stream, buffer pool), so runs are embarrassingly parallel; results are
// returned in submission order regardless of completion order, and are
// bit-identical to a serial run of the same cells.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flags.h"
#include "harness/runner.h"

namespace fmtcp::harness {

struct SweepJob {
  Protocol protocol = Protocol::kFmtcp;
  Scenario scenario;
  ProtocolOptions options = ProtocolOptions::defaults();
};

/// Thread-pooled sweep executor: submit cells, then run() them all.
///
/// `jobs == 1` executes every cell inline on the calling thread, in
/// submission order — exactly the pre-pool serial behaviour. With
/// `jobs > 1` the cells run on a pool, but because every simulation is
/// self-contained the RunResult vector is identical either way.
class SweepRunner {
 public:
  /// `jobs` = maximum simulations in flight; 0 = hardware concurrency.
  explicit SweepRunner(unsigned jobs = 0);

  /// Queues one simulation cell; returns its index in the result vector.
  std::size_t submit(Protocol protocol, Scenario scenario,
                     const ProtocolOptions& options);
  std::size_t submit(SweepJob job);

  /// Runs every queued cell and returns results in submission order;
  /// the queue is cleared for reuse. With jobs > 1, queued scenarios
  /// must not share a non-null observer (it is not thread-safe).
  std::vector<RunResult> run();

  /// Per-cell result callback for run_streaming: the cell's submission
  /// index, the job that produced it, and its result (moved in).
  using ResultSink =
      std::function<void(std::size_t index, const SweepJob& job,
                         RunResult&& result)>;

  /// Streaming variant of run(): delivers each result to `sink` in
  /// submission order, on the calling thread, as soon as it (and every
  /// earlier cell) completes. At most a small window of cells is in
  /// flight or buffered at once, so arbitrarily large grids run in
  /// bounded memory; completed-prefix delivery is what makes an output
  /// log double as a crash-resume manifest. Results are bit-identical
  /// to run() at any `jobs` value. Same observer rule as run().
  void run_streaming(const ResultSink& sink);

  unsigned jobs() const { return jobs_; }
  std::size_t queued() const { return queue_.size(); }

 private:
  unsigned jobs_;
  std::vector<SweepJob> queue_;
};

/// Registers and parses the shared `--jobs` flag (0 = hardware
/// concurrency) for the bench/tool binaries; a value outside
/// [0, UINT_MAX] exits 2 naming the flag.
unsigned jobs_from_flags(FlagParser& flags);

/// Runs every job, `threads` at a time (0 = hardware concurrency).
/// Results are in job order. Wrapper over SweepRunner.
std::vector<RunResult> run_parallel(const std::vector<SweepJob>& jobs,
                                    unsigned threads = 0);

/// Replicates one configuration across `seeds` (overriding
/// scenario.seed) and runs them in parallel.
std::vector<RunResult> run_seeds(Protocol protocol, Scenario scenario,
                                 const ProtocolOptions& options,
                                 const std::vector<std::uint64_t>& seeds,
                                 unsigned threads = 0);

/// Mean and sample standard deviation of `metric` over results.
struct SeedStats {
  double mean = 0.0;
  double stddev = 0.0;
};
SeedStats aggregate(const std::vector<RunResult>& results,
                    const std::function<double(const RunResult&)>& metric);

}  // namespace fmtcp::harness
