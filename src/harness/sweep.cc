#include "harness/sweep.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "obs/trace/span.h"

namespace fmtcp::harness {

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? ThreadPool::hardware_threads() : jobs) {}

std::size_t SweepRunner::submit(Protocol protocol, Scenario scenario,
                                const ProtocolOptions& options) {
  return submit(SweepJob{protocol, std::move(scenario), options});
}

std::size_t SweepRunner::submit(SweepJob job) {
  queue_.push_back(std::move(job));
  return queue_.size() - 1;
}

std::vector<RunResult> SweepRunner::run() {
  std::vector<RunResult> results(queue_.size());
  run_streaming([&results](std::size_t i, const SweepJob&, RunResult&& r) {
    results[i] = std::move(r);
  });
  return results;
}

void SweepRunner::run_streaming(const ResultSink& sink) {
  FMTCP_SPAN_ARG("sweep.run", queue_.size());
  std::vector<SweepJob> jobs = std::move(queue_);
  queue_.clear();
  if (jobs.empty()) return;

  if (jobs_ == 1 || jobs.size() == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      RunResult result =
          run_scenario(jobs[i].protocol, jobs[i].scenario, jobs[i].options);
      sink(i, jobs[i], std::move(result));
    }
    return;
  }

  // Observers are single-threaded; concurrent cells must not share one.
  // NOLINT-DETERMINISM(duplicate-check membership only, never iterated)
  std::set<const void*> observers;
  for (const SweepJob& job : jobs) {
    if (job.scenario.observer != nullptr) {
      FMTCP_CHECK(observers.insert(job.scenario.observer).second);
    }
  }

  const unsigned threads =
      std::min<unsigned>(jobs_, static_cast<unsigned>(jobs.size()));
  // In-flight window: cell i is submitted only after cell i-window has
  // been delivered, so at most `window` results are ever buffered.
  // 2x the thread count keeps every worker busy while the main thread
  // drains the ordered prefix; the +4 floor keeps tiny pools pipelined.
  const std::size_t window =
      std::max<std::size_t>(2 * threads, std::size_t{threads} + 4);

  // Completion slots, reused modulo `window`. The windowing invariant
  // (submitted - delivered <= window) means a worker writes slot
  // i % window only after the main thread consumed its previous
  // occupant, so each slot has exactly one writer at a time.
  struct Slot {
    RunResult result;
    bool done = false;
  };
  std::vector<Slot> slots(window);
  Mutex mutex;
  CondVar slot_done;

  obs::trace::SpanScope startup_span("sweep.pool_start");
  ThreadPool pool(threads);
  startup_span.close();

  std::size_t submitted = 0;
  auto submit_one = [&](std::size_t i) {
    pool.submit([&jobs, &slots, &mutex, &slot_done, window, i] {
      RunResult result =
          run_scenario(jobs[i].protocol, jobs[i].scenario, jobs[i].options);
      MutexLock lock(mutex);
      Slot& slot = slots[i % window];
      slot.result = std::move(result);
      slot.done = true;
      slot_done.notify_all();
    });
  };
  {
    FMTCP_SPAN_ARG("sweep.dispatch", std::min(window, jobs.size()));
    for (; submitted < jobs.size() && submitted < window; ++submitted) {
      submit_one(submitted);
    }
  }
  for (std::size_t delivered = 0; delivered < jobs.size(); ++delivered) {
    RunResult result;
    {
      // Main-thread time blocked on workers; overlap, not extra work.
      FMTCP_SPAN("sweep.wait");
      MutexLock lock(mutex);
      Slot& slot = slots[delivered % window];
      while (!slot.done) slot_done.wait(mutex);
      result = std::move(slot.result);
      slot.done = false;
    }
    sink(delivered, jobs[delivered], std::move(result));
    if (submitted < jobs.size()) {
      submit_one(submitted);
      ++submitted;
    }
  }
  pool.wait();  // All delivered, so the pool is already idle.
}

unsigned jobs_from_flags(FlagParser& flags) {
  const std::int64_t jobs = flags.get_int(
      "jobs", 0, "max concurrent simulations (0 = hardware concurrency)");
  if (jobs < 0 || jobs > UINT_MAX) {
    std::fprintf(stderr, "--jobs must be in [0, %u]\n", UINT_MAX);
    std::exit(2);
  }
  return static_cast<unsigned>(jobs);
}

std::vector<RunResult> run_parallel(const std::vector<SweepJob>& jobs,
                                    unsigned threads) {
  SweepRunner runner(threads);
  for (const SweepJob& job : jobs) runner.submit(job);
  return runner.run();
}

std::vector<RunResult> run_seeds(Protocol protocol, Scenario scenario,
                                 const ProtocolOptions& options,
                                 const std::vector<std::uint64_t>& seeds,
                                 unsigned threads) {
  SweepRunner runner(threads);
  for (std::uint64_t seed : seeds) {
    SweepJob job{protocol, scenario, options};
    job.scenario.seed = seed;
    runner.submit(std::move(job));
  }
  return runner.run();
}

SeedStats aggregate(const std::vector<RunResult>& results,
                    const std::function<double(const RunResult&)>& metric) {
  SeedStats stats;
  if (results.empty()) return stats;
  double sum = 0.0;
  for (const RunResult& r : results) sum += metric(r);
  stats.mean = sum / static_cast<double>(results.size());
  if (results.size() < 2) return stats;
  double var = 0.0;
  for (const RunResult& r : results) {
    const double d = metric(r) - stats.mean;
    var += d * d;
  }
  stats.stddev = std::sqrt(var / static_cast<double>(results.size() - 1));
  return stats;
}

}  // namespace fmtcp::harness
