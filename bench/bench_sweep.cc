// Grid-sweep engine: the fleet-scale sweep runner.
//
// Builds the cartesian product loss x RTT x path-asymmetry x block-size
// x protocol x seed (hundreds to thousands of cells), streams one JSON
// line per cell to --out in submission order as cells complete, and
// holds only a small in-flight window in memory
// (SweepRunner::run_streaming). Lines carry only deterministic fields,
// so the file is byte-identical at any --jobs value, and because
// delivery is a completed prefix the file doubles as the crash-resume
// manifest: --resume validates the intact prefix of an interrupted run
// (dropping a torn tail line) and continues from the first missing cell
// without recomputing anything.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "harness/sweep.h"

using namespace fmtcp;
using namespace fmtcp::harness;

namespace {

/// One cell of the cartesian grid: the job plus the axis coordinates
/// that produced it (echoed into its JSONL line).
struct GridCell {
  SweepJob job;
  double loss2 = 0.0;
  double delay2_ms = 0.0;
  double delay1_ms = 0.0;
  std::uint32_t block_symbols = 0;
  std::uint64_t seed = 0;
};

/// Reads the comma-list flag `name`, turning each entry into a T with
/// `parse`; exits 2 naming the flag on an empty list or an entry `parse`
/// rejects.
template <typename T, typename Parse>
std::vector<T> get_list(FlagParser& flags, const char* name,
                        const char* fallback, const char* help,
                        Parse parse) {
  std::vector<T> out;
  std::stringstream stream(flags.get_string(name, fallback, help));
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::optional<T> value = parse(item);
    if (!value) {
      std::fprintf(stderr, "--%s: bad entry '%s'\n", name, item.c_str());
      std::exit(2);
    }
    out.push_back(*value);
  }
  if (out.empty()) {
    std::fprintf(stderr, "--%s: empty list\n", name);
    std::exit(2);
  }
  return out;
}

std::optional<std::uint32_t> parse_block_symbols(const std::string& item) {
  const std::optional<double> blocks = parse_double(item);
  if (!blocks || *blocks < 1 || *blocks > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*blocks);
}

/// Grid axis lists. Iteration order (outer to inner): seed, protocol,
/// block size, path-1 delay, path-2 delay, loss. The order is part of
/// the output contract — cell ids index this sequence, and resume
/// counts on it.
struct GridAxes {
  std::vector<double> loss2;
  std::vector<double> delay2_ms;
  std::vector<double> delay1_ms;
  std::vector<std::uint32_t> block_symbols;
  std::vector<Protocol> protocols;
  int seeds = 1;
};

std::vector<GridCell> build_grid_cells(const GridAxes& axes, double seconds) {
  std::vector<GridCell> cells;
  for (int seed = 1; seed <= axes.seeds; ++seed) {
    for (Protocol protocol : axes.protocols) {
      for (std::uint32_t blocks : axes.block_symbols) {
        for (double delay1 : axes.delay1_ms) {
          for (double delay2 : axes.delay2_ms) {
            for (double loss : axes.loss2) {
              GridCell cell;
              cell.loss2 = loss;
              cell.delay2_ms = delay2;
              cell.delay1_ms = delay1;
              cell.block_symbols = blocks;
              cell.seed = static_cast<std::uint64_t>(seed);
              cell.job.protocol = protocol;
              cell.job.scenario.path1 = {delay1, 0.0};
              cell.job.scenario.path2 = {delay2, loss};
              cell.job.scenario.duration = from_seconds(seconds);
              cell.job.scenario.seed = cell.seed;
              cell.job.options.fmtcp.block_symbols = blocks;
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

/// Formats one cell's JSONL line. Deterministic fields only (no wall
/// clock), so the byte stream is identical at any --jobs value.
std::string grid_line(std::size_t cell_id, const GridCell& cell,
                      const RunResult& r) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"cell\": %zu, \"protocol\": \"%s\", \"loss2\": %.10g, "
      "\"delay2_ms\": %.10g, \"delay1_ms\": %.10g, "
      "\"block_symbols\": %u, \"seed\": %llu, "
      "\"delivered_bytes\": %llu, \"goodput_MBps\": %.10g, "
      "\"blocks_completed\": %llu, \"mean_delay_ms\": %.10g, "
      "\"jitter_ms\": %.10g, \"max_delay_ms\": %.10g, "
      "\"redundant_symbols\": %llu, \"payload_ok\": %s, "
      "\"sim_events\": %llu}\n",
      cell_id, protocol_name(cell.job.protocol), cell.loss2, cell.delay2_ms,
      cell.delay1_ms, cell.block_symbols,
      static_cast<unsigned long long>(cell.seed),
      static_cast<unsigned long long>(r.delivered_bytes), r.goodput_MBps,
      static_cast<unsigned long long>(r.blocks_completed), r.mean_delay_ms,
      r.jitter_ms, r.max_delay_ms,
      static_cast<unsigned long long>(r.redundant_symbols),
      r.payload_ok ? "true" : "false",
      static_cast<unsigned long long>(r.sim_events));
  return buffer;
}

/// Scans an interrupted run's output for its intact prefix: complete
/// lines whose leading "cell" ids are exactly 0,1,2,... Returns the
/// number of valid lines; `prefix` receives their exact bytes (a torn
/// tail line from a mid-write crash is dropped).
std::size_t scan_resume_prefix(const std::string& path, std::string* prefix) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  std::size_t next_cell = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof() && !line.empty()) break;  // Torn tail: no newline.
    unsigned long long cell = 0;
    if (std::sscanf(line.c_str(), "{\"cell\": %llu,", &cell) != 1 ||
        cell != next_cell || line.back() != '}') {
      break;
    }
    prefix->append(line);
    prefix->push_back('\n');
    ++next_cell;
  }
  return next_cell;
}

int run_grid(FlagParser& flags, double seconds, unsigned threads) {
  GridAxes axes;
  axes.loss2 = get_list<double>(flags, "grid-loss",
                                "0,0.005,0.01,0.02,0.05,0.1",
                                "path-2 loss axis", parse_double);
  axes.delay2_ms =
      get_list<double>(flags, "grid-delay2", "50,100,150,200",
                       "path-2 one-way delay axis (ms)", parse_double);
  axes.delay1_ms = get_list<double>(
      flags, "grid-delay1", "50,100,150,200",
      "path-1 one-way delay axis (ms) — path asymmetry", parse_double);
  axes.block_symbols = get_list<std::uint32_t>(
      flags, "grid-blocks", "16,64,128", "block size axis (source symbols)",
      parse_block_symbols);
  axes.protocols = get_list<Protocol>(
      flags, "grid-protocols", "fmtcp,mptcp",
      "protocol axis (comma list of fmtcp|mptcp|hmtp|fixed-rate)",
      parse_protocol);
  axes.seeds = static_cast<int>(flags.get_int("grid-seeds", 1,
                                              "seeds per grid point"));
  const std::string out_path =
      flags.get_string("out", "grid.jsonl", "grid output (JSONL)");
  const bool resume = flags.get_bool(
      "resume", false, "continue an interrupted run from --out's prefix");

  const std::vector<GridCell> cells = build_grid_cells(axes, seconds);
  SweepRunner runner(threads);
  std::printf(
      "grid: %zu cells (%zu loss x %zu delay2 x %zu delay1 x %zu blocks "
      "x %zu protocols x %d seeds) x %.0f simulated s, jobs=%u\n",
      cells.size(), axes.loss2.size(), axes.delay2_ms.size(),
      axes.delay1_ms.size(), axes.block_symbols.size(),
      axes.protocols.size(), axes.seeds, seconds, runner.jobs());

  std::string prefix;
  std::size_t first_cell = 0;
  if (resume) {
    first_cell = scan_resume_prefix(out_path, &prefix);
    FMTCP_CHECK(first_cell <= cells.size());
    std::printf("resume: %zu/%zu cells already complete in %s\n",
                first_cell, cells.size(), out_path.c_str());
  }

  // "w" + replay of the validated prefix (rather than append) truncates
  // any torn tail line the crash left behind.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::perror(("cannot open " + out_path).c_str());
    return 1;
  }
  if (!prefix.empty()) {
    FMTCP_CHECK(std::fwrite(prefix.data(), 1, prefix.size(), out) ==
                prefix.size());
  }
  FMTCP_CHECK(std::fflush(out) == 0);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = first_cell; i < cells.size(); ++i) {
    runner.submit(cells[i].job);
  }
  std::uint64_t events = 0;
  std::size_t done = first_cell;
  runner.run_streaming([&](std::size_t index, const SweepJob&,
                           RunResult&& result) {
    const std::size_t cell_id = first_cell + index;
    const std::string line = grid_line(cell_id, cells[cell_id], result);
    FMTCP_CHECK(std::fwrite(line.data(), 1, line.size(), out) ==
                line.size());
    // Flush per line: the completed prefix on disk is the resume
    // manifest, so it must survive a kill at any instant.
    FMTCP_CHECK(std::fflush(out) == 0);
    events += result.sim_events;
    ++done;
    if (done % 50 == 0 || done == cells.size()) {
      std::printf("grid: %zu/%zu cells\n", done, cells.size());
    }
  });
  FMTCP_CHECK(std::fclose(out) == 0);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "grid: %zu cells in %.2f s wall (%.1f cells/s, %.2fM events/s) "
      "-> %s\n",
      cells.size() - first_cell, wall,
      wall > 0 ? static_cast<double>(cells.size() - first_cell) / wall : 0.0,
      wall > 0 ? static_cast<double>(events) / wall / 1e6 : 0.0,
      out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const double seconds =
      flags.get_double("seconds", 2.0, "simulated seconds per cell");
  return run_grid(flags, seconds, jobs_from_flags(flags));
}
