// trace_summary — aggregates simulator output files into reports.
//
// Three modes:
//   - CSV packet traces written by `fmtcp_sim --trace=FILE` (or any
//     CsvTracer) → per-link statistics.
//   - JSONL event timelines written by `fmtcp_sim --timeline=FILE` →
//     per-subflow and per-block summaries (pass --timeline).
//   - Chrome span traces written by `fmtcp_sim --trace-out=FILE` →
//     per-span-name aggregate table with exact percentiles (pass
//     --spans).
//
//   fmtcp_sim --protocol=fmtcp --trace=/tmp/run.csv --duration=30
//   trace_summary /tmp/run.csv
//   fmtcp_sim --protocol=fmtcp --timeline=/tmp/run.jsonl --duration=30
//   trace_summary --timeline /tmp/run.jsonl
//   fmtcp_sim --protocol=fmtcp --trace-out=/tmp/spans.json --duration=30
//   trace_summary --spans /tmp/spans.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "net/trace_summary.h"
#include "obs/timeline_summary.h"
#include "obs/trace/chrome_trace.h"

namespace {

enum class Mode { kCsv, kTimeline, kSpans };

int summarize_csv(std::istream& in) {
  const fmtcp::net::TraceSummary summary = fmtcp::net::summarize_trace(in);
  std::fputs(fmtcp::net::format_trace_summary(summary).c_str(), stdout);
  std::printf(
      "\n(link ids from the harness: 0/2 = path-1/2 forward, 1/3 = "
      "reverse)\n");
  return 0;
}

int summarize_timeline(std::istream& in) {
  const fmtcp::obs::TimelineSummary summary =
      fmtcp::obs::summarize_timeline(in);
  std::fputs(fmtcp::obs::format_timeline_summary(summary).c_str(), stdout);
  return 0;
}

int summarize_spans(std::istream& in) {
  const fmtcp::obs::trace::ChromeTraceSummary summary =
      fmtcp::obs::trace::summarize_chrome_trace(in);
  std::fputs(
      fmtcp::obs::trace::format_span_table(summary.report).c_str(), stdout);
  std::printf("\n%llu events parsed",
              static_cast<unsigned long long>(summary.events_parsed));
  if (summary.lines_skipped > 0) {
    std::printf(", %llu lines skipped",
                static_cast<unsigned long long>(summary.lines_skipped));
  }
  std::printf("\n");
  return 0;
}

int dispatch(Mode mode, std::istream& in) {
  switch (mode) {
    case Mode::kTimeline:
      return summarize_timeline(in);
    case Mode::kSpans:
      return summarize_spans(in);
    case Mode::kCsv:
      break;
  }
  return summarize_csv(in);
}

}  // namespace

int main(int argc, char** argv) {
  Mode mode = Mode::kCsv;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeline") == 0) {
      mode = Mode::kTimeline;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      mode = Mode::kSpans;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;  // Too many positionals.
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--timeline | --spans] "
                 "<trace.csv | timeline.jsonl | spans.json>  "
                 "(use - for stdin)\n",
                 argv[0]);
    return 2;
  }

  if (std::strcmp(path, "-") == 0) {
    return dispatch(mode, std::cin);
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  return dispatch(mode, in);
}
