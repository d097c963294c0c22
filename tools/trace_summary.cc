// trace_summary — aggregates the files `fmtcp_sim --obs-dir=DIR` writes.
//
// The format is detected from the first line:
//   - DIR/spans.json, a Chrome span trace (first line carries
//     "traceEvents") → per-span-name aggregate table with exact
//     percentiles.
//   - DIR/timeline.jsonl, an event timeline (anything else) →
//     per-subflow, per-block and per-link (packet event) summaries.
//     A file none of whose lines parses as an event is not a timeline:
//     it exits 1 naming the file.
//
//   fmtcp_sim --protocol=fmtcp --obs-dir=/tmp/run --duration=30
//   trace_summary /tmp/run/timeline.jsonl
//   trace_summary /tmp/run/spans.json
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/timeline_summary.h"
#include "obs/trace/chrome_trace.h"

namespace {

int summarize_timeline(std::istream& in, const char* path) {
  const fmtcp::obs::TimelineSummary summary =
      fmtcp::obs::summarize_timeline(in);
  if (summary.total_events == 0 && summary.malformed_lines > 0) {
    std::fprintf(stderr, "%s: not a timeline (none of its %llu lines parses)\n",
                 path,
                 static_cast<unsigned long long>(summary.malformed_lines));
    return 1;
  }
  std::fputs(fmtcp::obs::format_timeline_summary(summary).c_str(), stdout);
  if (!summary.per_link.empty()) {
    std::printf(
        "\n(link ids from the harness: 0/2 = path-1/2 forward, 1/3 = "
        "reverse)\n");
  }
  return 0;
}

void summarize_spans(std::istream& in) {
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
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <timeline.jsonl | spans.json>\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::string first_line;
  std::getline(in, first_line);
  in.clear();
  in.seekg(0);
  if (first_line.find("\"traceEvents\"") != std::string::npos) {
    summarize_spans(in);
    return 0;
  }
  return summarize_timeline(in, argv[1]);
}
