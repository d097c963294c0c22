#include "obs/trace/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <vector>

namespace fmtcp::obs::trace {

namespace {

/// Minimal JSON string escaping for span/thread names (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Extracts the raw text after `"key":` in `line` (value up to the
/// next ',' or '}' for numbers; the quoted body for strings). Returns
/// false if the key is absent.
bool find_value(const std::string& line, const char* key,
                std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t v = at + needle.size();
  if (v >= line.size()) return false;
  if (line[v] == '"') {
    std::size_t end = v + 1;
    while (end < line.size() &&
           (line[end] != '"' || line[end - 1] == '\\')) {
      ++end;
    }
    if (end >= line.size()) return false;
    out = line.substr(v + 1, end - v - 1);
    return true;
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  out = line.substr(v, end - v);
  return !out.empty();
}

bool find_double(const std::string& line, const char* key, double& out) {
  std::string raw;
  if (!find_value(line, key, raw)) return false;
  char* end = nullptr;
  out = std::strtod(raw.c_str(), &end);
  return end != raw.c_str();
}

}  // namespace

std::string to_chrome_trace_json(const TraceReport& report) {
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  bool first = true;
  for (const auto& [index, name] : report.threads) {
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", index,
                  json_escape(name).c_str());
    out += line;
    first = false;
  }
  for (const SpanRecord& r : report.records) {
    const double ts =
        static_cast<double>(r.begin_ns - report.session_begin_ns) / 1e3;
    const double dur = static_cast<double>(r.end_ns - r.begin_ns) / 1e3;
    const double self_us = static_cast<double>(r.self_ns) / 1e3;
    std::snprintf(
        line, sizeof(line),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f,"
        "\"arg\":%llu,\"id\":%llu,\"parent\":%llu}}",
        first ? "" : ",\n", json_escape(r.name).c_str(),
        r.thread_index, ts, dur, self_us,
        static_cast<unsigned long long>(r.arg),
        static_cast<unsigned long long>(r.span_id),
        static_cast<unsigned long long>(r.parent_id));
    out += line;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  std::snprintf(line, sizeof(line),
                ",\"otherData\":{\"droppedRecords\":%llu}}\n",
                static_cast<unsigned long long>(report.dropped_records));
  out += line;
  return out;
}

ChromeTraceSummary summarize_chrome_trace(std::istream& in) {
  ChromeTraceSummary summary;
  struct Acc {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    double max_us = 0.0;
    std::vector<double> durs_us;
  };
  std::map<std::string, Acc> spans;
  std::map<std::uint32_t, std::string> threads;
  double min_ts = 0.0, max_end = 0.0;
  bool any = false;

  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"M\"") != std::string::npos) {
      std::string name, tid_raw;
      // thread_name metadata carries the label in args.name; grab the
      // *last* "name" occurrence (the first is "thread_name" itself).
      const std::size_t args = line.find("\"args\"");
      if (args != std::string::npos &&
          find_value(line.substr(args), "name", name)) {
        double tid = 0.0;
        if (find_double(line, "tid", tid)) {
          threads[static_cast<std::uint32_t>(tid)] = name;
        }
      }
      continue;
    }
    if (line.find("\"ph\":\"X\"") == std::string::npos) {
      if (line.find("\"name\"") != std::string::npos) {
        ++summary.lines_skipped;
      }
      continue;
    }
    std::string name;
    double ts = 0.0, dur = 0.0, self_us = 0.0;
    if (!find_value(line, "name", name) ||
        !find_double(line, "ts", ts) ||
        !find_double(line, "dur", dur)) {
      ++summary.lines_skipped;
      continue;
    }
    if (!find_double(line, "self_us", self_us)) self_us = dur;
    Acc& acc = spans[name];
    ++acc.count;
    acc.total_us += dur;
    acc.self_us += self_us;
    acc.max_us = std::max(acc.max_us, dur);
    acc.durs_us.push_back(dur);
    min_ts = any ? std::min(min_ts, ts) : ts;
    max_end = any ? std::max(max_end, ts + dur) : ts + dur;
    any = true;
    ++summary.events_parsed;
  }

  summary.report.captured_records = true;
  summary.report.session_begin_ns = 0;
  summary.report.session_end_ns =
      static_cast<std::uint64_t>((max_end - min_ts) * 1e3);
  for (auto& [name, acc] : spans) {
    SpanAggregate agg;
    agg.name = name;
    agg.count = acc.count;
    agg.total_ms = acc.total_us / 1e3;
    agg.self_ms = acc.self_us / 1e3;
    agg.max_ms = acc.max_us / 1e3;
    std::sort(acc.durs_us.begin(), acc.durs_us.end());
    const auto at = [&acc](double q) {
      const std::size_t i = static_cast<std::size_t>(
          q * static_cast<double>(acc.durs_us.size() - 1));
      return acc.durs_us[i] / 1e3;
    };
    agg.p50_ms = at(0.50);
    agg.p99_ms = at(0.99);
    summary.report.spans.push_back(std::move(agg));
  }
  // `spans` is a std::map, so this emits in name order — the same
  // byte-stable ordering trace::stop() produces for live sessions.
  for (const auto& [tid, name] : threads) {
    summary.report.threads.emplace_back(tid, name);
  }
  return summary;
}

}  // namespace fmtcp::obs::trace
