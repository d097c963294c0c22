#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace fmtcp {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* want) {
  std::fprintf(stderr, "--%s: '%s' is not %s\n", name.c_str(), value.c_str(),
               want);
  std::exit(2);
}

}  // namespace

std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

FlagParser::FlagParser(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // Bare boolean.
    }
  }
}

bool FlagParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagParser::get_string(const std::string& name,
                                   const std::string& fallback,
                                   const std::string& help) {
  registered_[name] = {fallback, help};
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double FlagParser::get_double(const std::string& name, double fallback,
                              const std::string& help) {
  std::ostringstream fallback_str;
  fallback_str << fallback;
  registered_[name] = {fallback_str.str(), help};
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<double> value = parse_double(it->second);
  if (!value) bad_value(name, it->second, "a number");
  return *value;
}

std::int64_t FlagParser::get_int(const std::string& name,
                                 std::int64_t fallback,
                                 const std::string& help) {
  registered_[name] = {std::to_string(fallback), help};
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<std::int64_t> value = parse_int(it->second);
  if (!value) bad_value(name, it->second, "an integer");
  return *value;
}

bool FlagParser::get_bool(const std::string& name, bool fallback,
                          const std::string& help) {
  registered_[name] = {fallback ? "true" : "false", help};
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  return v.empty() || v == "1" || v == "true" || v == "yes";
}

std::vector<std::string> FlagParser::unknown_flags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (registered_.count(name) == 0) unknown.push_back(name);
  }
  return unknown;
}

std::string FlagParser::usage() const {
  std::ostringstream out;
  for (const auto& [name, info] : registered_) {
    out << "  --" << name << " (default: " << info.fallback << ")";
    if (!info.help.empty()) out << "  " << info.help;
    out << "\n";
  }
  return out.str();
}

}  // namespace fmtcp
