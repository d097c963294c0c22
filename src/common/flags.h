// Minimal command-line flag parsing for the tools/ binaries.
//
// Accepts "--name=value", "--name value", and bare "--name" (boolean
// true). Flags are registered by the get_* accessors, which also collect
// help text so `usage()` and `unknown_flags()` work without a separate
// registration step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fmtcp {

/// All of `text` as a number; nullopt when it is empty, not a number,
/// followed by other characters, or out of the type's range.
std::optional<double> parse_double(const std::string& text);
std::optional<std::int64_t> parse_int(const std::string& text);

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  /// True if --name was present on the command line.
  bool has(const std::string& name) const;

  // Each accessor registers the flag (for usage/unknown detection) and
  // returns the parsed value or `fallback`. A numeric flag whose value
  // does not parse whole exits the program with status 2, naming it.
  std::string get_string(const std::string& name,
                         const std::string& fallback,
                         const std::string& help = "");
  double get_double(const std::string& name, double fallback,
                    const std::string& help = "");
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       const std::string& help = "");
  /// Bare "--name" and "--name=true/1/yes" are true.
  bool get_bool(const std::string& name, bool fallback,
                const std::string& help = "");

  /// Arguments that were not flags.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags given on the command line that no accessor registered.
  std::vector<std::string> unknown_flags() const;

  /// One line per registered flag: "--name (default: X)  help".
  std::string usage() const;

  const std::string& program() const { return program_; }

 private:
  struct Registered {
    std::string fallback;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::map<std::string, Registered> registered_;
};

}  // namespace fmtcp
