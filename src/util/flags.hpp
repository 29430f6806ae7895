#pragma once
// Minimal command-line/environment flag parsing for example and benchmark
// binaries. Flags have the form `--name=value` or `--name value`; an
// environment variable NEXUSPP_<NAME> (upper-cased, dashes->underscores)
// provides a default, so `NEXUSPP_BENCH_FULL=1 ./bench_paper_figures`
// works without arguments (needed because the harness runs every bench
// binary bare).
//
// The greedy `--name value` form cannot tell a flag's value from a
// following positional argument, so two escape hatches exist:
//   - names registered as known booleans never consume the next token
//     (`tool --verbose trace.json` keeps `trace.json` positional), and
//   - a literal `--` terminates flag parsing; everything after it is
//     positional verbatim (including tokens that start with `--`).
// Negative numbers are safe either way: `-5` does not start with `--`, so
// `--delta -5` parses as a value.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace nexuspp::util {

class Flags {
 public:
  /// `known_bools`: flag names that never take a separated value.
  Flags(int argc, const char* const* argv,
        std::unordered_set<std::string> known_bools = {});

  /// True if `--name` appeared (with or without a value) or the matching
  /// environment variable is set to a non-empty, non-"0" value.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The environment variable name consulted for flag `name`.
  [[nodiscard]] static std::string env_name(const std::string& name);

 private:
  [[nodiscard]] std::optional<std::string> lookup(
      const std::string& name) const;

  std::unordered_set<std::string> known_bools_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace nexuspp::util
