#pragma once
// Minimal command-line flag parsing for the example binaries. Flags have
// the form `--name=value` or `--name value`; the command line is the only
// source (the benches read their few NEXUSPP_* settings from the
// environment themselves, under the same value rules: parse_bool and
// parse_count below).
//
// The greedy `--name value` form cannot tell a flag's value from a
// following positional argument, so two escape hatches exist:
//   - names registered as known booleans never consume the next token
//     (`tool --verbose trace.json` keeps `trace.json` positional), and
//   - a literal `--` terminates flag parsing; everything after it is
//     positional verbatim (including tokens that start with `--`).
// Negative numbers are safe either way: `-5` does not start with `--`, so
// `--delta -5` parses as a value.
//
// A malformed value is an error, never a silent default: the typed getters
// throw std::invalid_argument naming the flag and its value.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace nexuspp::util {

// The value rules of Flags::get_bool and Flags::get_count, for settings
// that come from elsewhere (the benches' NEXUSPP_* environment). Each
// returns nullopt for a value the rule rejects.

/// 1 / 0, true / false or yes / no.
[[nodiscard]] std::optional<bool> parse_bool(std::string_view value);
/// A whole non-negative integer that fits 32 bits, digits only.
[[nodiscard]] std::optional<std::uint32_t> parse_count(std::string_view value);

class Flags {
 public:
  /// `known_bools`: flag names that never take a separated value.
  Flags(int argc, const char* const* argv,
        std::unordered_set<std::string> known_bools = {});

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  /// A whole integer, optionally signed; anything else throws.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// A whole non-negative integer that fits 32 bits (a thread, core or
  /// bank count, a size, an index); anything else throws.
  [[nodiscard]] std::uint32_t get_count(const std::string& name,
                                        std::uint32_t fallback) const;
  /// 1 / 0, true / false or yes / no; anything else throws. A bare
  /// `--name` reads true (it stores "1").
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::unordered_set<std::string> known_bools_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace nexuspp::util
