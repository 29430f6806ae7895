#include "util/flags.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace nexuspp::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + "=" + value + ": expected " +
                              expected);
}

}  // namespace

std::optional<bool> parse_bool(std::string_view value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  return std::nullopt;
}

std::optional<std::uint32_t> parse_count(std::string_view value) {
  // An unsigned from_chars takes digits only: no sign, no space, no junk.
  std::uint32_t out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

Flags::Flags(int argc, const char* const* argv,
             std::unordered_set<std::string> known_bools)
    : known_bools_(std::move(known_bools)) {
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (flags_done || arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {  // terminator: the rest is positional verbatim
      flags_done = true;
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--name value` unless the next token is itself a flag or `name` is a
    // known boolean (which would otherwise swallow a positional argument).
    if (!known_bools_.count(arg) && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_.emplace_back(std::move(arg), argv[i + 1]);
      ++i;
    } else {
      values_.emplace_back(std::move(arg), "1");
    }
  }
}

std::optional<std::string> Flags::get(const std::string& name) const {
  // Last occurrence on the command line wins.
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->first == name) return it->second;
  }
  return std::nullopt;
}

std::string Flags::get_or(const std::string& name,
                          const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::int64_t out = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    bad_value(name, *v, "an integer");
  }
  return out;
}

std::uint32_t Flags::get_count(const std::string& name,
                               std::uint32_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (const auto n = parse_count(*v)) return *n;
  bad_value(name, *v, "a non-negative count");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (const auto b = parse_bool(*v)) return *b;
  bad_value(name, *v, "1, 0, true, false, yes or no");
}

}  // namespace nexuspp::util
