#pragma once
// ASCII table and CSV rendering for benchmark output. Every figure/table
// harness in bench/ prints its results through this so the rows the paper
// reports can be regenerated (and optionally post-processed as CSV).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nexuspp::util {

/// Column-aligned ASCII table with a title, a header row, and data rows.
/// Cells are free-form strings; `fmt` helpers below format numbers.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cells);
  Table& row(std::vector<std::string> cells);

  /// Renders with column alignment and a rule under the header.
  [[nodiscard]] std::string to_string() const;

  /// RFC-4180-style CSV (quotes cells containing comma/quote/newline).
  [[nodiscard]] std::string to_csv() const;

  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` digits after the decimal point.
[[nodiscard]] std::string fmt_f(double v, int prec = 2);

/// Formats a speedup like "54.3x".
[[nodiscard]] std::string fmt_x(double v, int prec = 1);

/// Formats nanoseconds with an adaptive unit (ns/us/ms/s).
[[nodiscard]] std::string fmt_ns(double ns);

/// Formats a count with thousands separators ("12,502,499").
[[nodiscard]] std::string fmt_count(std::uint64_t v);

}  // namespace nexuspp::util
