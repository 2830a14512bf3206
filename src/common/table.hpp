#pragma once
// ASCII tables and number formatting for the regenerated paper tables
// (src/paper/) and the examples.
#include <string>
#include <vector>

namespace lac {

/// Column-aligned ASCII table with a title, header row and string cells.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header) { header_ = std::move(header); }
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  /// Insert a horizontal separator after the current last row.
  void add_separator();

  /// Render to a string (used by benches; also unit-testable).
  std::string str() const;
  /// Render directly to stdout.
  void print() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> separators_;
};

/// Format helpers: fixed decimals, significant digits, percents.
std::string fmt(double v, int decimals = 2);
std::string fmt_sig(double v, int sig = 3);
std::string fmt_pct(double frac, int decimals = 0);  // 0.93 -> "93%"
std::string fmt_int(long long v);

}  // namespace lac
