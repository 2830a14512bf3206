#include "common/table.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace lac {

void Table::add_separator() { separators_.push_back(rows_.size()); }

std::string Table::str() const {
  std::vector<std::size_t> width;
  auto absorb = [&width](const std::vector<std::string>& row) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) width[i] = std::max(width[i], row[i].size());
  };
  absorb(header_);
  for (const auto& r : rows_) absorb(r);

  std::ostringstream out;
  auto rule = [&out, &width]() {
    out << '+';
    for (std::size_t w : width) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  auto emit = [&out, &width](const std::vector<std::string>& row) {
    out << '|';
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out << ' ' << cell << std::string(width[i] - cell.size() + 1, ' ') << '|';
    }
    out << '\n';
  };

  out << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    emit(header_);
    rule();
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (std::find(separators_.begin(), separators_.end(), r) != separators_.end()) rule();
    emit(rows_[r]);
  }
  rule();
  return out.str();
}

void Table::print() const { std::fputs(str().c_str(), stdout); }

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_sig(double v, int sig) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", sig, v);
  return buf;
}

std::string fmt_pct(double frac, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, frac * 100.0);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  return buf;
}

}  // namespace lac
