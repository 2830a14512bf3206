#pragma once
// The paper's reproduced tables and figures (Tables 3.1-6.2, §4.3, Figs
// 3.4-6.7, Apps. A-B) and three simulator studies, as one explicit table of
// artifacts. Each artifact renders into a Report: the text
// bench_paper_artifacts prints and the CSV files it writes, which
// tests/test_paper_artifacts.cpp digests.
//
// The table is a plain array, not statics that register themselves: a
// static library drops every object file nothing references, and
// self-registered entries would go with it.
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"

namespace lac::paper {

/// One artifact's rendered output.
class Report {
 public:
  struct CsvFile {
    std::string name;  ///< file name, written in the working directory
    std::string text;  ///< its rows, comma-separated, one per line
  };

  /// The worst |value/reference - 1| recorded under one name.
  struct Gap {
    std::string name;
    double worst = 0.0;
  };

  /// A "paper | model" cell, as fixed decimals or as percents. Records
  /// the cell's gap under "paper".
  std::string vs(double paper, double model, int decimals);
  std::string vs_pct(double paper, double model);

  /// Records |value/reference - 1| under `name`, keeping the worst.
  void gap(const std::string& name, double reference, double value);

  void print(const Table& t) { text_ += t.str(); }
  /// Appends `text` and a newline, as std::puts does.
  void line(std::string_view text);
  /// Appends a row to CSV file `file`; its first row is the header.
  void csv(const std::string& file, const std::vector<std::string>& cells);

  const std::string& text() const { return text_; }
  const std::vector<CsvFile>& csv_files() const { return csv_; }
  /// One worst gap per recorded name, in first-write order.
  const std::vector<Gap>& gaps() const { return gaps_; }

 private:
  std::string text_;
  std::vector<CsvFile> csv_;
  std::vector<Gap> gaps_;
};

struct Artifact {
  const char* id;       ///< e.g. "table_3_1", "fig_4_9_4_12", "sim_model_gap"
  const char* caption;  ///< what it reproduces
  void (*render)(Report&);
};

/// Every artifact, in table order.
std::span<const Artifact> artifacts();

/// The artifact named `id`, or nullptr.
const Artifact* find_artifact(std::string_view id);

}  // namespace lac::paper
