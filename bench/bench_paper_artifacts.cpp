// Prints the paper's reproduced tables and figures (src/paper/) and writes
// their CSV series into the working directory.
//
//   bench_paper_artifacts              every artifact, in table order
//   bench_paper_artifacts <id>...      the named ones, e.g. table_3_1 fig_4_3
//
// An unknown id lists the valid ids on stderr and exits 1, as does a CSV
// file that cannot be written.
#include <cstdio>
#include <vector>

#include "paper/artifacts.hpp"

int main(int argc, char** argv) {
  using namespace lac::paper;
  std::vector<const Artifact*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Artifact* a = find_artifact(argv[i]);
    if (!a) {
      std::fprintf(stderr, "unknown artifact '%s'; valid ids:\n", argv[i]);
      for (const Artifact& valid : artifacts())
        std::fprintf(stderr, "  %-18s %s\n", valid.id, valid.caption);
      return 1;
    }
    chosen.push_back(a);
  }
  if (chosen.empty())
    for (const Artifact& a : artifacts()) chosen.push_back(&a);

  for (const Artifact* a : chosen) {
    Report report;
    a->render(report);
    std::fputs(report.text().c_str(), stdout);
    for (const Report::CsvFile& csv : report.csv_files()) {
      std::FILE* f = std::fopen(csv.name.c_str(), "w");
      const bool written = f && std::fputs(csv.text.c_str(), f) >= 0;
      if (!f || std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "%s: cannot write %s\n", a->id, csv.name.c_str());
        return 1;
      }
    }
  }
  return 0;
}
