// Pins the paper's reproduced tables and figures (src/paper/): one FNV-1a
// digest per artifact over the text it prints and the CSV files it writes,
// and, where an artifact prints the paper's own value beside the model's,
// the worst gap between the two.
//
// The digests cover what a reader of a figure sees: labels, layout and
// every number at its printed precision. A model change that moves a
// printed digit fails them. libm's last bit (std::pow, std::sin and
// std::cos feed several artifacts; test_sim_golden leaves such values out
// of its bit-exact pins) moves a printed digit only at a rounding edge.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>

#include "paper/artifacts.hpp"

namespace lac::paper {
namespace {

struct Pinned {
  const char* id;
  std::uint64_t digest;
};

// Computed over the stdout and CSV files of the per-artifact bench mains
// this table replaced (bench_<id>, one binary per artifact), and equal to
// the ported artifacts' digests.
constexpr Pinned kDigests[] = {
    {"table_3_1", 0x40d3615429b2b286ull},
    {"table_3_2", 0x216a78cf4f4b2289ull},
    {"fig_3_4", 0xdcbc6eae81791deaull},
    {"fig_3_5", 0xca122402983d5356ull},
    {"fig_3_6_3_7", 0x38c507de78b3237cull},
    {"table_4_1", 0xa59e42fc745d02f6ull},
    {"table_4_2", 0xb509485eca6a5339ull},
    {"fig_4_2", 0x130ef546347c1350ull},
    {"fig_4_3", 0x1467df08be1f00b1ull},
    {"fig_4_5", 0x8334b2ea3f4d828bull},
    {"fig_4_6", 0x126eb5dc45dcde19ull},
    {"fig_4_7_4_8", 0x20f4bbdb6afc64c5ull},
    {"fig_4_9_4_12", 0xe040a39279ae65deull},
    {"fig_4_13_4_15", 0x749959890f69bcb3ull},
    {"fig_4_16", 0xdd6ebb99d17fbe8cull},
    {"table_5_1", 0xc69f7b60c67ac190ull},
    {"fig_5_8_5_9", 0x4b732e1b42bbf04aull},
    {"fig_5_10", 0x5a46f7e4ea4f3a96ull},
    {"table_6_2", 0xa941eeef99451f18ull},
    {"fig_6_5", 0x2b053b7d4b5fb8dcull},
    {"fig_6_6_6_7", 0x883b5222045ae50full},
    {"table_a_2", 0xd3d58287faae2abeull},
    {"table_b_1", 0x6c9190c70763e5f5ull},
    {"table_b_2_b_3", 0x1b0d79a9cf1e3c49ull},
    {"fig_b_5_b_7", 0xcda1bf948b22e1a6ull},
    {"fig_b_11_13", 0xbd19a8ed302c0ff2ull},
    {"ablation_codesign", 0x65c75f45270536e0ull},
    {"chip_scaling", 0xd6273506b0f55e6cull},
};

/// Worst |model/paper - 1| over an artifact's "paper | model" cells,
/// pinned at its value when set, rounded up in the third decimal. A change
/// may tighten a bound, never loosen it.
struct GapBound {
  const char* id;
  double bound;
};

constexpr GapBound kPaperGaps[] = {
    {"table_3_1", 0.617},  // GF^2/W, DP at 0.20 GHz: 33.0 | 20.4 printed
    {"table_5_1", 0.918},  // W/mm2, SYR2K at nr = 8: 0.556 | 0.290 printed
};

/// FNV-1a over the printed text, then each CSV file's name and bytes in
/// first-write order; a NUL closes every part.
std::uint64_t digest(const Report& report) {
  std::uint64_t h = 14695981039346656037ull;
  auto add = [&h](std::string_view part) {
    for (char c : part) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h *= 1099511628211ull;  // the closing NUL: h ^= 0 leaves h as it is
  };
  add(report.text());
  for (const Report::CsvFile& csv : report.csv_files()) {
    add(csv.name);
    add(csv.text);
  }
  return h;
}

TEST(PaperArtifacts, DigestsMatchParent) {
  std::string moved, table;
  for (const Artifact& a : artifacts()) {
    EXPECT_EQ(find_artifact(a.id), &a) << "duplicate id " << a.id;
    Report report;
    a.render(report);
    const std::uint64_t got = digest(report);
    const Pinned* pin = nullptr;
    for (const Pinned& p : kDigests)
      if (std::string(p.id) == a.id) pin = &p;
    if (!pin || pin->digest != got) moved += std::string(" ") + a.id;
    char row[96];
    std::snprintf(row, sizeof row, "    {\"%s\", 0x%016" PRIx64 "ull},\n", a.id, got);
    table += row;
  }
  EXPECT_EQ(std::size(kDigests), artifacts().size()) << "paste as kDigests:\n" << table;
  EXPECT_TRUE(moved.empty()) << "artifacts moved:" << moved
                             << "\nif intended, paste as kDigests:\n" << table;
  EXPECT_EQ(find_artifact("fig_9_9"), nullptr);
}

TEST(PaperArtifacts, PaperGapWithinBound) {
  for (const Artifact& a : artifacts()) {
    Report report;
    a.render(report);
    const GapBound* pin = nullptr;
    for (const GapBound& g : kPaperGaps)
      if (std::string(g.id) == a.id) pin = &g;
    if (!report.paper_gap()) {
      EXPECT_EQ(pin, nullptr) << a.id << " prints no paper value to bound";
      continue;
    }
    ASSERT_NE(pin, nullptr) << a.id << " prints paper values but has no bound; worst gap "
                            << *report.paper_gap();
    EXPECT_LE(*report.paper_gap(), pin->bound) << a.id;
  }
}

TEST(PaperReport, CsvRowsJoinCellsPerFileInFirstWriteOrder) {
  Report report;
  report.csv("f.csv", {"a", "b"});
  report.csv("g.csv", {"x"});
  report.csv("f.csv", {"1", "2"});
  ASSERT_EQ(report.csv_files().size(), 2u);
  EXPECT_EQ(report.csv_files()[0].name, "f.csv");
  EXPECT_EQ(report.csv_files()[0].text, "a,b\n1,2\n");
  EXPECT_EQ(report.csv_files()[1].name, "g.csv");
  EXPECT_EQ(report.csv_files()[1].text, "x\n");
  EXPECT_TRUE(report.text().empty());
}

TEST(PaperReport, VsCellsPrintBothValuesAndKeepTheWorstGap) {
  Report report;
  EXPECT_FALSE(report.paper_gap());
  EXPECT_EQ(report.vs(20.4, 33.0, 1), "20.4 | 33.0");
  EXPECT_EQ(report.vs_pct(0.80, 0.72), "80% | 72%");
  EXPECT_EQ(report.vs(2.0, 1.0, 2), "2.00 | 1.00");
  EXPECT_DOUBLE_EQ(*report.paper_gap(), 33.0 / 20.4 - 1.0);
}

}  // namespace
}  // namespace lac::paper
