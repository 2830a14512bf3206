// Pins the paper's reproduced tables and figures (src/paper/): one FNV-1a
// digest per artifact over the text it prints and the CSV files it writes,
// and a bound on every gap an artifact records: the paper's value against
// the model's, and the simulator's cycles and energy against the model's.
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
#include <vector>

#include "paper/artifacts.hpp"

namespace lac::paper {
namespace {

struct Pinned {
  const char* id;
  std::uint64_t digest;
};

// Computed over the stdout and CSV files of the per-artifact bench mains
// this table replaced (bench_<id>, one binary per artifact), and equal to
// the ported artifacts' digests; sec_4_3's and sim_model_gap's were
// computed on the artifacts as they were added.
constexpr Pinned kDigests[] = {
    {"table_3_1", 0x40d3615429b2b286ull},
    {"table_3_2", 0x216a78cf4f4b2289ull},
    {"fig_3_4", 0xdcbc6eae81791deaull},
    {"fig_3_5", 0xca122402983d5356ull},
    {"fig_3_6_3_7", 0x38c507de78b3237cull},
    {"table_4_1", 0xa59e42fc745d02f6ull},
    {"table_4_2", 0xb509485eca6a5339ull},
    {"sec_4_3", 0xf5c783dc782b8cc6ull},
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
    {"table_a_2", 0xb5456f90fc7f56a3ull},
    {"table_b_1", 0x6c9190c70763e5f5ull},
    {"table_b_2_b_3", 0x1b0d79a9cf1e3c49ull},
    {"fig_b_5_b_7", 0xcda1bf948b22e1a6ull},
    {"fig_b_11_13", 0xbd19a8ed302c0ff2ull},
    {"ablation_codesign", 0x65c75f45270536e0ull},
    {"chip_scaling", 0xd6273506b0f55e6cull},
    {"sim_model_gap", 0x895e8833a3f01c4dull},
};

/// The worst gap an artifact records under one name (Report::gap), pinned
/// at its value rounded up in the third decimal. "paper" is the worst
/// |model/paper - 1| of the "paper | model" cells; "<KIND> cycles" and
/// "<KIND> energy" are the worst |sim/model - 1| of sim_model_gap. A
/// change may tighten a bound, never loosen it.
struct GapBound {
  const char* id;
  const char* gap;
  double bound;
};

constexpr GapBound kGapBounds[] = {
    {"table_3_1", "paper", 0.617},  // GF^2/W, DP at 0.20 GHz: 20.4 | 33.0 printed
    {"sec_4_3", "paper", 0.092},    // ClearSpeed CSX utilization: 78% | 85% printed
    {"table_5_1", "paper", 0.918},  // W/mm2, SYR2K at nr = 8: 0.290 | 0.556 printed
    {"sim_model_gap", "GEMM cycles", 0.088},
    {"sim_model_gap", "GEMM energy", 0.061},
    {"sim_model_gap", "SYRK cycles", 0.033},
    {"sim_model_gap", "SYRK energy", 0.146},
    {"sim_model_gap", "SYR2K cycles", 0.110},
    {"sim_model_gap", "SYR2K energy", 0.164},
    {"sim_model_gap", "TRSM cycles", 0.225},
    {"sim_model_gap", "TRSM energy", 0.235},
    {"sim_model_gap", "CHOL cycles", 0.339},
    {"sim_model_gap", "CHOL energy", 0.211},
    {"sim_model_gap", "LU cycles", 0.036},
    {"sim_model_gap", "LU energy", 0.111},
    {"sim_model_gap", "QR cycles", 0.161},
    {"sim_model_gap", "QR energy", 0.199},
    {"sim_model_gap", "VNORM cycles", 0.073},
    {"sim_model_gap", "VNORM energy", 0.192},
    {"sim_model_gap", "CHIP_GEMM cycles", 0.091},
    {"sim_model_gap", "CHIP_GEMM energy", 0.035},
    {"sim_model_gap", "FFT cycles", 0.012},
    {"sim_model_gap", "FFT energy", 0.006},
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

TEST(PaperArtifacts, GapsWithinBound) {
  std::vector<bool> recorded(std::size(kGapBounds), false);
  for (const Artifact& a : artifacts()) {
    Report report;
    a.render(report);
    for (const Report::Gap& g : report.gaps()) {
      const GapBound* pin = nullptr;
      for (const GapBound& b : kGapBounds)
        if (std::string(b.id) == a.id && b.gap == g.name) pin = &b;
      if (!pin) {
        ADD_FAILURE() << a.id << " records gap \"" << g.name
                      << "\" with no bound; worst " << g.worst;
        continue;
      }
      recorded[static_cast<std::size_t>(pin - kGapBounds)] = true;
      EXPECT_LE(g.worst, pin->bound) << a.id << " " << g.name;
      // Bounds only tighten: one that a gap has fallen under by a
      // thousandth or more is pinned again at the gap.
      EXPECT_LT(pin->bound - g.worst, 0.001)
          << a.id << " " << g.name << " fell to " << g.worst << "; tighten its bound";
    }
  }
  for (std::size_t i = 0; i < std::size(kGapBounds); ++i)
    EXPECT_TRUE(recorded[i]) << kGapBounds[i].id << " bounds \"" << kGapBounds[i].gap
                             << "\" but records no such gap";
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
  EXPECT_TRUE(report.gaps().empty());
  EXPECT_EQ(report.vs(20.4, 33.0, 1), "20.4 | 33.0");
  EXPECT_EQ(report.vs_pct(0.80, 0.72), "80% | 72%");
  EXPECT_EQ(report.vs(2.0, 1.0, 2), "2.00 | 1.00");
  ASSERT_EQ(report.gaps().size(), 1u);
  EXPECT_EQ(report.gaps()[0].name, "paper");
  EXPECT_DOUBLE_EQ(report.gaps()[0].worst, 33.0 / 20.4 - 1.0);
}

}  // namespace
}  // namespace lac::paper
