#include "common/table.hpp"

#include <gtest/gtest.h>

namespace lac {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("Demo");
  t.set_header({"a", "bbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("bbb"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, HandlesRaggedRows) {
  Table t("Ragged");
  t.set_header({"x", "y", "z"});
  t.add_row({"only-one"});
  EXPECT_NE(t.str().find("only-one"), std::string::npos);
}

TEST(Format, FixedAndSignificant) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_sig(0.000123456, 3), "0.000123");
  EXPECT_EQ(fmt_pct(0.934, 0), "93%");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_int(12345), "12345");
}

}  // namespace
}  // namespace lac
