#include "sim/reporter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace hymem::sim {
namespace {

TEST(Stack, TotalSumsParts) {
  Stack s{{0.5, 0.3, 0.2}};
  EXPECT_DOUBLE_EQ(s.total(), 1.0);
  EXPECT_DOUBLE_EQ(Stack{}.total(), 0.0);
}

FigureTable sample_table() {
  FigureTable t("test figure", {"static", "dynamic"}, {"a", "b"});
  t.add("w1", {Stack{{1.0, 1.0}}, Stack{{2.0, 2.0}}});
  t.add("w2", {Stack{{2.0, 2.0}}, Stack{{4.0, 4.0}}});
  return t;
}

TEST(FigureTable, MeansOverTotals) {
  const auto t = sample_table();
  // Series a totals: 2, 4 -> G-Mean sqrt(8)=2.828..., A-Mean 3.
  EXPECT_NEAR(t.geomean_total(0), 2.8284271, 1e-6);
  EXPECT_DOUBLE_EQ(t.amean_total(0), 3.0);
  EXPECT_NEAR(t.geomean_total(1), 5.6568542, 1e-6);
}

TEST(FigureTable, PrintContainsWorkloadsAndMeans) {
  const auto t = sample_table();
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("test figure"), std::string::npos);
  EXPECT_NE(s.find("w1"), std::string::npos);
  EXPECT_NE(s.find("G-Mean"), std::string::npos);
  EXPECT_NE(s.find("A-Mean"), std::string::npos);
  EXPECT_NE(s.find("a:static"), std::string::npos);
  EXPECT_NE(s.find("b:total"), std::string::npos);
}

TEST(FigureTable, CsvRowPerWorkload) {
  const auto t = sample_table();
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  // header + 2 workloads = 3 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
  EXPECT_NE(s.find("workload,a:static"), std::string::npos);
}

// A zero total has no logarithm, nor has the NaN of a 0/0 normalization (a
// workload that writes nothing to NVM at a small scale): the G-Mean is taken
// over the positive totals, the text names the rows it left out, and the CSV
// keeps every row.
TEST(FigureTable, GeomeanLeavesOutZeroTotalsAndNamesThem) {
  FigureTable t("zeros", {"c"}, {"a", "b"});
  t.add("w1", {Stack{{2.0}}, Stack{{1.0}}});
  t.add("w2", {Stack{{0.0}}, Stack{{4.0}}});
  t.add("w3", {Stack{{8.0}}, Stack{{0.0}}});
  t.add("w4", {Stack{{0.0}}, Stack{{16.0}}});
  EXPECT_DOUBLE_EQ(t.geomean_total(0), 4.0);
  EXPECT_DOUBLE_EQ(t.geomean_total(1), 4.0);
  EXPECT_EQ(t.geomean_left_out(0), (std::vector<std::string>{"w2", "w4"}));
  EXPECT_EQ(t.geomean_left_out(1), (std::vector<std::string>{"w3"}));
  EXPECT_DOUBLE_EQ(t.amean_total(0), 2.5);

  std::ostringstream text;
  t.print(text);
  const std::string s = text.str();
  EXPECT_TRUE(s.ends_with("\nG-Mean leaves out totals that are not positive: "
                          "a (w2, w4); b (w3)\n"))
      << s;

  std::ostringstream csv_out;
  t.print_csv(csv_out);
  const std::string csv = csv_out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_NE(csv.find("\nw2,0.000000,0.000000,4.000000,4.000000\n"),
            std::string::npos)
      << csv;

  FigureTable none("none", {"c"}, {"a"});
  none.add("w", {Stack{{0.0}}});
  none.add("nan", {Stack{{std::nan("")}}});
  EXPECT_DOUBLE_EQ(none.geomean_total(0), 0.0);
  EXPECT_EQ(none.geomean_left_out(0), (std::vector<std::string>{"w", "nan"}));
  EXPECT_DOUBLE_EQ(none.amean_total(0), 0.0);
  EXPECT_EQ(none.amean_left_out(0), (std::vector<std::string>{"nan"}));
  std::ostringstream none_text;
  none.print(none_text);
  EXPECT_TRUE(none_text.str().ends_with(
      "\nG-Mean leaves out totals that are not positive: a (w, nan)\n"
      "A-Mean leaves out totals that are not finite: a (nan)\n"))
      << none_text.str();
}

// A ratio of two G-Means that left out different rows would divide means
// over different workloads (fig4b at scale 4096: CLOCK-DWF's bodytrack total
// is 0, two-LRU's is not). The ratio takes both over the rows positive in
// both series and names each row only one series keeps; a row both leave
// out is already named by the G-Mean note.
TEST(FigureTable, GeomeanRatioTakesBothMeansOverTheRowsBothKeep) {
  FigureTable t("ratio", {"c"}, {"a", "b"});
  t.add("w1", {Stack{{2.0}}, Stack{{1.0}}});
  t.add("w2", {Stack{{0.0}}, Stack{{4.0}}});
  t.add("w3", {Stack{{8.0}}, Stack{{4.0}}});
  t.add("w4", {Stack{{0.0}}, Stack{{0.0}}});
  t.add("w5", {Stack{{3.0}}, Stack{{std::nan("")}}});
  EXPECT_EQ(t.geomean_left_out(0), (std::vector<std::string>{"w2", "w4"}));
  EXPECT_EQ(t.geomean_left_out(1), (std::vector<std::string>{"w4", "w5"}));

  // Over w1 and w3: G-Mean(b) = sqrt(1 * 4) = 2, G-Mean(a) = sqrt(2 * 8) = 4.
  const FigureTable::GeomeanRatio ratio = t.geomean_ratio(1, 0);
  EXPECT_DOUBLE_EQ(ratio.value, 0.5);
  EXPECT_EQ(ratio.one_sided, (std::vector<std::string>{"w2", "w5"}));
  // Each series' own G-Mean keeps its own rows, so their quotient differs.
  EXPECT_GT(std::abs(t.geomean_total(1) / t.geomean_total(0) - 0.5), 0.1);

  std::ostringstream out;
  t.print_geomean_ratio(out, "b / a (G-Mean)", 1, 0);
  EXPECT_EQ(out.str(),
            "b / a (G-Mean): 0.5\n"
            "Ratio leaves out rows that only one series keeps: w2, w5\n");

  // When both series leave out the same rows, the ratio is exactly the
  // quotient of the two G-Means and no row is named.
  FigureTable same("same", {"c"}, {"a", "b"});
  same.add("w1", {Stack{{3.0}}, Stack{{0.7}}});
  same.add("w2", {Stack{{0.0}}, Stack{{0.0}}});
  same.add("w3", {Stack{{5.0}}, Stack{{1.3}}});
  const FigureTable::GeomeanRatio plain = same.geomean_ratio(1, 0);
  EXPECT_EQ(plain.value, same.geomean_total(1) / same.geomean_total(0));
  EXPECT_TRUE(plain.one_sided.empty());
  std::ostringstream plain_out;
  same.print_geomean_ratio(plain_out, "b / a", 1, 0);
  std::ostringstream quotient;
  quotient << "b / a: " << same.geomean_total(1) / same.geomean_total(0)
           << "\n";
  EXPECT_EQ(plain_out.str(), quotient.str());
}

TEST(FigureTable, ArityMismatchRejected) {
  FigureTable t("x", {"c1"}, {"s1"});
  EXPECT_THROW(t.add("w", {Stack{{1.0}}, Stack{{1.0}}}), std::logic_error);
  EXPECT_THROW(t.add("w", {Stack{{1.0, 2.0}}}), std::logic_error);
}

TEST(Reporter, MemoryCharacteristicsHeader) {
  std::ostringstream os;
  print_memory_characteristics(os, mem::dram_table4(), mem::pcm_table4());
  const std::string s = os.str();
  EXPECT_NE(s.find("Table IV"), std::string::npos);
  EXPECT_NE(s.find("DRAM"), std::string::npos);
  EXPECT_NE(s.find("NVM(PCM)"), std::string::npos);
  EXPECT_NE(s.find("100/350"), std::string::npos);
}

}  // namespace
}  // namespace hymem::sim
