// Unit tests for src/util: stats accumulators, RNG, table/CSV formatting,
// argument parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ckd::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i * i - 3.0 * i + 1.0;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
}

TEST(Rng, Deterministic) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Table, AlignsColumns) {
  TablePrinter t;
  t.setHeader({"a", "bbbb"});
  t.addRow({"xxx", "y"});
  const std::string out = t.toString();
  EXPECT_NE(out.find("a    bbbb"), std::string::npos);
  EXPECT_NE(out.find("xxx  y"), std::string::npos);
}

TEST(Table, TitlePrinted) {
  TablePrinter t;
  t.setTitle("Table 1");
  t.setHeader({"x"});
  t.addRow({"1"});
  EXPECT_EQ(t.toString().rfind("Table 1\n", 0), 0u);
}

TEST(Csv, QuotesSpecialCells) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.writeRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Format, Fixed) {
  EXPECT_EQ(formatFixed(12.3456, 3), "12.346");
  EXPECT_EQ(formatFixed(12.0, 1), "12.0");
}

TEST(Format, Percent) {
  EXPECT_EQ(formatPercent(0.123), "12.3%");
  EXPECT_EQ(formatPercent(0.4, 0), "40%");
}

TEST(Args, KeyValueForms) {
  // Note: a bare flag followed by a positional is ambiguous in this grammar
  // ("--flag pos" reads as --flag=pos), so positionals come first.
  const char* argv[] = {"prog", "--a=1", "--b", "2", "pos", "--flag"};
  Args args(6, argv);
  EXPECT_EQ(args.getInt("a", 0), 1);
  EXPECT_EQ(args.getInt("b", 0), 2);
  EXPECT_TRUE(args.getBool("flag", false));
  EXPECT_FALSE(args.getBool("missing", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Args, IntList) {
  const char* argv[] = {"prog", "--procs=64,128,256"};
  Args args(2, argv);
  const auto list = args.getIntList("procs", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 64);
  EXPECT_EQ(list[2], 256);
}

TEST(Args, Fallbacks) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("x", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.getDouble("y", 2.5), 2.5);
  const auto list = args.getIntList("l", {7});
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], 7);
}

TEST(Args, WholeTokensParse) {
  const char* argv[] = {"prog",      "--a=-12",  "--b=+7", "--x=2.5e3",
                        "--l=1,-2,3", "--f=off", "--g=yes", "--h=0"};
  Args args(8, argv);
  EXPECT_EQ(args.getInt("a", 0), -12);
  EXPECT_EQ(args.getInt("b", 0), 7);
  EXPECT_DOUBLE_EQ(args.getDouble("x", 0.0), 2500.0);
  EXPECT_EQ(args.getIntList("l", {}), (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_FALSE(args.getBool("f", true));
  EXPECT_TRUE(args.getBool("g", false));
  EXPECT_FALSE(args.getBool("h", true));
}

TEST(Args, MalformedValuesFailNamingFlagAndValue) {
  const char* argv[] = {"prog",         "--iters=abc",  "--count=5x",
                        "--shards=two", "--big=99999999999999999999",
                        "--pad= 5",     "--rate=1.5y",  "--tiny=1e-400",
                        "--sizes=64,x", "--gap=1,,2",   "--flag=maybe"};
  Args args(11, argv);
  EXPECT_DEATH(args.getInt("iters", 1), "--iters needs an integer, got 'abc'");
  EXPECT_DEATH(args.getInt("count", 1), "--count needs an integer, got '5x'");
  EXPECT_DEATH(args.getInt("shards", 0),
               "--shards needs an integer, got 'two'");
  EXPECT_DEATH(args.getInt("big", 0), "--big needs an integer");
  EXPECT_DEATH(args.getInt("pad", 0), "--pad needs an integer, got ' 5'");
  EXPECT_DEATH(args.getDouble("rate", 0.0),
               "--rate needs a number, got '1.5y'");
  EXPECT_DEATH(args.getDouble("tiny", 0.0), "--tiny needs a number");
  EXPECT_DEATH(args.getIntList("sizes", {}),
               "--sizes needs an integer, got 'x'");
  EXPECT_DEATH(args.getIntList("gap", {}), "--gap needs an integer, got ''");
  EXPECT_DEATH(args.getBool("flag", false), "--flag needs 1/0, true/false");
}

}  // namespace
}  // namespace ckd::util
