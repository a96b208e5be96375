#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hymem {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = parse({"prog", "--scale=16", "--policy=two-lru"});
  EXPECT_EQ(args.get_uint("scale", 1), 16u);
  EXPECT_EQ(args.get("policy"), "two-lru");
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = parse({"prog", "--scale", "8"});
  EXPECT_EQ(args.get_uint("scale", 1), 8u);
}

TEST(Cli, BooleanFlags) {
  const auto args = parse({"prog", "--csv", "--verbose=false"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_FALSE(args.get_bool("verbose", true));
  EXPECT_FALSE(args.get_bool("absent", false));
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(Cli, BadBooleanThrows) {
  const auto args = parse({"prog", "--flag=maybe"});
  EXPECT_THROW(args.get_bool("flag"), std::invalid_argument);
}

TEST(Cli, Positionals) {
  const auto args = parse({"prog", "input.trc", "--x=1", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.trc");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, DoubleValues) {
  const auto args = parse({"prog", "--frac=0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("frac", 0.0), 0.75);
}

/// The message `get` throws, or "" when it does not throw.
template <typename Get>
std::string error_of(Get get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  const auto args =
      parse({"prog", "--prefix=12abc", "--word=abc", "--negative=-1",
             "--overflow=18446744073709551616", "--zero=0", "--max",
             "18446744073709551615", "--frac=1.5x", "--bare"});
  EXPECT_EQ(error_of([&] { args.get_uint("prefix", 1); }),
            "--prefix takes an unsigned integer, got '12abc'");
  EXPECT_EQ(error_of([&] { args.get_uint("word", 1, 1); }),
            "--word takes a positive integer, got 'abc'");
  EXPECT_EQ(error_of([&] { args.get_uint("negative", 1); }),
            "--negative takes an unsigned integer, got '-1'");
  EXPECT_EQ(error_of([&] { args.get_uint("overflow", 1); }),
            "--overflow takes an unsigned integer, got "
            "'18446744073709551616'");
  EXPECT_EQ(error_of([&] { args.get_uint("zero", 1, 1); }),
            "--zero takes a positive integer, got '0'");
  EXPECT_EQ(error_of([&] { args.get_uint("zero", 1, 4); }),
            "--zero takes an integer of at least 4, got '0'");
  EXPECT_EQ(error_of([&] { args.get_uint("bare", 1); }),
            "--bare takes an unsigned integer, got 'true'");
  EXPECT_EQ(error_of([&] { args.get_double("frac", 0.0); }),
            "--frac takes a number, got '1.5x'");
  EXPECT_EQ(error_of([&] { args.get_bool("word"); }),
            "--word takes true or false, got 'abc'");
  // Valid values at the edges still parse.
  EXPECT_EQ(args.get_uint("zero", 1), 0u);
  EXPECT_EQ(args.get_uint("max", 0, 1), 18446744073709551615u);
}

TEST(Cli, UnknownFlagsAreNamed) {
  const auto args = parse({"prog", "--scale=4", "--job", "2", "--verbose"});
  EXPECT_NO_THROW(args.reject_unknown({"scale", "job", "verbose", "seed"}));
  EXPECT_EQ(error_of([&] { args.reject_unknown({"scale", "jobs"}); }),
            "unknown flag --job --verbose");
  EXPECT_EQ(error_of([&] { args.reject_unknown({}); }),
            "unknown flag --job --scale --verbose");
  EXPECT_NO_THROW(parse({"prog", "positional"}).reject_unknown({}));
}

TEST(Cli, ProgramName) {
  const auto args = parse({"myprog"});
  EXPECT_EQ(args.program(), "myprog");
}

}  // namespace
}  // namespace hymem
