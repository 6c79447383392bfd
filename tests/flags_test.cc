#include "util/flags.h"

#include <gtest/gtest.h>

namespace pgrid {
namespace {

TEST(FlagSetTest, ParsesFlagsAndPositionals) {
  FlagSet flags({"--a=1", "pos1", "--b", "--c=hello", "pos2"});
  EXPECT_TRUE(flags.Has("a"));
  EXPECT_TRUE(flags.Has("b"));
  EXPECT_TRUE(flags.Has("c"));
  EXPECT_FALSE(flags.Has("d"));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagSetTest, GetString) {
  FlagSet flags({"--name=value", "--empty="});
  EXPECT_EQ(flags.GetString("name", "x"), "value");
  EXPECT_EQ(flags.GetString("empty", "x"), "");
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

TEST(FlagSetTest, GetIntParsesAndValidates) {
  FlagSet flags({"--n=42", "--neg=-7", "--bad=4x2", "--empty"});
  EXPECT_EQ(flags.GetInt("n", 0).value(), 42);
  EXPECT_EQ(flags.GetInt("neg", 0).value(), -7);
  EXPECT_EQ(flags.GetInt("missing", 99).value(), 99);
  EXPECT_FALSE(flags.GetInt("bad", 0).ok());
  EXPECT_FALSE(flags.GetInt("empty", 0).ok());
}

TEST(FlagSetTest, GetDoubleParsesAndValidates) {
  FlagSet flags({"--p=0.33", "--sci=1e3", "--bad=zero"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0).value(), 0.33);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sci", 0).value(), 1000.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 0.5).value(), 0.5);
  EXPECT_FALSE(flags.GetDouble("bad", 0).ok());
}

TEST(FlagSetTest, FirstOccurrenceWins) {
  FlagSet flags({"--x=1", "--x=2"});
  EXPECT_EQ(flags.GetInt("x", 0).value(), 1);
}

TEST(FlagSetTest, FlagNames) {
  FlagSet flags({"--a=1", "--b"});
  EXPECT_EQ(flags.FlagNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(FlagSetTest, CheckKnownNamesEveryFlagTheUsageDoesNotSpell) {
  const std::string usage = "tool --seeds=50 [--crash-sweep] [--keep-going]";
  EXPECT_TRUE(FlagSet({"--seeds=2", "--crash-sweep", "pos"}).CheckKnown(usage).ok());
  // "--seed" is a prefix of "--seeds", not a match.
  const Status s =
      FlagSet({"--seed=2", "--crash_sweep", "--keep-going"}).CheckKnown(usage);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("--seed --crash_sweep"), std::string::npos) << s.message();
  EXPECT_EQ(s.message().find("--keep-going"), std::string::npos);
}

}  // namespace
}  // namespace pgrid
