#include "common/flags.h"

#include <gtest/gtest.h>

namespace fmtcp {
namespace {

FlagParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  FlagParser flags = parse({"--name=value", "--x=3.5"});
  EXPECT_EQ(flags.get_string("name", "d"), "value");
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 3.5);
}

TEST(Flags, SpaceSyntax) {
  FlagParser flags = parse({"--name", "value", "--n", "42"});
  EXPECT_EQ(flags.get_string("name", "d"), "value");
  EXPECT_EQ(flags.get_int("n", 0), 42);
}

TEST(Flags, BareBooleanIsTrue) {
  FlagParser flags = parse({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("quiet", false));
  EXPECT_TRUE(flags.get_bool("missing_default_true", true));
}

TEST(Flags, BooleanValues) {
  FlagParser flags = parse({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  FlagParser flags = parse({});
  EXPECT_EQ(flags.get_string("s", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(flags.get_double("x", 2.25), 2.25);
  EXPECT_EQ(flags.get_int("n", -7), -7);
}

TEST(Flags, NegativeAndFloatNumbers) {
  FlagParser flags = parse({"--n=-12", "--x=-0.5"});
  EXPECT_EQ(flags.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0), -0.5);
}

TEST(Flags, PositionalArguments) {
  FlagParser flags = parse({"pos1", "--k=v", "pos2"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "pos2");
}

TEST(Flags, UnknownFlagsDetected) {
  FlagParser flags = parse({"--known=1", "--mystery=2"});
  flags.get_int("known", 0);
  const auto unknown = flags.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "mystery");
}

TEST(Flags, HasReportsPresence) {
  FlagParser flags = parse({"--present"});
  EXPECT_TRUE(flags.has("present"));
  EXPECT_FALSE(flags.has("absent"));
}

TEST(Flags, UsageListsRegisteredFlags) {
  FlagParser flags = parse({});
  flags.get_int("alpha", 5, "the alpha knob");
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("default: 5"), std::string::npos);
  EXPECT_NE(usage.find("the alpha knob"), std::string::npos);
}

TEST(Flags, LastValueWins) {
  FlagParser flags = parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.get_int("n", 0), 2);
}

TEST(Flags, MalformedNumberExitsNamingTheFlag) {
  FlagParser flags = parse({"--loss=abc", "--queue=12x", "--x=", "--n=1.5",
                            "--big=99999999999999999999"});
  EXPECT_EXIT(flags.get_double("loss", 0.0), testing::ExitedWithCode(2),
              "--loss");
  EXPECT_EXIT(flags.get_int("queue", 0), testing::ExitedWithCode(2),
              "--queue");
  EXPECT_EXIT(flags.get_double("x", 0.0), testing::ExitedWithCode(2), "--x");
  EXPECT_EXIT(flags.get_int("n", 0), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(flags.get_int("big", 0), testing::ExitedWithCode(2), "--big");
}

TEST(Flags, ParseNumbersWhole) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_EQ(parse_double("0.1,"), std::nullopt);
  EXPECT_EQ(parse_double(""), std::nullopt);
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int("7 "), std::nullopt);
  EXPECT_EQ(parse_int("0x10"), std::nullopt);
}

}  // namespace
}  // namespace fmtcp
