#include "flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace galaxy::tools {
namespace {

// Parses `args` as argv[1..] of a tool.
Flags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(FlagsTest, BooleanFlagBeforeAnotherFlag) {
  Flags flags = Parse({"--verbose", "--cycles", "1"});
  ASSERT_TRUE(flags.ok()) << flags.error();
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.Get("verbose"), "true");
  EXPECT_EQ(*flags.GetInt("cycles", 200), 1);
}

TEST(FlagsTest, TrailingBooleanFlag) {
  Flags flags = Parse({"--seed", "3", "--child"});
  ASSERT_TRUE(flags.ok()) << flags.error();
  EXPECT_TRUE(flags.Has("child"));
  EXPECT_EQ(*flags.GetInt("seed", 1), 3);
}

TEST(FlagsTest, NameEqualsValue) {
  Flags flags = Parse({"--target=faults", "--runs", "5", "--empty="});
  ASSERT_TRUE(flags.ok()) << flags.error();
  EXPECT_EQ(flags.Get("target"), "faults");
  EXPECT_EQ(*flags.GetInt("runs", 0), 5);
  EXPECT_TRUE(flags.Has("empty"));
  EXPECT_EQ(flags.Get("empty", "x"), "");
}

TEST(FlagsTest, MissingFlagsFallBack) {
  Flags flags = Parse({});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.Has("seed"));
  EXPECT_EQ(flags.Get("table", "data"), "data");
  EXPECT_EQ(*flags.GetInt("seed", 7), 7);
  EXPECT_EQ(*flags.GetDouble("gamma", 0.5), 0.5);
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  Flags flags = Parse({"--cycle", "5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags.CheckAllowed({"cycle", "seed"}));
  EXPECT_FALSE(flags.CheckAllowed({"cycles", "seed"}));
  EXPECT_EQ(flags.error(), "unknown flag: --cycle");
}

TEST(FlagsTest, PositionalArgumentIsAnError) {
  Flags flags = Parse({"--seed", "1", "2"});
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.error(), "unexpected argument: 2");
}

TEST(FlagsTest, MalformedIntegerIsAnError) {
  Flags flags = Parse({"--seed", "abc", "--runs", "1e9", "--port", ""});
  ASSERT_TRUE(flags.ok());
  for (const char* name : {"seed", "runs", "port"}) {
    auto value = flags.GetInt(name, 0);
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.status().message(),
              "--" + std::string(name) +
                  " expects an integer, got: " + flags.Get(name));
  }
  EXPECT_FALSE(Parse({"--n", "99999999999999999999"}).GetInt("n", 0).ok());
}

TEST(FlagsTest, MalformedDoubleIsAnError) {
  Flags flags = Parse({"--gamma", "banana", "--max-seconds", "5s"});
  ASSERT_TRUE(flags.ok());
  auto gamma = flags.GetDouble("gamma", 0.5);
  ASSERT_FALSE(gamma.ok());
  EXPECT_EQ(gamma.status().message(), "--gamma expects a number, got: banana");
  EXPECT_FALSE(flags.GetDouble("max-seconds", 0).ok());
  EXPECT_EQ(*Parse({"--gamma", "0.75"}).GetDouble("gamma", 0.5), 0.75);
}

TEST(FlagsTest, NegativeNumberIsAValue) {
  Flags flags = Parse({"--timeout-ms", "-5", "--offset", "-0.25", "--strict"});
  ASSERT_TRUE(flags.ok()) << flags.error();
  EXPECT_EQ(*flags.GetInt("timeout-ms", 0), -5);
  EXPECT_EQ(*flags.GetDouble("offset", 0), -0.25);
  EXPECT_EQ(flags.Get("strict"), "true");
}

}  // namespace
}  // namespace galaxy::tools
