#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_common.hpp"
#include "common/logging.hpp"

namespace bsvc {
namespace {

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = make_flags({"--n=4096", "--drop=0.2", "--name=fig3"});
  EXPECT_EQ(f.get_int("n", 0), 4096);
  EXPECT_DOUBLE_EQ(f.get_double("drop", 0.0), 0.2);
  EXPECT_EQ(f.get_string("name", ""), "fig3");
}

TEST(Flags, SpaceSyntax) {
  const Flags f = make_flags({"--n", "128", "--label", "x"});
  EXPECT_EQ(f.get_int("n", 0), 128);
  EXPECT_EQ(f.get_string("label", ""), "x");
}

TEST(Flags, BareBoolean) {
  const Flags f = make_flags({"--full"});
  EXPECT_TRUE(f.get_bool("full", false));
  EXPECT_FALSE(f.get_bool("other", false));
  EXPECT_TRUE(f.get_bool("missing-default-true", true));
}

TEST(Flags, ExplicitBooleanValues) {
  const Flags f = make_flags({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = make_flags({});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_string("s", "def"), "def");
}

TEST(Flags, HasDetectsPresence) {
  const Flags f = make_flags({"--present"});
  EXPECT_TRUE(f.has("present"));
  EXPECT_FALSE(f.has("absent"));
}

TEST(Flags, NegativeNumbers) {
  const Flags f = make_flags({"--offset=-5", "--scale=-0.5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 0.0), -0.5);
}

TEST(LogLevel, ParseAcceptsEveryLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
}

TEST(LogLevel, ParseRejectsUnknownNames) {
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("WARN"), std::nullopt);  // case-sensitive
}

TEST(LogLevel, BenchFlagAppliesValidLevel) {
  const LogLevel before = log_level();
  const Flags f = make_flags({"--log-level=debug"});
  bench::apply_log_level_flag(f);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(before);
}

TEST(FlagsDeathTest, BogusLogLevelIsAFlagError) {
  EXPECT_EXIT(
      {
        const Flags f = make_flags({"--log-level=bogus"});
        bench::apply_log_level_flag(f);
      },
      testing::ExitedWithCode(2), "invalid --log-level");
}

TEST(Flags, ShardsDefaultToOne) {
  EXPECT_EQ(bench::shards_flag(make_flags({})), 1u);
  EXPECT_EQ(bench::shards_flag(make_flags({"--shards=3"})), 3u);
}

TEST(FlagsDeathTest, NonPositiveShardsIsAFlagError) {
  EXPECT_EXIT(bench::shards_flag(make_flags({"--shards=0"})), testing::ExitedWithCode(2),
              "invalid --shards");
  EXPECT_EXIT(bench::shards_flag(make_flags({"--shards=-3"})), testing::ExitedWithCode(2),
              "invalid --shards");
}

TEST(FlagsDeathTest, UnknownFlagRejectedByFinish) {
  EXPECT_EXIT(
      {
        const Flags f = make_flags({"--typo=1"});
        f.get_int("n", 0);
        f.finish();
      },
      testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsDeathTest, MalformedIntegerRejected) {
  EXPECT_EXIT(
      {
        const Flags f = make_flags({"--n=abc"});
        (void)f.get_int("n", 0);
      },
      testing::ExitedWithCode(2), "expects an integer");
}

TEST(FlagsDeathTest, NonFlagArgumentRejected) {
  EXPECT_EXIT(make_flags({"positional"}), testing::ExitedWithCode(2), "expected --flag");
}

TEST(FlagsDeathTest, BadDropFlagRejectedAtExperimentSetup) {
  // The bench path: --drop feeds ExperimentConfig::drop_probability; an
  // out-of-range value is rejected at setup with a clear error, not deep in
  // the transport.
  EXPECT_EXIT(
      {
        const Flags f = make_flags({"--drop=1.5", "--n=8"});
        ExperimentConfig cfg;
        cfg.n = static_cast<std::size_t>(f.get_int("n", 8));
        cfg.drop_probability = f.get_double("drop", 0.0);
        BootstrapExperiment exp(cfg);
      },
      testing::ExitedWithCode(2), "drop_probability");
}

}  // namespace
}  // namespace bsvc
