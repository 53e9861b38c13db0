// Tests for the rts_bench flag table (campaign/cli.hpp), driven through
// run_cli:
//
//  * --help is printed from the table: every accepted name appears in it,
//  * a value flag given as the last token exits 2,
//  * every (flag, mode) pair the table excludes exits 2, with the pairs
//    generated from the table,
//  * the hand-written cross-flag rules and unknown names exit 2,
//  * commands that once exited 0 while ignoring a flag now exit 2,
//  * the upper bounds that keep time values convertible to integer
//    nanoseconds: one past the bound exits 2, the bound itself runs.
//
// Every rejection returns before any campaign, hunt or soak work starts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign/cli.hpp"

namespace rts::campaign {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  args.insert(args.begin(), "rts_bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  CliRun result;
  result.code = run_cli(static_cast<int>(args.size()), argv.data());
  result.out = testing::internal::GetCapturedStdout();
  result.err = testing::internal::GetCapturedStderr();
  return result;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rts-cli-" + std::to_string(::getpid()) +
         "-" + name;
}

/// True when `text` holds `name` as a whole token (not as the prefix of a
/// longer flag such as --soak in --soak-preset).
bool names_token(const std::string& text, const std::string& name) {
  for (std::size_t at = text.find(name); at != std::string::npos;
       at = text.find(name, at + 1)) {
    const std::size_t end = at + name.size();
    const bool starts = at == 0 || text[at - 1] == ' ';
    const bool ends = end == text.size() ||
                      !(std::isalnum(static_cast<unsigned char>(text[end])) ||
                        text[end] == '-');
    if (starts && ends) return true;
  }
  return false;
}

const std::vector<CliMode> kModeList = {kCampaignMode, kHuntMode,
                                        kMinimizeMode, kConformMode,
                                        kSoakMode};

/// A cheap command in each mode.  Each holds a flag that only its mode
/// reads, so a foreign mode flag added to it is rejected too.
std::vector<std::string> base_command(CliMode mode) {
  switch (mode) {
    case kCampaignMode:
      return {"--algos", "tournament", "--ks", "2", "--trials", "1",
              "--workers", "1"};
    case kHuntMode:
      return {"--hunt", temp_path("hunt"), "--algos", "tournament", "--ks",
              "2", "--trials", "1"};
    case kMinimizeMode:
      return {"--minimize", temp_path("missing.rtst")};
    case kConformMode:
      return {"--conform", temp_path("conform")};
    case kSoakMode:
      return {"--soak", "0.05", "--rate", "20", "--algos", "tournament",
              "--ks", "2"};
  }
  return {};
}

/// A valid value for every value flag, so a rejection comes from the mode
/// check and never from the value.
const std::map<std::string, std::string>& sample_values() {
  static const std::map<std::string, std::string> values = {
      {"--preset", "quick"},
      {"--algos", "tournament"},
      {"--adversaries", "random"},
      {"--backend", "sim"},
      {"--rmr", "cc"},
      {"--ks", "2"},
      {"--n", "2"},
      {"--trials", "1"},
      {"--seed", "1"},
      {"--step-limit", "100"},
      {"--workers", "1"},
      {"--time-budget", "1"},
      {"--format", "jsonl"},
      {"--json", temp_path("out.jsonl")},
      {"--csv", temp_path("out.csv")},
      {"--bench", temp_path("bench")},
      {"--record", temp_path("record")},
      {"--replay", temp_path("replay")},
      {"--hunt", temp_path("hunt2")},
      {"--minimize", temp_path("missing2.rtst")},
      {"--conform", temp_path("conform2")},
      {"--pred", "max-steps"},
      {"--trial", "0"},
      {"--out", temp_path("out.rtst")},
      {"--faults", "stall:p=0.5,us=10"},
      {"--deadline-us", "1000"},
      {"--retries", "1"},
      {"--checkpoint", temp_path("ckpt")},
      {"--checkpoint-every", "1"},
      {"--resume", temp_path("resume")},
      {"--soak", "0.05"},
      {"--soak-preset", "soak-smoke"},
      {"--rate", "20"},
      {"--shards", "1"},
      {"--shed-backlog", "10"},
      {"--pin", "0"},
  };
  return values;
}

bool is_mode_flag(const std::string& name) {
  return name == "--hunt" || name == "--minimize" || name == "--conform" ||
         name == "--soak" || name == "--soak-preset";
}

TEST(CliTable, HelpNamesEveryFlagAndAlias) {
  const CliRun help = run({"--help"});
  ASSERT_EQ(help.code, 0);
  int names = 0;
  for (const CliFlag& flag : cli_flags()) {
    EXPECT_TRUE(names_token(help.out, flag.name)) << flag.name;
    ++names;
    if (flag.alias != nullptr) {
      EXPECT_TRUE(names_token(help.out, flag.alias)) << flag.alias;
      ++names;
    }
  }
  EXPECT_EQ(names, 42);  // 40 flags plus -h and --backends
  EXPECT_NE(help.out.find("(0, 1e+09]"), std::string::npos);
  EXPECT_NE(help.out.find("[1, 1000000000000000]"), std::string::npos);
}

TEST(CliTable, ValueFlagAsLastTokenExits2) {
  for (const CliFlag& flag : cli_flags()) {
    if (flag.metavar == nullptr) continue;
    for (const char* name : {flag.name, flag.alias}) {
      if (name == nullptr) continue;
      const CliRun result = run({name});
      EXPECT_EQ(result.code, 2) << name;
      EXPECT_NE(result.err.find(std::string(flag.name) + " needs a value"),
                std::string::npos)
          << result.err;
    }
  }
}

TEST(CliTable, EveryFlagOutsideItsModesExits2) {
  int pairs = 0;
  for (const CliFlag& flag : cli_flags()) {
    for (const CliMode mode : kModeList) {
      if ((flag.modes & mode) != 0) continue;
      std::vector<std::string> args = base_command(mode);
      args.push_back(flag.name);
      if (flag.metavar != nullptr) {
        ASSERT_TRUE(sample_values().count(flag.name)) << flag.name;
        args.push_back(sample_values().at(flag.name));
      }
      const CliRun result = run(args);
      ++pairs;
      EXPECT_EQ(result.code, 2) << flag.name << " in " << cli_mode_name(mode);
      if (is_mode_flag(flag.name)) {
        // A second mode flag changes the command's mode, so the rejection
        // may name another flag of the command instead.
        EXPECT_TRUE(result.err.find("does not apply to") !=
                        std::string::npos ||
                    result.err.find("mutually exclusive") != std::string::npos)
            << result.err;
      } else {
        EXPECT_NE(result.err.find(std::string("rts_bench: ") + flag.name +
                                  " does not apply to " +
                                  cli_mode_name(mode)),
                  std::string::npos)
            << result.err;
      }
    }
  }
  EXPECT_GT(pairs, 100);
  EXPECT_FALSE(std::filesystem::exists(temp_path("hunt")));
}

TEST(CliTable, HandWrittenRulesExit2) {
  const std::string dir = temp_path("rules");
  const std::vector<std::vector<std::string>> commands = {
      {"--preset", "quick", "--record", dir, "--replay", dir},
      {"--preset", "quick", "--checkpoint", dir, "--resume", dir},
      {"--preset", "quick", "--checkpoint", dir, "--record", dir},
      {"--preset", "quick", "--resume", dir, "--replay", dir},
      {"--hunt", dir, "--minimize", dir + "/x.rtst"},
      {"--hunt", dir, "--conform", dir},
      {"--minimize", dir + "/x.rtst", "--conform", dir},
      {"--soak", "0.05", "--rate", "20", "--ks", "2,4"},
      {"--minimize", dir + "/x.rtst", "--pred", "max-steps,total-steps"},
      {},
      {"--quiet"},
      {"--hunt", dir},
      {"--conform", ""},
  };
  for (const auto& command : commands) {
    const CliRun result = run(command);
    EXPECT_EQ(result.code, 2) << testing::PrintToString(command);
    EXPECT_NE(result.err.find("rts_bench: "), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CliTable, UnknownNamesExit2WhileParsing) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--preset", "nope"},      {"--algos", "nope"},
      {"--adversaries", "nope"}, {"--backend", "nope"},
      {"--rmr", "nope"},         {"--format", "nope"},
      {"--pred", "nope"},        {"--soak-preset", "nope"},
  };
  for (const auto& [flag, name] : cases) {
    const CliRun result = run({flag, name});
    EXPECT_EQ(result.code, 2) << flag;
    EXPECT_NE(result.err.find("rts_bench: " + flag + " expects"),
              std::string::npos)
        << result.err;
  }
  const CliRun faults = run({"--faults", "nope:p=1"});
  EXPECT_EQ(faults.code, 2);
  EXPECT_NE(faults.err.find("bad --faults spec"), std::string::npos);
}

TEST(CliTable, IgnoredFlagsAreNowRejected) {
  const std::string dir = temp_path("ignored");
  const std::string ckpt = temp_path("ignored-ckpt");
  const std::string json = temp_path("ignored.jsonl");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--soak", "0.2", "--rate", "50", "--algos", "tournament", "--ks",
            "2", "--backend", "sim"},
           "--backend does not apply to soak"},
          {{"--conform", dir, "--workers", "4", "--seed", "5", "--trials",
            "3", "--format", "csv"},
           "--workers does not apply to conform"},
          {{"--conform", dir, "--trial", "0"},
           "--trial does not apply to conform"},
          {{"--hunt", dir, "--algos", "logstar", "--ks", "2", "--trials", "3",
            "--checkpoint", ckpt, "--json", json},
           "--checkpoint does not apply to hunt"},
          {{"--preset", "quick", "--checkpoint-every", "5"},
           "--checkpoint-every needs --checkpoint or --resume"},
      };
  for (const auto& [command, message] : cases) {
    const CliRun result = run(command);
    EXPECT_EQ(result.code, 2) << message;
    EXPECT_NE(result.err.find(message), std::string::npos) << result.err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_FALSE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(json));
}

TEST(CliTable, TimeValuesPastTheirBoundExit2) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--preset", "quick", "--time-budget", "1e10", "--format",
            "jsonl"},
           "--time-budget"},
          {{"--backend", "hw", "--algos", "tournament", "--ks", "2",
            "--trials", "4", "--retries", "0", "--deadline-us",
            "9300000000000000", "--format", "jsonl"},
           "--deadline-us"},
          // The unknown algorithm ends the command at once should the
          // bound ever stop rejecting the value.
          {{"--soak", "1.5e9", "--rate", "10", "--algos", "none"}, "--soak"},
          {{"--soak", "1", "--rate", "1.5e9", "--algos", "none"}, "--rate"},
          {{"--algos", "tournament", "--deadline-us", "1000000000000001"},
           "--deadline-us"},
      };
  for (const auto& [command, flag] : cases) {
    const CliRun result = run(command);
    EXPECT_EQ(result.code, 2) << flag;
    EXPECT_NE(result.err.find("rts_bench: " + flag + " expects"),
              std::string::npos)
        << result.err;
  }
}

TEST(CliTable, TimeValuesAtTheirBoundRun) {
  // The largest accepted budget must still be a deadline in the future:
  // every trial runs and nothing is marked truncated.
  const CliRun budget =
      run({"--algos", "tournament", "--ks", "2", "--trials", "3",
           "--time-budget", "1e9", "--format", "jsonl", "--quiet"});
  ASSERT_EQ(budget.code, 0) << budget.err;
  EXPECT_NE(budget.out.find("\"truncated\":false"), std::string::npos);
  EXPECT_NE(budget.out.find("\"trials_run\":3"), std::string::npos);

  const CliRun deadline = run(
      {"--backend", "hw", "--algos", "tournament", "--ks", "2", "--trials",
       "4", "--retries", "0", "--deadline-us", "1000000000000000", "--format",
       "jsonl", "--quiet"});
  ASSERT_EQ(deadline.code, 0) << deadline.err;
  EXPECT_NE(deadline.out.find("\"timed_out_runs\":0"), std::string::npos);
  EXPECT_NE(deadline.out.find("\"trials_run\":4"), std::string::npos);
}

TEST(CliTable, AliasesParseLikeTheirFlag) {
  const CliRun backend = run({"--backends", "sim", "--algos", "tournament",
                              "--ks", "2", "--trials", "1", "--format",
                              "jsonl", "--quiet"});
  EXPECT_EQ(backend.code, 0) << backend.err;
  EXPECT_EQ(run({"-h"}).code, 0);
  EXPECT_EQ(run({"--list"}).code, 0);
  EXPECT_EQ(run({"--bogus"}).code, 2);
}

}  // namespace
}  // namespace rts::campaign
