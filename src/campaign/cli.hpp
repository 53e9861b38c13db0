// The rts_bench command-line driver: one binary that runs any preset or an
// ad-hoc grid through the parallel executor and any reporter, plus the
// schedule-hunting, trace-minimizing, conformance and soak modes.
//
//   rts_bench --list
//   rts_bench --preset ratrace --workers 8
//   rts_bench --preset logstar,sifting --json results.jsonl
//   rts_bench --algos logstar,cascade --adversaries random,roundrobin
//             --ks 4,16,64 --trials 50 --seed 9 --format csv
//   rts_bench --backend hw --preset hw-smoke
//   rts_bench --backend sim,hw --algos tournament --ks 2,4 --bench out/
//
// Every flag is one row of a table (cli_flags()): parsing, --help and the
// check that a flag applies to the command's mode all read that row.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace rts::campaign {

// Checked numeric flag parsing.  Every rts_bench numeric flag goes through
// these instead of bare atoi/strtoull/atof, which silently turn "banana"
// into 0 and "-5" into garbage: the whole token must parse (no trailing
// junk), the value must fit, and it must lie in the flag's documented
// range.  On failure they return std::nullopt after printing
// "rts_bench: --flag ..." to stderr, and the CLI exits nonzero.
std::optional<long long> parse_integer_flag(const char* flag,
                                            std::string_view text,
                                            long long min_value,
                                            long long max_value);
std::optional<std::uint64_t> parse_u64_flag(
    const char* flag, std::string_view text, std::uint64_t min_value,
    std::uint64_t max_value = UINT64_MAX);
std::optional<double> parse_double_flag(
    const char* flag, std::string_view text, double min_exclusive,
    double max_inclusive = std::numeric_limits<double>::max());

/// rts_bench's modes, as bits of a flag's mode set.  The mode flag given
/// picks the command's mode (--soak or --soak-preset, --conform,
/// --minimize, --hunt; none of them: campaign).
enum CliMode : unsigned {
  kCampaignMode = 1u << 0,
  kHuntMode = 1u << 1,
  kMinimizeMode = 1u << 2,
  kConformMode = 1u << 3,
  kSoakMode = 1u << 4,
};
inline constexpr unsigned kAllModes = kCampaignMode | kHuntMode |
                                      kMinimizeMode | kConformMode | kSoakMode;

/// "campaign", "hunt", "minimize", "conform" or "soak".
const char* cli_mode_name(CliMode mode);

struct CliArgs;  // the parsed command line (cli.cpp)

/// How a flag's value is read.
struct CliValue {
  /// Stores the value into `args` (a switch ignores `text`).  On a bad
  /// value it prints "rts_bench: <flag> ..." and returns false.
  std::function<bool(CliArgs& args, const char* flag, std::string_view text)>
      parse;
  std::string range;  ///< accepted values as --help prints them, or empty
};

/// One row of rts_bench's flag table.
struct CliFlag {
  const char* name;
  const char* alias;    ///< a second spelling, or nullptr
  const char* metavar;  ///< the value's placeholder; nullptr for a switch
  CliValue value;
  unsigned modes;  ///< CliMode bits: the modes that read the flag
  const char* help;
};

/// The flag table, in --help order.  A flag given outside its modes makes
/// rts_bench exit 2 with "rts_bench: --X does not apply to <mode>".
std::span<const CliFlag> cli_flags();

/// Full CLI entry point for the rts_bench binary.
int run_cli(int argc, char** argv);

}  // namespace rts::campaign
