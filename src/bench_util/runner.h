#ifndef CRACKDB_BENCH_UTIL_RUNNER_H_
#define CRACKDB_BENCH_UTIL_RUNNER_H_

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace crackdb::bench {

/// Wall-clock and cost-breakdown timing of one query on one engine.
struct QueryTiming {
  double total_micros = 0;
  double select_micros = 0;
  double reconstruct_micros = 0;
};

/// Runs `spec` on `engine`, returning timing plus the result (for
/// cross-engine verification).
struct RunOutcome {
  QueryTiming timing;
  QueryResult result;
};
RunOutcome RunTimed(Engine* engine, const QuerySpec& spec);

/// Interleaved measurement of competing arms. After `warm_rounds` untimed
/// rounds, each of `rounds` rounds calls `run(arm)` once per arm and keeps
/// what it returns. The arm order rotates by one per round, so no arm
/// always runs first or after the same neighbour, and a slow host phase
/// lands on every arm alike. Returns m[round][arm].
std::vector<std::vector<double>> RunInterleaved(
    size_t arms, size_t warm_rounds, size_t rounds,
    const std::function<double(size_t arm)>& run);

/// Median of `v`; 0 when empty.
double Median(std::vector<double> v);

/// Median over rounds of the paired ratio m[round][num] / m[round][den].
double MedianRatio(const std::vector<std::vector<double>>& m, size_t num,
                   size_t den);

/// One row of the generated `--help` flags table. Binaries with flags
/// beyond the standard set pass a BenchFlag span to Parse: `name` is the
/// grammar shown in the table ("--threads=LIST"), `help` the one-line
/// description, and `parse` returns true iff it consumed the argv entry.
struct BenchFlag {
  const char* name;
  const char* help;
  std::function<bool(const char* arg)> parse;
};

/// Command-line parsing for the bench binaries: --rows=N --queries=N
/// --paper-scale --smoke --seed=N etc. `--help` prints a generated table
/// of every flag (standard plus per-bench `extra`) and exits 0; unknown
/// flags print the same table to stderr and exit 2.
struct BenchArgs {
  size_t rows = 0;        // 0 = binary default
  size_t queries = 0;     // 0 = binary default
  uint64_t seed = 42;
  bool paper_scale = false;
  bool smoke = false;       // CI fast path: tiny sizes, same code paths
  double scale_factor = 0;  // TPC-H benches

  static BenchArgs Parse(int argc, char** argv,
                         std::span<const BenchFlag> extra = {});

  /// The generated flags table behind `--help`.
  static void PrintHelp(const char* argv0, std::span<const BenchFlag> extra,
                        std::FILE* out);
};

/// Sizes `--smoke` substitutes for unset --rows/--queries/--sf: large enough
/// to exercise cracking, reconstruction, and eviction paths, small enough
/// that every bench binary doubles as a sub-second CTest smoke test.
inline constexpr size_t kSmokeRows = 5'000;
inline constexpr size_t kSmokeQueries = 5;
inline constexpr double kSmokeScaleFactor = 0.01;

/// Whether `--smoke` appears on the command line. For binaries (the
/// examples) that take no other flags and so skip BenchArgs::Parse.
bool SmokeRequested(int argc, char** argv);

/// Parses a comma list of positive counts ("1,2,8") for sweep flags like
/// --threads / --batch. `flag` names the flag in the error message; exits
/// 2 on malformed input.
std::vector<size_t> ParseSizeList(const char* flag, const char* s);

}  // namespace crackdb::bench

#endif  // CRACKDB_BENCH_UTIL_RUNNER_H_
