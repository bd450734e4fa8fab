#include "bench_util/runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util/report.h"
#include "common/timer.h"

namespace crackdb::bench {

RunOutcome RunTimed(Engine* engine, const QuerySpec& spec) {
  RunOutcome outcome;
  const CostBreakdown before = engine->cost();
  Timer timer;
  outcome.result = engine->Run(spec);
  // One-off physical-design preparation (presorting) is reported separately
  // from query response time, as throughout the paper's figures.
  const double prepare_delta =
      engine->cost().prepare_micros - before.prepare_micros;
  outcome.timing.total_micros = timer.ElapsedMicros() - prepare_delta;
  outcome.timing.select_micros = engine->cost().select_micros -
                                 before.select_micros - prepare_delta;
  outcome.timing.reconstruct_micros =
      engine->cost().reconstruct_micros - before.reconstruct_micros;
  return outcome;
}

std::vector<std::vector<double>> RunInterleaved(
    size_t arms, size_t warm_rounds, size_t rounds,
    const std::function<double(size_t arm)>& run) {
  for (size_t w = 0; w < warm_rounds; ++w) {
    for (size_t a = 0; a < arms; ++a) (void)run(a);
  }
  std::vector<std::vector<double>> m(rounds, std::vector<double>(arms));
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t slot = 0; slot < arms; ++slot) {
      const size_t a = (r + slot) % arms;
      m[r][a] = run(a);
    }
  }
  return m;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0
         : n % 2 == 1 ? v[n / 2]
                      : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MedianRatio(const std::vector<std::vector<double>>& m, size_t num,
                   size_t den) {
  std::vector<double> ratios;
  ratios.reserve(m.size());
  for (const std::vector<double>& round : m) {
    ratios.push_back(round[num] / round[den]);
  }
  return Median(std::move(ratios));
}

namespace {

/// The standard flags every bench binary accepts; PrintHelp generates the
/// `--help` table from this plus the binary's own BenchFlag span, so the
/// table can never drift from what Parse accepts.
struct StandardFlag {
  const char* name;
  const char* help;
};

constexpr StandardFlag kStandardFlags[] = {
    {"--rows=N", "relation size in tuples (default: per-binary)"},
    {"--queries=N", "query-sequence length (default: per-binary)"},
    {"--seed=N", "workload RNG seed (default: 42)"},
    {"--sf=F", "TPC-H scale factor (TPC-H benches only)"},
    {"--paper-scale", "the paper's full experiment sizes"},
    {"--smoke",
     "CI fast path: tiny sizes for unset flags, same code paths"},
    {"--help", "this generated flags table"},
};

}  // namespace

void BenchArgs::PrintHelp(const char* argv0, std::span<const BenchFlag> extra,
                          std::FILE* out) {
  std::fprintf(out, "usage: %s [flags]\n\nflags:\n", argv0);
  size_t width = 0;
  for (const StandardFlag& flag : kStandardFlags) {
    width = std::max(width, std::strlen(flag.name));
  }
  for (const BenchFlag& flag : extra) {
    width = std::max(width, std::strlen(flag.name));
  }
  for (const StandardFlag& flag : kStandardFlags) {
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), flag.name,
                 flag.help);
  }
  if (!extra.empty()) {
    std::fprintf(out, "\nthis binary only:\n");
    for (const BenchFlag& flag : extra) {
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), flag.name,
                   flag.help);
    }
  }
}

BenchArgs BenchArgs::Parse(int argc, char** argv,
                           std::span<const BenchFlag> extra) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--rows=", 7) == 0) {
      args.rows = static_cast<size_t>(std::atoll(a + 7));
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      args.queries = static_cast<size_t>(std::atoll(a + 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(a + 7));
    } else if (std::strcmp(a, "--paper-scale") == 0) {
      args.paper_scale = true;
    } else if (std::strcmp(a, "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strncmp(a, "--sf=", 5) == 0) {
      args.scale_factor = std::atof(a + 5);
    } else if (std::strcmp(a, "--help") == 0) {
      PrintHelp(argv[0], extra, stdout);
      std::exit(0);
    } else {
      bool consumed = false;
      for (const BenchFlag& flag : extra) {
        if (flag.parse(a)) {
          consumed = true;
          break;
        }
      }
      if (!consumed) {
        std::fprintf(stderr, "unknown flag: %s\n\n", a);
        PrintHelp(argv[0], extra, stderr);
        std::exit(2);
      }
    }
  }
  // Smoke mode rides the existing "explicit flags beat binary defaults"
  // mechanism: it fills in tiny sizes wherever the caller left the default.
  if (args.smoke) {
    if (args.rows == 0) args.rows = kSmokeRows;
    if (args.queries == 0) args.queries = kSmokeQueries;
    if (args.scale_factor <= 0) args.scale_factor = kSmokeScaleFactor;
  }
  // Every bench run ends with a one-line metrics-registry snapshot, so the
  // BENCH_* JSON logs carry the engine-internal counters alongside the
  // figures without per-binary wiring. (--help and bad-flag exits above
  // return before this registration.)
  std::atexit(PrintMetricsSnapshotLine);
  return args;
}

std::vector<size_t> ParseSizeList(const char* flag, const char* s) {
  std::vector<size_t> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || v == 0 || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr,
                   "%s wants a comma list of positive counts, got '%s'\n",
                   flag, s);
      std::exit(2);
    }
    out.push_back(static_cast<size_t>(v));
    if (*end == '\0') break;
    p = end + 1;
  }
  return out;
}

bool SmokeRequested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

}  // namespace crackdb::bench
