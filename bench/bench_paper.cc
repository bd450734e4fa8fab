// The paper's figures in one driver: the Section 3.6 experiments (Figures
// 4-7 and the reordering inset), the Section 4.2 storage figures (9-13),
// the TPC-H figures of Section 5 (14, 15) and the design ablations. Each
// figure function prints the figure's `# figure` / `# series` blocks,
// checks every engine's answers against the plain column-store, and
// reports the figure's qualitative orderings as ratios in one
// `BENCH_paper_<fig> {...}` line.
//
//   ./bench_paper                  # every figure, default scale
//   ./bench_paper fig9 ablation    # a subset, by figure name
//   ./bench_paper --smoke exp1     # tiny sizes: answers and invariants only
//
// An ordering's ratio is the cost of the arm the paper says loses over the
// cost of the arm it says wins, so it holds when the ratio exceeds 1. Arms
// run interleaved (RunInterleaved): a query sequence runs in lockstep, one
// round per query, and a micro measurement takes one untimed warm round
// before its timed ones. The exit status is non-zero when an answer
// differs from plain, when a deterministic invariant fails, or, at default
// scale, when an asserted ordering does not hold.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/timer.h"
#include "cracking/crack.h"
#include "engine/cracker_join.h"
#include "engine/operators.h"
#include "engine/partial_engine.h"
#include "engine/reorder.h"
#include "engine/sideways_engine.h"
#include "kernels/cpu_dispatch.h"
#include "storage/catalog.h"
#include "tpch/queries.h"

namespace crackdb::bench {
namespace {

constexpr Value kDomain = 10'000'000;

/// One figure's verdict: its orderings plus answer and invariant checks.
struct Report {
  struct Ordering {
    std::string name;
    double ratio;
    bool asserted;
  };
  std::vector<Ordering> orderings;
  size_t failures = 0;
  std::string arm;  // the kernel arm, where an ordering depends on it

  /// `asserted` marks an ordering that held in 10 of 10 default-scale runs
  /// with a ratio of at least 1.2 (docs/BENCHMARKS.md lists them all).
  void Order(const std::string& name, double ratio, bool asserted = false) {
    orderings.push_back({name, ratio, asserted});
  }
  /// An answer comparison or a deterministic invariant: always asserted.
  void Check(bool ok, const std::string& what) {
    if (!ok && failures++ < 5) {
      std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
  }
};

/// A size flag if set, else the paper's size or the figure's default.
size_t Size(size_t flag, const BenchArgs& args, size_t paper, size_t def) {
  return flag != 0 ? flag : args.paper_scale ? paper : def;
}

uint64_t Mix(uint64_t h, Value v) {
  return (h ^ static_cast<uint64_t>(v)) * 0x100000001B3ull;
}

/// Order-insensitive digest of `rows` rows of `cols` cells `cell(row, col)`:
/// a sum of row hashes, so engines that return rows in different physical
/// orders agree, while a misaligned tuple reconstruction does not.
template <typename Cell>
uint64_t Digest(size_t rows, size_t cols, Cell cell) {
  uint64_t sum = rows;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t h = 0xCBF29CE484222325ull;
    for (size_t c = 0; c < cols; ++c) h = Mix(h, cell(i, c));
    sum += h;
  }
  return sum;
}

uint64_t Digest(const QueryResult& r) {
  return Digest(r.num_rows, r.columns.size(),
                [&](size_t i, size_t c) { return r.columns[c][i]; });
}

/// What one arm's query returned: its response time and answer digest.
struct Answer {
  double micros;
  uint64_t digest;
};

Answer Query(Engine* engine, const QuerySpec& spec) {
  RunOutcome out = RunTimed(engine, spec);
  return {out.timing.total_micros, Digest(out.result)};
}

/// Runs query q on every arm in round q of RunInterleaved, with no warm
/// round: a figure's early queries are the warm-up it plots. The last arm
/// is the plain reference; every other arm must match its answers.
/// Returns micros[q][arm].
std::vector<std::vector<double>> Lockstep(
    size_t arms, size_t queries,
    const std::function<Answer(size_t arm, size_t q)>& run, Report* report) {
  std::vector<size_t> next(arms, 0);
  std::vector<std::vector<uint64_t>> digests(arms,
                                             std::vector<uint64_t>(queries));
  auto m = RunInterleaved(arms, 0, queries, [&](size_t a) {
    const size_t q = next[a]++;
    const Answer answer = run(a, q);
    digests[a][q] = answer.digest;
    return answer.micros;
  });
  for (size_t a = 0; a + 1 < arms; ++a) {
    for (size_t q = 0; q < queries; ++q) {
      report->Check(digests[a][q] == digests.back()[q],
                    "arm " + std::to_string(a) + " query " +
                        std::to_string(q + 1) + " differs from plain");
    }
  }
  return m;
}

/// Lockstep over engines answering the same specs; the last is plain.
std::vector<std::vector<double>> RunSpecs(
    const std::vector<std::unique_ptr<Engine>>& engines,
    const std::vector<QuerySpec>& specs, Report* report) {
  return Lockstep(engines.size(), specs.size(),
                  [&](size_t a, size_t q) {
                    return Query(engines[a].get(), specs[q]);
                  },
                  report);
}

std::vector<std::unique_ptr<Engine>> MakeEngines(
    const std::vector<std::string>& kinds, const Relation& rel) {
  std::vector<std::unique_ptr<Engine>> engines;
  for (const std::string& kind : kinds) {
    engines.push_back(MakeEngine(kind, rel));
  }
  return engines;
}

/// The rounds from `from` on: a sequence's tail, once structures settled.
std::vector<std::vector<double>> Tail(const std::vector<std::vector<double>>& m,
                                      size_t from) {
  return {m.begin() + static_cast<ptrdiff_t>(std::min(from, m.size())),
          m.end()};
}

double Total(const std::vector<std::vector<double>>& m, size_t arm) {
  double sum = 0;
  for (const std::vector<double>& round : m) sum += round[arm];
  return sum;
}

/// Per-arm medians over the rounds of RunInterleaved.
std::vector<double> ArmMedians(const std::vector<std::vector<double>>& m) {
  std::vector<double> medians;
  for (size_t a = 0; !m.empty() && a < m[0].size(); ++a) {
    std::vector<double> v;
    for (const std::vector<double>& round : m) v.push_back(round[a]);
    medians.push_back(Median(std::move(v)));
  }
  return medians;
}

/// Relation "R" with attributes A1..A`attrs` of `rows` uniform values.
Relation& UniformRelation(Catalog* catalog, size_t attrs, size_t rows,
                          uint64_t seed) {
  Rng rng(seed);
  return CreateUniformRelation(catalog, "R", attrs, rows, kDomain, &rng);
}

// ---------------------------------------------------------------------------
// Section 3.6 experiments.

/// Exp1 (Figure 4(a) and the Tot/TR/Sel table): one selection and 2/4/8
/// tuple reconstructions over a sequence of random 20% ranges; the figure
/// reports the last queries of the sequence, once the cracking structures
/// have been reorganized by the preceding ones.
void Exp1(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 200'000);
  const size_t queries = Size(args.queries, args, 100, 30);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 9, rows, args.seed);
  std::printf("# exp1: rows=%zu queries=%zu domain=%lld\n", rows, queries,
              static_cast<long long>(kDomain));
  const std::vector<std::string> systems = {"presorted", "sideways",
                                            "selection-cracking", "plain"};
  // The median of the last five queries: one query alone is noisy.
  const size_t tail = queries - std::min<size_t>(queries, 5);
  std::vector<std::vector<QueryTiming>> last(systems.size());
  for (const size_t num_tr : {2u, 4u, 8u}) {
    std::vector<std::string> projections;
    for (size_t a = 2; a <= 1 + num_tr; ++a) projections.push_back(AttrName(a));
    Rng rng(args.seed + num_tr);
    std::vector<QuerySpec> specs;
    for (size_t q = 0; q < queries; ++q) {
      specs.push_back(SelectProject(
          {{AttrName(1), RandomRange(&rng, 1, kDomain, 0.2)}}, projections));
    }
    const auto engines = MakeEngines(systems, rel);
    std::vector<std::vector<QueryTiming>> timing(
        systems.size(), std::vector<QueryTiming>(queries));
    const auto m = Lockstep(
        systems.size(), queries,
        [&](size_t a, size_t q) {
          RunOutcome out = RunTimed(engines[a].get(), specs[q]);
          timing[a][q] = out.timing;
          return Answer{out.timing.total_micros, Digest(out.result)};
        },
        report);
    for (size_t a = 0; a < systems.size(); ++a) {
      std::vector<QueryTiming> t(timing[a].begin() + tail, timing[a].end());
      std::sort(t.begin(), t.end(), [](const auto& x, const auto& y) {
        return x.total_micros < y.total_micros;
      });
      last[a].push_back(t.empty() ? QueryTiming{} : t[t.size() / 2]);
    }
    report->Order("sideways_beats_selection_tr" + std::to_string(num_tr),
                  MedianRatio(Tail(m, tail), 2, 1), true);
  }
  FigureHeader("4a", "response time of last query vs #tuple reconstructions",
               "tuple_reconstructions", "millis");
  TablePrinter breakdown({"system", "Tot(ms)", "TR(ms)", "Sel(ms)"});
  for (size_t a = 0; a < systems.size(); ++a) {
    SeriesHeader(systems[a]);
    for (size_t i = 0; i < 3; ++i) {
      Point(static_cast<double>(2u << i), last[a][i].total_micros / 1000.0);
    }
    breakdown.AddRow({systems[a], Fmt(last[a][2].total_micros / 1000.0),
                      Fmt(last[a][2].reconstruct_micros / 1000.0),
                      Fmt(last[a][2].select_micros / 1000.0)});
  }
  std::printf("\n# table: cost breakdown at 8 tuple reconstructions "
              "(last query of the sequence)\n");
  breakdown.Print();
}

/// Exp2 (Figure 4(b)): two reconstructions from point queries to 90%
/// selectivity; sideways cracking's per-query time relative to plain.
void Exp2(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 200'000);
  const size_t queries = Size(args.queries, args, 1000, 60);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 3, rows, args.seed);
  std::printf("# exp2: rows=%zu queries=%zu\n", rows, queries);
  FigureHeader("4b", "sideways cracking response time relative to plain",
               "query_sequence", "relative_time");
  for (const double sel : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
    const std::string series = sel == 0.0 ? "point" : "sel" + Fmt(sel * 100, 0);
    SeriesHeader(series);
    Rng rng(args.seed + static_cast<uint64_t>(sel * 100));
    std::vector<QuerySpec> specs;
    for (size_t q = 0; q < queries; ++q) {
      specs.push_back(
          SelectProject({{AttrName(1), RandomRange(&rng, 1, kDomain, sel)}},
                        {AttrName(2), AttrName(3)}));
    }
    const auto m = RunSpecs(MakeEngines({"sideways", "plain"}, rel), specs,
                            report);
    for (size_t q = 0; q < queries; ++q) {
      // Log-friendly x: every query early on, then every 10th.
      if (q < 20 || q % 10 == 0 || q + 1 == queries) {
        Point(static_cast<double>(q + 1), m[q][0] / m[q][1]);
      }
    }
    report->Order("sideways_beats_plain_" + series,
                  MedianRatio(Tail(m, queries / 2), 1, 0), true);
  }
}

/// Exp3 (the Section 3.6 inset): can reordering selection cracking's
/// unordered intermediate salvage its reconstruction cost? Sorting or
/// radix-clustering the keys pays only when several reconstructions share
/// one intermediate, and never beats keys that are already in order.
void Exp3(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 2'000'000);
  const double selectivity = 0.2;
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 9, rows, args.seed);
  std::printf("# exp3: rows=%zu selectivity=%.2f\n", rows, selectivity);
  // The intermediate: an ordered key list (plain) and a cracked-order
  // shuffle of it (selection cracking's output shape).
  const size_t k = static_cast<size_t>(static_cast<double>(rows) * selectivity);
  std::vector<Key> ordered(k);
  for (size_t i = 0; i < k; ++i) ordered[i] = static_cast<Key>(i * (rows / k));
  std::vector<Key> cracked = ordered;
  Rng rng(args.seed + 1);
  for (size_t i = k; i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.Uniform(0, static_cast<Value>(i) - 1));
    std::swap(cracked[i - 1], cracked[j]);
  }
  const unsigned region_bits = 14;  // ~16K-entry regions: cache resident
  const std::vector<std::string> variants = {
      "plain-ordered-TR", "selection-cracking-unordered-TR", "sort+ordered-TR",
      "radix-cluster+clustered-TR"};
  // Variant v reconstructs `num_tr` attributes; the first result is kept
  // for the answer check.
  auto reconstruct = [&](size_t v, size_t num_tr, std::vector<Value>* first) {
    std::vector<Key> keys = v == 0 ? ordered : cracked;
    Timer timer;
    for (size_t r = 0; r < num_tr; ++r) {
      const Column& col = rel.column(AttrName(2 + r));
      std::vector<Value> out =
          r > 0 || v < 2 ? ReconstructUnordered(col, keys)
          : v == 2       ? ReconstructViaSort(col, &keys)
                         : ReconstructViaRadixCluster(col, &keys, region_bits);
      if (r == 0 && first != nullptr) *first = std::move(out);
    }
    return timer.ElapsedSeconds();
  };
  std::vector<std::vector<Value>> got(variants.size());
  for (size_t v = 0; v < variants.size(); ++v) {
    reconstruct(v, 1, &got[v]);
    std::sort(got[v].begin(), got[v].end());
    report->Check(got[v] == got[0], variants[v] + " reconstructs other values");
  }
  std::vector<std::vector<double>> seconds(variants.size());
  std::vector<std::vector<double>> m;
  for (const size_t num_tr : {1u, 2u, 4u, 8u}) {
    m = RunInterleaved(variants.size(), 1, 5, [&](size_t v) {
      return reconstruct(v, num_tr, nullptr);
    });
    const std::vector<double> medians = ArmMedians(m);
    for (size_t v = 0; v < variants.size(); ++v) {
      seconds[v].push_back(medians[v]);
    }
  }
  FigureHeader("exp3", "reconstruction cost vs #reconstructions",
               "tuple_reconstructions", "seconds");
  for (size_t v = 0; v < variants.size(); ++v) {
    SeriesHeader(variants[v]);
    for (size_t i = 0; i < 4; ++i) {
      Point(static_cast<double>(1u << i), seconds[v][i]);
    }
  }
  // `m` holds the 8-reconstruction rounds.
  report->Order("sort_beats_unordered_tr8", MedianRatio(m, 1, 2));
  report->Order("radix_beats_unordered_tr8", MedianRatio(m, 1, 3), true);
  report->Order("ordered_beats_sort_tr8", MedianRatio(m, 2, 0), true);
}

/// Exp4 (Figure 5): a join with three selections per table,
///   select max(R1),max(R2),max(S1),max(S2) from R,S where ... and R7 = S7,
/// split into selection plus pre-join reconstruction, and the post-join
/// reconstruction where tuple order is lost and clustered access wins.
void Exp4(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 150'000);
  const size_t queries = Size(args.queries, args, 100, 25);
  Catalog catalog;
  Rng data_rng(args.seed);
  // The join attribute A7 is foreign-key dense (domain ~ rows/20) so that
  // joins produce substantial match sets and the post-join reconstruction
  // phase carries real weight, as at the paper's scale.
  const Value join_domain = std::max<Value>(1, static_cast<Value>(rows / 20));
  auto build = [&](const std::string& name) -> Relation& {
    Relation& rel = catalog.CreateRelation(name);
    for (size_t a = 1; a <= 7; ++a) rel.AddColumn(AttrName(a));
    std::vector<Value> row(7);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t a = 0; a < 6; ++a) row[a] = data_rng.Uniform(1, kDomain);
      row[6] = data_rng.Uniform(1, join_domain);
      rel.BulkLoadRow(row);
    }
    return rel;
  };
  Relation& r = build("R");
  Relation& s = build("S");
  std::printf("# exp4: rows=%zu queries=%zu join_domain=%lld\n", rows,
              queries, static_cast<long long>(join_domain));
  const std::vector<std::string> systems = {"presorted", "sideways",
                                            "selection-cracking", "plain"};
  const auto re = MakeEngines(systems, r);
  const auto se = MakeEngines(systems, s);
  // Independent conjunctions per table at 50/30/20% selectivity, most
  // selective first, as the paper runs every system.
  Rng rng(args.seed + 1);
  auto make_spec = [&rng] {
    return SelectProject({{AttrName(5), RandomRange(&rng, 1, kDomain, 0.2)},
                          {AttrName(4), RandomRange(&rng, 1, kDomain, 0.3)},
                          {AttrName(3), RandomRange(&rng, 1, kDomain, 0.5)}},
                         {AttrName(7), AttrName(1), AttrName(2)});
  };
  std::vector<std::pair<QuerySpec, QuerySpec>> specs;
  for (size_t q = 0; q < queries; ++q) {
    QuerySpec r_spec = make_spec();
    specs.emplace_back(std::move(r_spec), make_spec());
  }
  std::vector<std::vector<double>> before(queries,
                                          std::vector<double>(systems.size()));
  std::vector<std::vector<double>> after = before;
  const auto total = Lockstep(
      systems.size(), queries,
      [&](size_t a, size_t q) {
        Engine* e_r = re[a].get();
        Engine* e_s = se[a].get();
        const double prepare_before =
            e_r->cost().prepare_micros + e_s->cost().prepare_micros;
        Timer t_total;
        auto hr = e_r->Select(specs[q].first);
        auto hs = e_s->Select(specs[q].second);
        const std::vector<Value> r_keys = hr->Fetch(AttrName(7));
        const std::vector<Value> s_keys = hs->Fetch(AttrName(7));
        before[q][a] = t_total.ElapsedMicros();
        const JoinPairs jp = HashJoin(r_keys, s_keys);
        Timer t_after;
        // max() aggregates close the plan.
        const Value maxes[] = {MaxOf(hr->FetchAt(AttrName(1), jp.left)),
                               MaxOf(hr->FetchAt(AttrName(2), jp.left)),
                               MaxOf(hs->FetchAt(AttrName(1), jp.right)),
                               MaxOf(hs->FetchAt(AttrName(2), jp.right))};
        after[q][a] = t_after.ElapsedMicros();
        // Presorting is physical-design preparation, reported separately.
        const double prepare = e_r->cost().prepare_micros +
                               e_s->cost().prepare_micros - prepare_before;
        before[q][a] -= prepare;
        const double micros = t_total.ElapsedMicros() - prepare;
        uint64_t digest = jp.size();
        for (const Value v : maxes) digest = Mix(digest, v);
        return Answer{micros, digest};
      },
      report);
  FigureHeader("5", "join query costs per query in sequence",
               "query_sequence", "total_ms before_join_ms after_join_ms");
  for (size_t a = 0; a < systems.size(); ++a) {
    SeriesHeader(systems[a]);
    for (size_t q = 0; q < queries; ++q) {
      std::printf("%zu %.3f %.3f %.3f\n", q + 1, total[q][a] / 1000.0,
                  before[q][a] / 1000.0, after[q][a] / 1000.0);
    }
    if (systems[a] == "presorted") {
      std::printf("# presorting cost: %.1f ms (excluded from query times "
                  "above, as in the paper)\n",
                  (re[a]->cost().prepare_micros +
                   se[a]->cost().prepare_micros) / 1000.0);
    }
  }
  report->Order("sideways_beats_selection_after_join",
                MedianRatio(Tail(after, queries / 2), 2, 1));
  report->Order("sideways_beats_plain_total",
                MedianRatio(Tail(total, queries / 2), 3, 1));
}

/// Exp5 (Figure 6): 9/10 queries hit the first half of the domain.
/// Sideways cracking learns the hot set; plain stays flat; presorted is
/// fast after its expensive preparation.
void Exp5(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 300'000);
  const size_t queries = Size(args.queries, args, 1000, 120);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 3, rows, args.seed);
  std::printf("# exp5: rows=%zu queries=%zu hot=first half (p=0.9)\n", rows,
              queries);
  const SkewedRangeGen gen;  // 9/10 queries in the first half, 20% each
  Rng rng(args.seed + 7);
  std::vector<QuerySpec> specs;
  for (size_t q = 0; q < queries; ++q) {
    specs.push_back(SelectProject({{AttrName(1), gen.Next(&rng)}},
                                  {AttrName(2), AttrName(3)}));
  }
  const std::vector<std::string> systems = {"presorted", "sideways",
                                            "selection-cracking", "plain"};
  const auto engines = MakeEngines(systems, rel);
  const auto m = RunSpecs(engines, specs, report);
  FigureHeader("6", "skewed workload response time", "query_sequence",
               "micros");
  for (size_t a = 0; a < systems.size(); ++a) {
    SeriesHeader(systems[a]);
    for (size_t q = 0; q < queries; ++q) {
      Point(static_cast<double>(q + 1), m[q][a]);
    }
    if (systems[a] == "presorted") {
      std::printf("# presorting cost: %.1f ms (excluded)\n",
                  engines[a]->cost().prepare_micros / 1000.0);
    }
  }
  report->Order("sideways_beats_plain",
                MedianRatio(Tail(m, queries / 2), 3, 1), true);
  report->Order("sideways_beats_selection",
                MedianRatio(Tail(m, queries / 2), 2, 1), true);
}

/// Exp6 (Figure 7): q3 queries with interleaved random updates, as low
/// frequency/high volume (LFHV) and high frequency/low volume (HFLV).
/// Cracking merges pending updates on demand via Ripple; presorted is
/// omitted, as in the paper.
void Exp6(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 200'000);
  const size_t queries = Size(args.queries, args, 10'000, 300);
  std::printf("# exp6: rows=%zu queries=%zu\n", rows, queries);
  const size_t lfhv = args.paper_scale ? 1000 : 100;
  const std::vector<std::string> systems = {"sideways", "selection-cracking",
                                            "plain"};
  for (const auto& [name, period] :
       {std::pair<std::string, size_t>{"LFHV", lfhv}, {"HFLV", 10}}) {
    std::printf("\n# scenario %s: %zu updates every %zu queries\n",
                name.c_str(), period, period);
    // A relation per system, so each sees the same update stream.
    struct Arm {
      Catalog catalog;
      Relation* rel = nullptr;
      std::unique_ptr<Engine> engine;
      Rng rng;
    };
    std::vector<std::unique_ptr<Arm>> arms;
    for (const std::string& kind : systems) {
      Arm& arm = *arms.emplace_back(std::make_unique<Arm>());
      arm.rel = &UniformRelation(&arm.catalog, 3, rows, args.seed);
      arm.engine = MakeEngine(kind, *arm.rel);
      arm.rng = Rng(args.seed + 13);
    }
    const auto m = Lockstep(
        arms.size(), queries,
        [&](size_t a, size_t q) {
          Arm& arm = *arms[a];
          if (q != 0 && q % period == 0) {
            ApplyRandomUpdates(arm.rel, kDomain, period, &arm.rng);
          }
          return Query(arm.engine.get(),
                       SelectProject({{AttrName(1),
                                       RandomRange(&arm.rng, 1, kDomain, 0.2)}},
                                     {AttrName(2), AttrName(3)}));
        },
        report);
    FigureHeader(name == "LFHV" ? "7a" : "7b",
                 "response time under updates (" + name + ")",
                 "query_sequence", "micros");
    for (size_t a = 0; a < systems.size(); ++a) {
      SeriesHeader(systems[a]);
      for (size_t q = 0; q < queries; ++q) {
        if (q < 30 || q % 5 == 0 || (q % period) < 2) {
          Point(static_cast<double>(q + 1), m[q][a]);
        }
      }
    }
    report->Order("sideways_beats_plain_" + name,
                  MedianRatio(Tail(m, queries / 2), 2, 0), true);
  }
}

// ---------------------------------------------------------------------------
// Section 4.2: partial sideways cracking under storage restrictions.

/// The Section 4.2 workload: an 11-attribute relation and five query types
///   (Qi) select Ci from R where v1 < A < v2 and v3 < Bi < v4
/// sharing the head attribute A=A1 but touching different Bi (A2..A6) and
/// Ci (A7..A11). Each query selects a random range of `result_rows`
/// tuples on A; `type(q)` picks query q's type.
struct QiWorkload {
  size_t rows = 0;
  size_t result_rows = 0;
  bool skewed = false;  // Figure 10(b): 9/10 queries in 20% of the domain

  std::vector<QuerySpec> Specs(
      size_t queries, uint64_t seed,
      const std::function<size_t(size_t)>& type) const {
    const double fraction =
        static_cast<double>(std::max<size_t>(result_rows, 1)) /
        static_cast<double>(rows);
    SkewedRangeGen gen;
    gen.domain_hi = kDomain;
    gen.hot_fraction = 0.2;
    gen.selectivity = fraction;
    Rng rng(seed);
    std::vector<QuerySpec> specs;
    for (size_t q = 0; q < queries; ++q) {
      const size_t t = type(q);
      const RangePredicate head =
          skewed ? gen.Next(&rng) : RandomRange(&rng, 1, kDomain, fraction);
      specs.push_back(SelectProject(
          {{AttrName(1), head},
           {AttrName(2 + t), RandomRange(&rng, 1, kDomain, 0.5)}},
          {AttrName(7 + t)}));
    }
    return specs;
  }
};

/// Full maps, partial maps and the plain reference under storage
/// threshold `budget` in tuples (0 = unlimited).
std::vector<std::unique_ptr<Engine>> MapEngines(const Relation& rel,
                                                size_t budget) {
  PartialConfig config;
  config.storage_budget_tuples = budget;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<SidewaysEngine>(rel, budget));
  engines.push_back(std::make_unique<PartialSidewaysEngine>(rel, config));
  engines.push_back(MakeEngine("plain", rel));
  return engines;
}

/// One panel of Figures 9 and 10: per-query cost and auxiliary storage of
/// full and partial maps under `budget`. Partial maps must stay within a
/// set budget after every query (deterministic, so always asserted).
void StoragePanel(const Relation& rel, const std::vector<QuerySpec>& specs,
                  size_t budget, size_t batch, const std::string& id,
                  const std::string& title, const std::string& label,
                  Report* report) {
  const auto engines = MapEngines(rel, budget);
  const auto& full = static_cast<const SidewaysEngine&>(*engines[0]);
  const auto& partial = static_cast<const PartialSidewaysEngine&>(*engines[1]);
  // Auxiliary storage in tuples, as of the end of each round.
  std::vector<std::vector<size_t>> storage(2,
                                           std::vector<size_t>(specs.size()));
  size_t peak = 0;
  const auto m = Lockstep(
      engines.size(), specs.size(),
      [&](size_t a, size_t q) {
        const Answer answer = Query(engines[a].get(), specs[q]);
        storage[0][q] = full.MapStorageTuples();
        storage[1][q] = partial.ChunkStorageTuples();
        peak = std::max(peak, storage[1][q]);
        return answer;
      },
      report);
  if (budget != 0) {
    report->Check(peak <= budget, "partial maps hold " + std::to_string(peak) +
                                      " tuples over T=" + label + " (" +
                                      std::to_string(budget) + ")");
  }
  FigureHeader(id, title, "query_sequence", "micros storage_tuples");
  for (size_t a = 0; a < 2; ++a) {
    SeriesHeader(a == 0 ? "full-maps" : "partial-maps");
    for (size_t q = 0; q < specs.size(); ++q) {
      if (q < 5 || q % 10 == 0 || (q % batch) < 3) {
        std::printf("%zu %.1f %zu\n", q + 1, m[q][a], storage[a][q]);
      }
    }
  }
  std::printf("# peak partial-map storage: %zu tuples\n", peak);
  report->Order("partial_beats_full_total_" + label,
                Total(m, 0) / Total(m, 1), true);
}

/// Figure 9: the Qi batch workload under thresholds unlimited, T ~ 6.5
/// and T ~ 2 full maps; full maps pay per-batch creation, alignment and
/// recreation peaks, partial maps stay smooth and within T.
void Fig9(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 1'000'000, 100'000);
  const size_t queries = Size(args.queries, args, 1000, 300);
  const size_t batch = std::max<size_t>(1, queries / 10);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 11, rows, args.seed);
  const QiWorkload workload{rows, rows / 100};  // paper: S=10K of 1M
  std::printf("# fig9: rows=%zu queries=%zu batch=%zu S=%zu\n", rows, queries,
              batch, workload.result_rows);
  const auto specs = workload.Specs(queries, args.seed + 1,
                                    [&](size_t q) { return (q / batch) % 5; });
  for (const auto& [label, budget] :
       {std::pair<std::string, size_t>{"unlimited", 0},
        {"6.5maps", static_cast<size_t>(6.5 * static_cast<double>(rows))},
        {"2maps", 2 * rows}}) {
    std::printf("\n# threshold %s\n", label.c_str());
    StoragePanel(rel, specs, budget, batch, "9-" + label,
                 "per-query cost, T=" + label, label, report);
  }
}

/// Figure 10: the Qi workload focused on small data parts, by selectivity
/// (S=0.1%) or by skew, under T ~ 6.5 full maps.
void Fig10(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 1'000'000, 100'000);
  const size_t queries = Size(args.queries, args, 1000, 300);
  const size_t batch = std::max<size_t>(1, queries / 10);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 11, rows, args.seed);
  const size_t budget = static_cast<size_t>(6.5 * static_cast<double>(rows));
  std::printf("# fig10: rows=%zu queries=%zu T=%zu\n", rows, queries, budget);
  for (const auto& [label, workload] :
       {std::pair<std::string, QiWorkload>{"random-S0.1pct",
                                           {rows, rows / 1000}},
        {"skewed-S1pct", {rows, rows / 100, true}}}) {
    std::printf("\n# case %s\n", label.c_str());
    StoragePanel(rel,
                 workload.Specs(queries, args.seed + 1,
                                [&](size_t q) { return (q / batch) % 5; }),
                 budget, batch, "10-" + label, "per-query cost (" + label + ")",
                 label, report);
  }
}

/// Figure 11: total cost of the Qi sequence by result size S and
/// threshold T. Partial maps beat full maps for selective workloads.
void Fig11(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 1'000'000, 60'000);
  const size_t queries = Size(args.queries, args, 1000, 200);
  const size_t batch = std::max<size_t>(1, queries / 10);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 11, rows, args.seed);
  std::printf("# fig11: rows=%zu queries=%zu\n", rows, queries);
  FigureHeader("11", "total cost of the query sequence", "result_fraction",
               "seconds");
  // Paper S values 1K/10K/100K/300K of 1M rows.
  const double fractions[] = {0.001, 0.01, 0.1, 0.3};
  for (const auto& [label, budget] :
       {std::pair<std::string, size_t>{"noT", 0},
        {"6.5maps", static_cast<size_t>(6.5 * static_cast<double>(rows))},
        {"2maps", 2 * rows}}) {
    std::vector<std::vector<double>> seconds(2);
    for (const double f : fractions) {
      const QiWorkload workload{
          rows, static_cast<size_t>(f * static_cast<double>(rows))};
      const auto m = RunSpecs(
          MapEngines(rel, budget),
          workload.Specs(queries, args.seed + 1,
                         [&](size_t q) { return (q / batch) % 5; }),
          report);
      for (size_t a = 0; a < 2; ++a) seconds[a].push_back(Total(m, a) / 1e6);
    }
    for (size_t a = 0; a < 2; ++a) {
      SeriesHeader(std::string(a == 0 ? "full" : "partial") + "-T=" + label);
      for (size_t i = 0; i < 4; ++i) Point(fractions[i], seconds[a][i]);
    }
    report->Order("partial_beats_full_S0.1pct_T=" + label,
                  seconds[0][0] / seconds[1][0], true);
  }
}

/// Figure 12: total sequence cost as the workload switches between the
/// five Qi types more often, under T ~ 6 full maps. Full maps recreate
/// whole maps at every switch; partial maps stay nearly flat.
void Fig12(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 1'000'000, 60'000);
  const size_t queries = Size(args.queries, args, 1000, 200);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 11, rows, args.seed);
  const size_t budget = 6 * rows;
  const QiWorkload workload{rows, rows / 100};  // S=10K of 1M
  std::printf("# fig12: rows=%zu queries=%zu T=%zu\n", rows, queries, budget);
  const double change_fractions[] = {0.005, 0.01, 0.05, 0.1, 0.5, 1.0};
  std::vector<std::vector<double>> seconds(2);
  for (const double cf : change_fractions) {
    const size_t period = std::max<size_t>(1, static_cast<size_t>(1.0 / cf));
    const auto m = RunSpecs(
        MapEngines(rel, budget),
        workload.Specs(queries, args.seed + 3,
                       [&](size_t q) { return (q / period) % 5; }),
        report);
    for (size_t a = 0; a < 2; ++a) seconds[a].push_back(Total(m, a) / 1e6);
  }
  FigureHeader("12", "total sequence cost vs workload change rate",
               "changes_per_sequence", "seconds");
  for (size_t a = 0; a < 2; ++a) {
    SeriesHeader(a == 0 ? "full" : "partial");
    for (size_t i = 0; i < 6; ++i) {
      Point(change_fractions[i] * static_cast<double>(queries), seconds[a][i]);
    }
  }
  report->Order("partial_beats_full_at_max_change_rate",
                seconds[0].back() / seconds[1].back(), true);
}

/// Figure 13: two query types alternate with no storage limit, switching
/// every 10/100/200 queries. Full maps pay alignment peaks at every
/// switch; partial maps align only the chunks a query touches.
void Fig13(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 1'000'000, 100'000);
  const size_t queries = Size(args.queries, args, 1000, 400);
  Catalog catalog;
  const Relation& rel = UniformRelation(&catalog, 11, rows, args.seed);
  const QiWorkload workload{rows, rows / 100};
  std::printf("# fig13: rows=%zu queries=%zu (no storage limit)\n", rows,
              queries);
  for (const size_t period : {10u, 100u, 200u}) {
    std::printf("\n# switch every %zu queries\n", period);
    const auto m = RunSpecs(
        MapEngines(rel, 0),
        workload.Specs(queries, args.seed + 1,
                       [&](size_t q) { return (q / period) % 2; }),
        report);
    FigureHeader("13-every" + std::to_string(period),
                 "per-query cost, alternating two query types",
                 "query_sequence", "micros");
    for (size_t a = 0; a < 2; ++a) {
      SeriesHeader(a == 0 ? "full-maps" : "partial-maps");
      for (size_t q = 0; q < queries; ++q) {
        if (q < 5 || q % 5 == 0 || (q % period) < 2) {
          Point(static_cast<double>(q + 1), m[q][a]);
        }
      }
    }
    // The first query after each switch is where full maps pay.
    std::vector<std::vector<double>> switches;
    for (size_t q = period; q < queries; q += period) switches.push_back(m[q]);
    report->Order("partial_beats_full_at_switches_every" +
                      std::to_string(period),
                  MedianRatio(switches, 0, 1), true);
  }
}

// ---------------------------------------------------------------------------
// Section 5: TPC-H.

double TpchScale(const BenchArgs& args) {
  return args.scale_factor > 0 ? args.scale_factor
         : args.paper_scale    ? 1.0
                               : 0.05;
}

/// Runs `query` with `params` on `set`: response time with presorting
/// excluded (reported separately, as in the Figure 14 caption).
Answer RunTpch(tpch::TpchDatabase& db, tpch::EngineSet& set,
               const tpch::TpchQueryDef& query,
               const tpch::QueryParams& params) {
  const double prepare_before = set.TotalPrepareMicros();
  Timer timer;
  const tpch::TpchResult result = query.run(db, set, params);
  const double micros = timer.ElapsedMicros() -
                        (set.TotalPrepareMicros() - prepare_before);
  return {micros, Digest(result.size(), result.empty() ? 0 : result[0].size(),
                        [&](size_t i, size_t c) { return result[i][c]; })};
}

/// Figure 14 and the SiCr/PrMo benefit table: the twelve evaluated TPC-H
/// queries, each as a sequence of random parameter variations on five
/// systems; the presorted row-store stands in for MySQL.
void Fig14(const BenchArgs& args, Report* report) {
  const double sf = TpchScale(args);
  const size_t variations = args.queries != 0 ? args.queries : 30;
  Timer gen_timer;
  tpch::TpchDatabase db(sf, args.seed);
  std::printf("# fig14: sf=%.3f variations=%zu (generated in %.1f s)\n", sf,
              variations, gen_timer.ElapsedSeconds());
  const std::vector<std::string> systems = {
      "presorted", "selection-cracking", "sideways", "row-presorted", "plain"};
  // total_ms[system][query]
  std::vector<std::vector<double>> total_ms(systems.size());
  for (const tpch::TpchQueryDef& query : tpch::AllQueries()) {
    std::vector<tpch::EngineSet> sets;
    for (const std::string& kind : systems) {
      sets.emplace_back(db, kind, MakeEngineFactory(kind));
    }
    Rng rng(args.seed + static_cast<uint64_t>(query.number));
    std::vector<tpch::QueryParams> params;
    for (size_t v = 0; v < variations; ++v) {
      params.push_back(query.randomize(db, rng));
    }
    const auto m = Lockstep(
        systems.size(), variations,
        [&](size_t a, size_t v) {
          return RunTpch(db, sets[a], query, params[v]);
        },
        report);
    std::printf("\n");
    FigureHeader("14-Q" + std::to_string(query.number),
                 "TPC-H Q" + std::to_string(query.number) + " (" + query.name +
                     ") response time",
                 "query_sequence", "millis");
    for (size_t a = 0; a < systems.size(); ++a) {
      SeriesHeader(systems[a]);
      for (size_t v = 0; v < variations; ++v) {
        Point(static_cast<double>(v + 1), m[v][a] / 1000.0);
      }
      if (sets[a].TotalPrepareMicros() > 0) {
        std::printf("# preparation (presorting) cost: %.1f ms, excluded\n",
                    sets[a].TotalPrepareMicros() / 1000.0);
      }
      total_ms[a].push_back(Total(m, a) / 1000.0);
    }
  }
  std::printf("\n# table: benefit over plain (positive = faster), as in the "
              "paper's SiCr/PrMo table\n");
  TablePrinter table({"Q", "SiCr", "PrMo", "SelCr", "RowPre"});
  for (size_t i = 0; i < tpch::AllQueries().size(); ++i) {
    const double plain = total_ms[4][i];
    auto pct = [&](size_t a) {
      return Fmt((1.0 - total_ms[a][i] / plain) * 100.0, 0) + "%";
    };
    table.AddRow({"Q" + std::to_string(tpch::AllQueries()[i].number), pct(2),
                  pct(0), pct(1), pct(3)});
  }
  table.Print();
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  report->Order("sideways_beats_plain_total",
                sum(total_ms[4]) / sum(total_ms[2]));
}

/// Figure 15: five batches of all twelve queries with fresh parameters;
/// sideways cracking's response time relative to plain, which cross-query
/// reuse of maps makes faster already in the first batch.
void Fig15(const BenchArgs& args, Report* report) {
  const double sf = TpchScale(args);
  const size_t batches = 5;
  tpch::TpchDatabase db(sf, args.seed);
  const auto& queries = tpch::AllQueries();
  std::printf("# fig15: sf=%.3f batches=%zu x %zu queries\n", sf, batches,
              queries.size());
  std::vector<tpch::EngineSet> sets;
  for (const char* kind : {"sideways", "plain"}) {
    sets.emplace_back(db, kind, MakeEngineFactory(kind));
  }
  Rng rng(args.seed + 5);
  std::vector<tpch::QueryParams> params;
  for (size_t i = 0; i < batches * queries.size(); ++i) {
    params.push_back(queries[i % queries.size()].randomize(db, rng));
  }
  const auto m = Lockstep(
      2, params.size(),
      [&](size_t a, size_t i) {
        return RunTpch(db, sets[a], queries[i % queries.size()], params[i]);
      },
      report);
  FigureHeader("15", "mixed TPC-H workload, sideways relative to plain",
               "query_sequence", "relative_time");
  SeriesHeader("sideways/plain");
  for (size_t i = 0; i < params.size(); ++i) {
    std::printf("%zu %.3f # batch=%zu Q%d\n", i + 1, m[i][0] / m[i][1],
                i / queries.size() + 1, queries[i % queries.size()].number);
  }
  report->Order("sideways_beats_plain_mixed", MedianRatio(m, 1, 0));
}

// ---------------------------------------------------------------------------
// Design ablations: the measurements behind three design choices.

CrackPairs RandomStore(Rng* rng, size_t n, Value domain) {
  CrackPairs store;
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.PushBack(rng->Uniform(1, domain), static_cast<Value>(i));
  }
  return store;
}

/// A: crack-in-three (one pass) vs two crack-in-two passes for a fresh
/// range query (Section 3.1 relies on [7]'s algorithms). B: the cracker
/// join (a Section 3.4 extension), piece-wise vs one flat hash join, as
/// the inputs get more cracked. C: piece-aware max vs scanning the
/// qualifying area (Section 3.4: "a max can consider only the last piece
/// of a map").
void Ablation(const BenchArgs& args, Report* report) {
  const size_t rows = Size(args.rows, args, 10'000'000, 1'000'000);
  constexpr size_t kRounds = 9;
  report->arm = kernels::IsaName(kernels::ActiveIsa());
  std::printf("# ablation: rows=%zu arm=%s\n", rows, report->arm.c_str());

  Rng rng(1);
  const CrackPairs pristine = RandomStore(&rng, rows, kDomain);
  const Bound lo{3'000'000, true};
  const Bound hi{7'000'000, false};
  std::pair<size_t, size_t> cuts[2];
  // The warm round also allocates the thread-local crack scratch, which
  // would otherwise land in the first timed call.
  const auto crack = RunInterleaved(2, 1, kRounds, [&](size_t v) {
    CrackPairs store = pristine;
    Timer t;
    if (v == 0) {
      cuts[0] = CrackInThree(store, 0, store.size(), lo, hi);
    } else {
      cuts[1].first = CrackInTwo(store, 0, store.size(), lo);
      cuts[1].second = CrackInTwo(store, cuts[1].first, store.size(), hi);
    }
    return t.ElapsedMillis();
  });
  report->Check(cuts[0] == cuts[1], "crack-in-three and two crack-in-twos cut "
                                    "at different positions");
  FigureHeader("ablation-A", "crack-in-three vs two crack-in-twos", "variant",
               "millis");
  const std::vector<double> crack_ms = ArmMedians(crack);
  SeriesHeader("crack-in-three");
  Point(1, crack_ms[0]);
  SeriesHeader("two-crack-in-twos");
  Point(1, crack_ms[1]);
  // The single pass wins only where the kernels are vectorized.
  report->Order("crack_in_three_beats_two_crack_in_twos",
                MedianRatio(crack, 1, 0), report->arm != "scalar");

  FigureHeader("ablation-B", "piece-wise cracker join vs flat hash join",
               "cracks_on_inputs", "millis flat_millis");
  SeriesHeader("cracker-join-vs-hash");
  const size_t join_rows = rows / 4;
  const Value domain = std::max<Value>(40, static_cast<Value>(join_rows / 4));
  Rng join_rng(2);
  CrackPairs left = RandomStore(&join_rng, join_rows, domain);
  CrackPairs right = RandomStore(&join_rng, join_rows, domain);
  CrackerIndex li, ri;
  size_t cracks = 0;
  for (const size_t target : {0u, 8u, 64u, 256u}) {
    for (; cracks < target; ++cracks) {
      const Value a = join_rng.Uniform(1, domain - domain / 20);
      CrackOnPredicate(left, li, RangePredicate::Closed(a, a + domain / 20));
      const Value b = join_rng.Uniform(1, domain - domain / 20);
      CrackOnPredicate(right, ri, RangePredicate::Closed(b, b + domain / 20));
    }
    size_t pairs[2] = {};
    const auto join = RunInterleaved(2, 1, 5, [&](size_t v) {
      Timer t;
      pairs[v] = v == 0 ? CrackerHeadJoin(left, li, right, ri).size()
                        : HashJoin(left.head, right.head).size();
      return t.ElapsedMillis();
    });
    report->Check(pairs[0] == pairs[1], "cracker join found " +
                                            std::to_string(pairs[0]) +
                                            " pairs, hash join " +
                                            std::to_string(pairs[1]));
    const std::vector<double> join_ms = ArmMedians(join);
    Point(static_cast<double>(target), join_ms[0], join_ms[1]);
    if (target >= 8) {
      report->Order("cracker_join_beats_hash_" + std::to_string(target) +
                        "_cracks",
                    MedianRatio(join, 1, 0));
    }
  }

  Rng max_rng(3);
  CrackPairs store = RandomStore(&max_rng, rows, kDomain);
  CrackerIndex index;
  for (int q = 0; q < 128; ++q) {
    const Value a = max_rng.Uniform(1, kDomain - kDomain / 10);
    CrackOnPredicate(store, index, RangePredicate::Closed(a, a + kDomain / 10));
  }
  const RangePredicate pred =
      RangePredicate::Closed(kDomain / 4, 3 * (kDomain / 4));
  CrackOnPredicate(store, index, pred);
  Value max[2] = {};
  const auto piece_max = RunInterleaved(2, 1, kRounds, [&](size_t v) {
    Timer t;
    for (int rep = 0; rep < 100; ++rep) {
      if (v == 0) {
        max[0] = HeadMaxInArea(store, index, pred);
      } else {
        max[1] = kMinValue;
        const PositionRange area = index.FindArea(pred, store.size());
        for (size_t i = area.begin; i < area.end; ++i) {
          max[1] = std::max(max[1], store.head[i]);
        }
      }
    }
    return t.ElapsedMicros() / 100.0;
  });
  report->Check(max[0] == max[1], "piece-aware max differs from the scan");
  FigureHeader("ablation-C", "piece-aware max vs area scan", "variant",
               "micros");
  const std::vector<double> max_us = ArmMedians(piece_max);
  SeriesHeader("piece-aware-max");
  Point(1, max_us[0]);
  SeriesHeader("area-scan-max");
  Point(1, max_us[1]);
  report->Order("piece_max_beats_area_scan", MedianRatio(piece_max, 1, 0),
                true);
}

struct Figure {
  const char* name;
  void (*run)(const BenchArgs&, Report*);
};

constexpr Figure kFigures[] = {
    {"exp1", Exp1},   {"exp2", Exp2},   {"exp3", Exp3},
    {"exp4", Exp4},   {"exp5", Exp5},   {"exp6", Exp6},
    {"fig9", Fig9},   {"fig10", Fig10}, {"fig11", Fig11},
    {"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14},
    {"fig15", Fig15}, {"ablation", Ablation},
};

/// Runs one figure and prints its BENCH_paper line; returns whether it
/// passed.
bool RunFigure(const Figure& figure, const BenchArgs& args,
               bool assert_orderings) {
  Report report;
  figure.run(args, &report);
  bool ok = report.failures == 0;
  std::string json = "{\"verified\":" + std::string(ok ? "true" : "false") +
                     ",\"failures\":" + std::to_string(report.failures);
  if (!report.arm.empty()) json += ",\"arm\":\"" + report.arm + "\"";
  json += ",\"orderings\":{";
  const char* sep = "";
  for (const Report::Ordering& o : report.orderings) {
    const bool holds = o.ratio > 1.0;
    if (o.asserted && assert_orderings && !holds) {
      std::fprintf(stderr, "ORDERING FAILED: %s %s ratio %.3f\n", figure.name,
                   o.name.c_str(), o.ratio);
      ok = false;
    }
    json += sep + ("\"" + o.name + "\":{\"ratio\":") + Fmt(o.ratio, 3) +
            ",\"holds\":" + (holds ? "true" : "false") +
            ",\"asserted\":" + (o.asserted ? "true" : "false") + "}";
    sep = ",";
  }
  std::printf("\nBENCH_paper_%s %s}}\n", figure.name, json.c_str());
  return ok;
}

}  // namespace
}  // namespace crackdb::bench

int main(int argc, char** argv) {
  using namespace crackdb::bench;
  std::vector<std::string> names;
  const BenchFlag positional[] = {
      {"FIGURE...",
       "figures to run (default: all): exp1-exp6, fig9-fig15, ablation",
       [&](const char* a) {
         if (a[0] == '-') return false;
         names.emplace_back(a);
         return true;
       }}};
  const BenchArgs args = BenchArgs::Parse(argc, argv, positional);
  for (const std::string& name : names) {
    if (std::none_of(std::begin(kFigures), std::end(kFigures),
                     [&](const Figure& f) { return name == f.name; })) {
      std::fprintf(stderr, "unknown figure: %s\n\n", name.c_str());
      BenchArgs::PrintHelp(argv[0], positional, stderr);
      return 2;
    }
  }
  // Timing orderings are asserted only at the default scale they were
  // established at; answers and invariants are asserted at every scale.
  const bool assert_orderings = !args.smoke && !args.paper_scale &&
                                args.rows == 0 && args.queries == 0 &&
                                args.scale_factor <= 0;
  bool ok = true;
  for (const Figure& figure : kFigures) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), figure.name) != names.end()) {
      ok = RunFigure(figure, args, assert_orderings) && ok;
    }
  }
  return ok ? 0 : 1;
}
