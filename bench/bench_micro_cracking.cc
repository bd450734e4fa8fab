// Micro-benchmarks (google-benchmark) for the core cracking primitives:
// crack-in-two/three, AVL cracker-index operations, ripple updates, the
// bit-vector refinement loop, and the dispatched scan/fold/gather kernels.
// These are the building blocks whose costs compose into every figure of
// the paper.
//
//   ./bench_micro_cracking                 # dispatched arm (widest the CPU has)
//   ./bench_micro_cracking --kernel=scalar # force the scalar reference arm
//   ./bench_micro_cracking --smoke         # CI fast path
//
// Besides the google-benchmark cases (which report GB/s via bytes_per_second
// and label each kernel case with the arm it ran on), the binary ends with a
// hand-timed scalar-vs-dispatched comparison emitting machine-readable
// `BENCH_micro_kernels {...}` JSON lines and a hand-timed Ripple cost sweep
// emitting `BENCH_micro_ripple {...}` lines (schemas: docs/BENCHMARKS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"
#include "kernels/kernels.h"
#include "updates/ripple.h"

namespace crackdb {
namespace {

CrackPairs MakeStore(size_t n, Value domain, uint64_t seed) {
  Rng rng(seed);
  CrackPairs store;
  store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    store.PushBack(rng.Uniform(1, domain), static_cast<Value>(i));
  }
  return store;
}

std::vector<Value> MakeValues(size_t n, Value domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> values(n);
  for (auto& v : values) v = rng.Uniform(1, domain);
  return values;
}

void SetKernelCounters(benchmark::State& state, size_t bytes_per_iter) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes_per_iter));
  state.SetLabel(kernels::IsaName(kernels::ActiveIsa()));
}

void BM_CrackInTwo(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CrackPairs pristine = MakeStore(n, 1'000'000, 1);
  for (auto _ : state) {
    state.PauseTiming();
    CrackPairs store = pristine;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        CrackInTwo(store, 0, store.size(), Bound{500'000, true}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  // Bytes = the logical pair store (head + tail), not physical traffic.
  SetKernelCounters(state, 2 * n * sizeof(Value));
}
BENCHMARK(BM_CrackInTwo)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_CrackInThree(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CrackPairs pristine = MakeStore(n, 1'000'000, 2);
  for (auto _ : state) {
    state.PauseTiming();
    CrackPairs store = pristine;
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInThree(store, 0, store.size(),
                                          Bound{300'000, true},
                                          Bound{700'000, false}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  SetKernelCounters(state, 2 * n * sizeof(Value));
}
BENCHMARK(BM_CrackInThree)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_QuerySequenceCracking(benchmark::State& state) {
  // Cost of the q-th query in a cracking sequence: pieces shrink, work
  // drops — the self-organizing effect in isolation.
  const size_t n = 1 << 18;
  for (auto _ : state) {
    state.PauseTiming();
    CrackPairs store = MakeStore(n, 1'000'000, 3);
    CrackerIndex index;
    Rng rng(4);
    state.ResumeTiming();
    for (int q = 0; q < state.range(0); ++q) {
      const Value lo = rng.Uniform(1, 800'000);
      CrackOnPredicate(store, index, RangePredicate::Closed(lo, lo + 200'000));
    }
  }
}
BENCHMARK(BM_QuerySequenceCracking)->Arg(1)->Arg(16)->Arg(128);

void BM_CrackerIndexLookup(benchmark::State& state) {
  CrackerIndex index;
  Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    index.AddSplit(Bound{rng.Uniform(1, 1'000'000), true},
                   static_cast<size_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.FindPiece(Bound{rng.Uniform(1, 1'000'000), true}, 1 << 20));
  }
}
BENCHMARK(BM_CrackerIndexLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RippleInsert(benchmark::State& state) {
  const size_t n = 1 << 16;
  CrackPairs store = MakeStore(n, 1'000'000, 6);
  CrackerIndex index;
  Rng rng(7);
  // Pre-crack into pieces so inserts must ripple through boundaries.
  for (int i = 0; i < state.range(0); ++i) {
    const Value lo = rng.Uniform(1, 900'000);
    CrackOnPredicate(store, index, RangePredicate::Closed(lo, lo + 50'000));
  }
  for (auto _ : state) {
    RippleInsert(store, index, rng.Uniform(1, 1'000'000), 0);
  }
  state.SetLabel(std::to_string(index.num_splits()) + " splits");
}
BENCHMARK(BM_RippleInsert)->Arg(4)->Arg(64)->Arg(512);

void BM_BitVectorRefine(benchmark::State& state) {
  // The refinement loop as the engines run it today: the dispatched
  // match_bitmap kernel in kAnd mode.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Value> tail = MakeValues(n, 1'000'000, 8);
  const RangePredicate pred = RangePredicate::Closed(250'000, 750'000);
  BitVector bv(n, true);
  for (auto _ : state) {
    kernels::MatchBitmap(tail.data(), 0, n, pred, bv.word_data(),
                         kernels::BitmapMode::kAnd);
    benchmark::DoNotOptimize(bv.Count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  SetKernelCounters(state, n * sizeof(Value));
}
BENCHMARK(BM_BitVectorRefine)->Arg(1 << 14)->Arg(1 << 18);

void BM_KernelSumFold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Value> values = MakeValues(n, 1'000'000, 9);
  for (auto _ : state) {
    Value acc = 0;
    bool valid = false;
    kernels::FoldSpan(kernels::FoldOp::kSum, values.data(), n, &acc, &valid);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  SetKernelCounters(state, n * sizeof(Value));
}
BENCHMARK(BM_KernelSumFold)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

void BM_KernelSelectRange(benchmark::State& state) {
  // Position-list select at ~50% selectivity: the unindexed-piece scan.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Value> values = MakeValues(n, 1'000'000, 10);
  const RangePredicate pred = RangePredicate::Closed(250'000, 750'000);
  std::vector<Key> out;
  out.reserve(n);
  for (auto _ : state) {
    out.clear();
    kernels::SelectRange(values.data(), n, pred, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  SetKernelCounters(state, n * sizeof(Value));
}
BENCHMARK(BM_KernelSelectRange)->Arg(1 << 14)->Arg(1 << 18);

void BM_KernelGather(benchmark::State& state) {
  // Positional fetch (tuple reconstruction) over a shuffled position list.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Value> values = MakeValues(n, 1'000'000, 11);
  Rng rng(12);
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i);
  for (size_t i = n; i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.Uniform(0, static_cast<Value>(i - 1)));
    std::swap(keys[i - 1], keys[j]);
  }
  std::vector<Value> out(n);
  for (auto _ : state) {
    kernels::Gather(values.data(), keys.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  SetKernelCounters(state, n * (sizeof(Value) + sizeof(Key)));
}
BENCHMARK(BM_KernelGather)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

// Hand-timed scalar-vs-dispatched A/B over the two acceptance kernels
// (crack-in-two and the Sum fold), emitting one `BENCH_micro_kernels` JSON
// line per kernel. Timings are best-of-reps; GB/s uses the logical input
// size (pair store for cracks, value span for folds). `isa` is whatever
// --kernel selected, so --kernel=scalar reports a ~1.0 speedup by
// construction and the scalar baseline is measured either way.
void EmitKernelComparison(bool smoke) {
  const size_t n = smoke ? size_t{20'000} : size_t{200'000};
  const int reps = smoke ? 3 : 15;
  const kernels::Isa arm = kernels::ActiveIsa();

  const std::vector<Value> values = MakeValues(n, 1'000'000, 13);
  std::vector<Value> tails(n);
  for (size_t i = 0; i < n; ++i) tails[i] = static_cast<Value>(i);
  const Bound bound{500'000, true};

  auto time_crack = [&](kernels::Isa isa) {
    kernels::ForceIsa(isa);
    std::vector<Value> head(n);
    std::vector<Value> tail(n);
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      std::copy(values.begin(), values.end(), head.begin());
      std::copy(tails.begin(), tails.end(), tail.begin());
      Timer t;
      benchmark::DoNotOptimize(
          kernels::CrackInTwoPairs(head.data(), tail.data(), n, bound));
      const double micros = t.ElapsedMicros();
      if (r == 0 || micros < best) best = micros;
    }
    return best;
  };
  auto time_fold = [&](kernels::Isa isa) {
    kernels::ForceIsa(isa);
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      Value acc = 0;
      bool valid = false;
      Timer t;
      kernels::FoldSpan(kernels::FoldOp::kSum, values.data(), n, &acc,
                        &valid);
      const double micros = t.ElapsedMicros();
      benchmark::DoNotOptimize(acc);
      if (r == 0 || micros < best) best = micros;
    }
    return best;
  };

  struct Case {
    const char* op;
    double scalar_micros;
    double kernel_micros;
    size_t bytes;
  };
  const Case cases[] = {
      {"crack_in_two", time_crack(kernels::Isa::kScalar), time_crack(arm),
       2 * n * sizeof(Value)},
      {"sum_fold", time_fold(kernels::Isa::kScalar), time_fold(arm),
       n * sizeof(Value)},
  };
  kernels::ForceIsa(arm);

  for (const Case& c : cases) {
    const double gbps_scalar =
        static_cast<double>(c.bytes) / (c.scalar_micros * 1e3);
    const double gbps_kernel =
        static_cast<double>(c.bytes) / (c.kernel_micros * 1e3);
    std::printf(
        "BENCH_micro_kernels {\"op\":\"%s\",\"rows\":%zu,\"isa\":\"%s\","
        "\"scalar_micros\":%.1f,\"kernel_micros\":%.1f,"
        "\"scalar_gbps\":%.2f,\"kernel_gbps\":%.2f,\"speedup\":%.2f}\n",
        c.op, n, kernels::IsaName(arm), c.scalar_micros, c.kernel_micros,
        gbps_scalar, gbps_kernel, c.scalar_micros / c.kernel_micros);
  }
}

// Hand-timed Ripple cost per update on a 50k-entry store (the serve-rw
// partition size) at 64, 1k and 8k live splits, emitting one
// `BENCH_micro_ripple` JSON line per (op, splits). One-sided cracks place
// exactly one split each. The inserts run first, then as many deletes at
// random positions, so both ops see ~50k entries; every update pays one
// walk over the splits above its target piece.
void EmitRippleSweep(bool smoke) {
  const size_t entries = 50'000;
  const int ops = smoke ? 200 : 5'000;
  for (const size_t splits : {size_t{64}, size_t{1'024}, size_t{8'192}}) {
    CrackPairs store = MakeStore(entries, 1'000'000, 14);
    CrackerIndex index;
    Rng rng(15);
    while (index.num_splits() < splits) {
      CrackOnPredicate(store, index,
                       {rng.Uniform(1, 1'000'000), kMaxValue, true, true});
    }
    Timer insert_timer;
    for (int i = 0; i < ops; ++i) {
      RippleInsert(store, index, rng.Uniform(1, 1'000'000), i);
    }
    const double insert_micros = insert_timer.ElapsedMicros();
    Timer delete_timer;
    for (int i = 0; i < ops; ++i) {
      const Value last = static_cast<Value>(store.size()) - 1;
      RippleDeleteAt(store, index, static_cast<size_t>(rng.Uniform(0, last)));
    }
    const double delete_micros = delete_timer.ElapsedMicros();
    benchmark::DoNotOptimize(store.head.data());
    const std::pair<const char*, double> results[] = {
        {"insert", insert_micros}, {"delete", delete_micros}};
    for (const auto& [op, micros] : results) {
      std::printf(
          "BENCH_micro_ripple {\"op\":\"%s\",\"entries\":%zu,"
          "\"splits\":%zu,\"ns_per_op\":%.0f}\n",
          op, entries, splits, micros * 1e3 / ops);
    }
  }
}

}  // namespace crackdb

// BENCHMARK_MAIN() with a `--smoke` translation so this binary registers as
// a CTest smoke test like the figure benches (one near-instant iteration per
// benchmark, same code paths), plus `--kernel=ISA` to pin the dispatch arm
// before any kernel runs.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (i > 0 && std::strncmp(argv[i], "--kernel=", 9) == 0) {
      crackdb::kernels::Isa isa;
      if (!crackdb::kernels::ParseIsa(argv[i] + 9, &isa)) {
        std::fprintf(stderr,
                     "--kernel wants scalar|sse2|avx2|auto, got '%s'\n",
                     argv[i] + 9);
        return 2;
      }
      crackdb::kernels::ForceIsa(isa);
      continue;
    }
    args.push_back(argv[i]);
  }
  char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  crackdb::EmitKernelComparison(smoke);
  crackdb::EmitRippleSweep(smoke);
  return 0;
}
