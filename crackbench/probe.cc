// Kernel and codec probe: times every KernelTable entry on every arm the
// CPU can execute, and the codec entry points on F-shaped columns, with
// inputs sized like one partition of the workload being run.
#include "probe.h"

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "storage/codec.h"

namespace crackbench {

using crackdb::Bound;
using crackdb::Key;
using crackdb::RangePredicate;
using crackdb::Value;
namespace kernels = crackdb::kernels;

namespace {

/// Results land here so no timed call can be optimized away.
volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

/// Median per-call micros over 7 reps of >= 2 ms each; `prepare` runs
/// untimed before every call (fresh inputs for in-place kernels).
double TimeCall(const std::function<void()>& prepare,
                const std::function<void()>& call) {
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    double total = 0.0;
    size_t calls = 0;
    while (total < 2000.0) {
      prepare();
      const auto t0 = Clock::now();
      call();
      total += MicrosBetween(t0, Clock::now());
      ++calls;
    }
    per_call.push_back(total / static_cast<double>(calls));
  }
  return Median(per_call);
}

struct KernelInputs {
  std::vector<Value> head, tail;  // pristine crack input
  std::vector<Value> work_head, work_tail;
  std::vector<Value> values;      // uniform column
  std::vector<Key> keys;          // ascending positions, ~50% density
  std::vector<uint32_t> groups;   // group ids in [0, 64)
  std::vector<Value> gathered, accs;
  std::vector<Key> out_keys;
  std::vector<uint64_t> words;
  RangePredicate pred;            // ~50% of the domain
  Bound bound, lo, hi;
  crackdb::EncodedColumn packed;  // FOR codes of `values`
  crackdb::EncodedColumn rle;     // runs of 16..48
  uint64_t lo_code = 0, hi_code = 0;
  std::vector<Value> runs;
};

KernelInputs MakeKernelInputs(size_t n, uint64_t seed) {
  constexpr Value kDomain = 1'000'000;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Value> value(0, kDomain - 1);
  KernelInputs in;
  for (size_t i = 0; i < n; ++i) {
    in.head.push_back(value(rng));
    in.tail.push_back(value(rng));
    in.values.push_back(value(rng));
    in.groups.push_back(static_cast<uint32_t>(rng() % 64));
    if (rng() % 2 == 0) in.keys.push_back(static_cast<Key>(i));
  }
  in.pred = RangePredicate::Closed(kDomain / 4, 3 * kDomain / 4);
  in.bound = {kDomain / 2, true};
  in.lo = {kDomain / 4, true};
  in.hi = {3 * kDomain / 4, false};
  in.gathered.resize(n);
  in.accs.resize(64);
  in.words.resize((n + 63) / 64);
  in.out_keys.reserve(n);
  crackdb::EncodeColumn(in.values, crackdb::CodecKind::kFor, &in.packed);
  in.lo_code = in.packed.for_range / 4;
  in.hi_code = 3 * in.packed.for_range / 4;
  Value run_value = 0;
  size_t left = 0;
  for (size_t i = 0; i < n; ++i) {
    if (left == 0) {
      run_value = value(rng);
      left = 16 + rng() % 33;
    }
    --left;
    in.runs.push_back(run_value);
  }
  crackdb::EncodeColumn(in.runs, crackdb::CodecKind::kRle, &in.rle);
  return in;
}

struct Entry {
  const char* name;
  double bytes;  // bytes one call reads (raw-equivalent for codes/runs)
  std::function<void()> prepare;
  std::function<void(const kernels::KernelTable&)> call;
};

std::vector<Entry> Entries(KernelInputs* p) {
  KernelInputs& in = *p;
  const size_t n = in.values.size();
  const double n8 = static_cast<double>(n) * sizeof(Value);
  const double keyed = static_cast<double>(in.keys.size()) *
                       (sizeof(Key) + sizeof(Value));
  auto fresh_pairs = [p] {
    p->work_head = p->head;
    p->work_tail = p->tail;
  };
  auto clear_out = [p] { p->out_keys.clear(); };
  auto nothing = [] {};
  auto zero_accs = [p] { std::fill(p->accs.begin(), p->accs.end(), 0); };
  const kernels::FoldOp sum = kernels::FoldOp::kSum;
  const crackdb::EncodedColumn* runs = &in.rle;
  return {
      {"crack_in_two", 2 * n8, fresh_pairs,
       [p, n](const kernels::KernelTable& t) {
         Sink(t.crack_in_two(p->work_head.data(), p->work_tail.data(), n,
                             p->bound));
       }},
      {"crack_in_three", 2 * n8, fresh_pairs,
       [p, n](const kernels::KernelTable& t) {
         size_t mid = 0, high = 0;
         t.crack_in_three(p->work_head.data(), p->work_tail.data(), n, p->lo,
                          p->hi, &mid, &high);
         Sink(mid + high);
       }},
      {"count_range", n8, nothing,
       [p, n](const kernels::KernelTable& t) {
         Sink(t.count_range(p->values.data(), n, p->pred));
       }},
      {"select_range", n8, clear_out,
       [p, n](const kernels::KernelTable& t) {
         t.select_range(p->values.data(), n, p->pred, 0, &p->out_keys);
         Sink(p->out_keys.size());
       }},
      {"filter_keys", keyed, clear_out,
       [p](const kernels::KernelTable& t) {
         t.filter_keys(p->values.data(), p->keys.data(), p->keys.size(),
                       p->pred, &p->out_keys);
         Sink(p->out_keys.size());
       }},
      {"match_bitmap", n8, nothing,
       [p, n](const kernels::KernelTable& t) {
         t.match_bitmap(p->values.data(), 0, n, p->pred, p->words.data(),
                        kernels::BitmapMode::kAssign);
         Sink(p->words[0]);
       }},
      {"fold_span", n8, nothing,
       [p, n, sum](const kernels::KernelTable& t) {
         Value acc = 0;
         bool valid = false;
         t.fold_span(sum, p->values.data(), n, &acc, &valid);
         Sink(static_cast<uint64_t>(acc));
       }},
      {"fold_gather", keyed, nothing,
       [p, sum](const kernels::KernelTable& t) {
         Value acc = 0;
         bool valid = false;
         t.fold_gather(sum, p->values.data(), p->keys.data(), p->keys.size(),
                       &acc, &valid);
         Sink(static_cast<uint64_t>(acc));
       }},
      {"gather", keyed, nothing,
       [p](const kernels::KernelTable& t) {
         t.gather(p->values.data(), p->keys.data(), p->keys.size(),
                  p->gathered.data());
         Sink(static_cast<uint64_t>(p->gathered[0]));
       }},
      {"fold_group",
       static_cast<double>(n) * (sizeof(Value) + sizeof(uint32_t)), zero_accs,
       [p, n, sum](const kernels::KernelTable& t) {
         t.fold_group(sum, p->values.data(), nullptr, p->groups.data(), n,
                      p->accs.data());
         Sink(static_cast<uint64_t>(p->accs[0]));
       }},
      {"count_packed", n8, nothing,
       [p, n](const kernels::KernelTable& t) {
         Sink(t.count_packed(p->packed.words.data(), p->packed.bits, n,
                             p->lo_code, p->hi_code));
       }},
      {"select_packed", n8, clear_out,
       [p, n](const kernels::KernelTable& t) {
         t.select_packed(p->packed.words.data(), p->packed.bits, n, p->lo_code,
                         p->hi_code, 0, &p->out_keys);
         Sink(p->out_keys.size());
       }},
      {"fold_packed", n8, nothing,
       [p, n, sum](const kernels::KernelTable& t) {
         Value acc = 0;
         bool valid = false;
         t.fold_packed(sum, p->packed.words.data(), p->packed.bits, n,
                       p->packed.for_base, p->lo_code, p->hi_code, &acc,
                       &valid);
         Sink(static_cast<uint64_t>(acc));
       }},
      {"count_rle", n8, nothing,
       [p, runs](const kernels::KernelTable& t) {
         Sink(t.count_rle(runs->run_values.data(), runs->run_starts.data(),
                          runs->num_runs(), p->pred));
       }},
      {"select_rle", n8, clear_out,
       [p, runs](const kernels::KernelTable& t) {
         t.select_rle(runs->run_values.data(), runs->run_starts.data(),
                      runs->num_runs(), p->pred, 0, &p->out_keys);
         Sink(p->out_keys.size());
       }},
      {"fold_rle", n8, nothing,
       [p, runs, sum](const kernels::KernelTable& t) {
         Value acc = 0;
         bool valid = false;
         t.fold_rle(sum, runs->run_values.data(), runs->run_starts.data(),
                    runs->num_runs(), p->pred, &acc, &valid);
         Sink(static_cast<uint64_t>(acc));
       }},
  };
}

double Gbps(double bytes, double micros) {
  return micros <= 0.0 ? 0.0 : bytes / (micros * 1e3);
}

}  // namespace

void RunKernelProbe(size_t n, uint64_t seed, Report* report) {
  KernelInputs in = MakeKernelInputs(n, seed);
  const kernels::Isa active = kernels::ActiveIsa();
  const int widest = static_cast<int>(kernels::DetectedIsa());
  report->Set("kernels.arm", static_cast<double>(active), "arm");
  for (Entry& e : Entries(&in)) {
    // micros[arm] for every arm the CPU executes.
    std::vector<double> micros;
    for (int arm = 0; arm <= widest; ++arm) {
      const kernels::KernelTable& table =
          kernels::Table(static_cast<kernels::Isa>(arm));
      micros.push_back(TimeCall(e.prepare, [&] { e.call(table); }));
    }
    const size_t a = static_cast<size_t>(active);
    const std::string prefix = std::string("kernels.") + e.name;
    report->Set(prefix + ".gbps", Gbps(e.bytes, micros[a]), "GB/s");
    report->Set(prefix + ".vs_scalar", micros[0] / micros[a], "x");
    report->Set(prefix + ".vs_narrower",
                a == 0 ? 1.0 : micros[a - 1] / micros[a], "x");
  }
}

void RunCodecProbe(size_t n, uint64_t seed, Report* report) {
  // The three F column shapes: ascending keys (FOR), 256 categories
  // (dictionary), runs of 16..48 (RLE).
  std::mt19937_64 rng(seed + 17);
  std::vector<Value> keys, cats, runs;
  Value run_value = 0;
  size_t left = 0;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(4 * static_cast<Value>(i) + static_cast<Value>(rng() % 4));
    cats.push_back(static_cast<Value>(rng() % 256) * (Value{1} << 34));
    if (left == 0) {
      run_value = static_cast<Value>(rng() % 1'000'000'000);
      left = 16 + rng() % 33;
    }
    --left;
    runs.push_back(run_value);
  }
  struct Shape {
    const char* name;
    crackdb::CodecKind kind;
    const std::vector<Value>* values;
    RangePredicate pred;
  };
  const Shape shapes[] = {
      {"for", crackdb::CodecKind::kFor, &keys,
       RangePredicate::Closed(static_cast<Value>(n), 3 * static_cast<Value>(n))},
      {"dict", crackdb::CodecKind::kDict, &cats,
       RangePredicate::Closed(0, 128 * (Value{1} << 34))},
      {"rle", crackdb::CodecKind::kRle, &runs,
       RangePredicate::Closed(0, 500'000'000)},
  };
  const double bytes = static_cast<double>(n) * sizeof(Value);
  for (const Shape& s : shapes) {
    crackdb::EncodedColumn enc;
    crackdb::EncodeColumn(*s.values, s.kind, &enc);
    const std::string prefix = std::string("storage.") + s.name;
    const double encode = TimeCall([] {}, [&] {
      crackdb::EncodedColumn scratch;
      g_sink = g_sink + crackdb::EncodeColumn(*s.values, s.kind, &scratch);
    });
    const double count = TimeCall([] {}, [&] {
      g_sink = g_sink + crackdb::EncodedCount(enc, s.pred);
    });
    const double fold = TimeCall([] {}, [&] {
      Value acc = 0;
      bool valid = false;
      crackdb::EncodedFold(enc, kernels::FoldOp::kSum, &acc, &valid);
      g_sink = g_sink + static_cast<uint64_t>(acc);
    });
    report->Set(prefix + ".encode_gbps", Gbps(bytes, encode), "GB/s");
    report->Set(prefix + ".count_gbps", Gbps(bytes, count), "GB/s");
    report->Set(prefix + ".fold_gbps", Gbps(bytes, fold), "GB/s");
  }
}

}  // namespace crackbench
