// The workload interface the crackbench runner drives, and the three
// workloads (qi-sideways, agg-pushdown, serve-rw). Every call into the
// library goes through the public Database surface: fluent Execute and
// ExecuteBatch, Insert/Delete, RegisterSharded, MaybeRepartition and Stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/trace.h"

namespace crackbench {

/// What one query returned, for the per-layer attribution.
struct QueryStat {
  std::shared_ptr<const crackdb::obs::QueryTrace> trace;
  crackdb::CostBreakdown cost;
  size_t partitions_touched = 0;
  size_t partitions_pruned = 0;
};

/// One op of a client's stream: one public call, timed around the call. A
/// query op may run a batch; each of its queries waited `micros`.
struct OpOutcome {
  enum class Kind { kQuery, kWrite };
  Kind kind = Kind::kQuery;
  double micros = 0.0;
  /// Queries or writes the call issued, and those that returned an
  /// Expected error or were refused (a delete of a live row that returns
  /// false).
  size_t attempted = 1;
  size_t failed = 0;
  /// kQuery: one entry per query that succeeded.
  std::vector<QueryStat> queries;
};

/// Oracle tally: answers compared and answers that differed.
struct CheckTally {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

/// Footprint and layer state read after the measured window.
struct Facts {
  double column_bytes = 0.0;     // base columns in their current layout
  double raw_column_bytes = 0.0; // the same columns uncompressed
  double aux_bytes = 0.0;        // sideways maps + partial chunks
  double live_rows = 0.0;
  double log_entries = 0.0;      // retained update-log entries
  double adaptive_actions = 0.0; // splits + merges
  double partitions_final = 0.0;
  std::vector<double> tick_micros;  // timed MaybeRepartition calls
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads (each issues its next op when the last
  /// one returns).
  virtual size_t clients() const = 0;
  /// Ops per client that make up the warmup on a fresh table.
  virtual size_t warmup_ops() const = 0;
  /// Nonzero for an epoch workload (one client): the window restarts on a
  /// fresh database every epoch_ops() ops, the first warmup_ops() of them
  /// a warmup, and the figures are medians over the completed epochs.
  virtual size_t epoch_ops() const { return 0; }
  /// True when the database runs a fan-out pool (pool metrics exist).
  virtual bool pooled() const { return false; }
  /// Rows of one partition at load time (sizes the kernel probe inputs).
  virtual size_t partition_rows() const = 0;

  /// Generates the source relations from the seed (once per process).
  virtual void BuildSource(uint64_t seed) = 0;
  /// Drops any previous database and registers fresh tables; returns the
  /// seconds spent in RegisterSharded (compress-on-load included).
  virtual double Setup() = 0;
  /// Rewinds every client's op stream to its start.
  virtual void ResetStreams() = 0;
  /// Issues client `client`'s next op. `traced` asks for a span timeline
  /// (queries only); `sample` asks the workload to keep the answer for
  /// the oracle check. Called concurrently for distinct clients.
  virtual OpOutcome RunOp(size_t client, bool traced, bool sample) = 0;

  /// Layer state after the window, every client stopped.
  virtual Facts Collect() = 0;
  /// Compares sampled answers (and the final state) against the oracle.
  /// `corrupt` perturbs one oracle answer on purpose.
  virtual CheckTally Verify(bool corrupt) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

}  // namespace crackbench
