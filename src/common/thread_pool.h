#ifndef CRACKDB_COMMON_THREAD_POOL_H_
#define CRACKDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace crackdb {

/// A fixed-size worker pool with *per-worker task queues* and an affinity
/// key: `Submit(affinity, fn)` enqueues onto worker `affinity % n`, so all
/// tasks sharing an affinity key (the sharded layer uses the partition
/// index) run on the same worker whenever it keeps up — a partition's
/// cracked structures stay core-/cache-local across queries. Idle workers
/// steal from the back of other queues as a fallback, so a hot key never
/// serializes the whole pool; under load affinity degrades gracefully
/// into plain work sharing.
///
/// Tasks must not *block* on the pool themselves: with all workers waiting,
/// nobody would be left to run the nested work. Enqueueing from a worker
/// (fire-and-forget Submit) is fine; the blocking entry point ParallelFor
/// enforces the rule with a thread-local "in worker" check and aborts with
/// a clear message instead of deadlocking. (The check is one thread_local
/// compare, so it is kept in all build types, not just debug.) The
/// Database facade only blocks from client threads.
class ThreadPool {
 public:
  /// Affinity value meaning "any worker": the task is spread round-robin.
  static constexpr size_t kNoAffinity = static_cast<size_t>(-1);

  /// Spawns `num_threads` workers. 0 is allowed and means "no workers":
  /// Submit still works (the task runs inline in the calling thread), which
  /// gives single-threaded builds and tests one code path.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` on no particular worker; the future becomes ready when
  /// it has run. Exceptions propagate through the future.
  std::future<void> Submit(std::function<void()> fn);

  /// Enqueues `fn` on worker `affinity % num_threads()` (its *home*
  /// worker). The home worker drains its queue FIFO; other workers steal
  /// the newest task from the back only when their own queues are empty.
  std::future<void> Submit(size_t affinity, std::function<void()> fn);

  /// Runs fn(0..n-1), distributing across the workers with affinity i; the
  /// calling thread executes the first chunk itself so a saturated pool
  /// degrades to inline execution instead of deadlocking the caller.
  /// Returns when all n are done. Calling this from a worker of the same
  /// pool aborts (see class comment).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// True when the calling thread is one of this pool's workers. Blocking
  /// callers (the sharded batch scheduler) use this to fall back to inline
  /// execution instead of waiting on the pool from inside it.
  bool InWorkerThread() const;

 private:
  /// A queued task plus its enqueue timestamp, so the worker that runs it
  /// can publish queue-wait time to the metrics registry.
  struct QueuedTask {
    std::packaged_task<void()> task;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop(size_t worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  /// queues_[i] is worker i's queue; all guarded by mu_. pending_ counts
  /// tasks across every queue so workers have one wait predicate.
  std::vector<std::deque<QueuedTask>> queues_;
  size_t pending_ = 0;
  std::atomic<size_t> round_robin_{0};
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  /// Per-worker `pool_worker_tasks_total{worker="i"}` family, resolved
  /// once at construction so the hot path is one relaxed add.
  std::vector<obs::Counter*> worker_tasks_;
};

}  // namespace crackdb

#endif  // CRACKDB_COMMON_THREAD_POOL_H_
