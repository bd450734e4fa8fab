#include "common/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace crackdb {

namespace {

/// Set for the duration of a worker's life, so blocking entry points can
/// tell "called from inside this pool" apart from client threads (and from
/// workers of *other* pools, which are safe to block on).
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// Registry handles resolved once per process (docs/OBSERVABILITY.md).
struct PoolMetrics {
  obs::Counter& steals =
      obs::MetricsRegistry::Global().GetCounter("pool_steals_total");
  obs::Counter& inline_tasks =
      obs::MetricsRegistry::Global().GetCounter("pool_inline_tasks_total");
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::Global().GetGauge("pool_queue_depth");
  obs::Histogram& task_wait =
      obs::MetricsRegistry::Global().GetHistogram("pool_task_wait_micros");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : queues_(num_threads) {
  workers_.reserve(num_threads);
  worker_tasks_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    worker_tasks_.push_back(&obs::MetricsRegistry::Global().GetCounter(
        obs::WithLabel("pool_worker_tasks_total", "worker",
                       static_cast<int64_t>(i))));
  }
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorkerThread() const { return tls_worker_pool == this; }

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  return Submit(kNoAffinity, std::move(fn));
}

std::future<void> ThreadPool::Submit(size_t affinity,
                                     std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    Metrics().inline_tasks.Add();
    task();  // no workers: degrade to inline execution
    return future;
  }
  const size_t home =
      affinity != kNoAffinity
          ? affinity % workers_.size()
          : round_robin_.fetch_add(1, std::memory_order_relaxed) %
                workers_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[home].push_back(
        QueuedTask{std::move(task), std::chrono::steady_clock::now()});
    ++pending_;
    Metrics().queue_depth.Set(static_cast<double>(pending_));
  }
  // Any waiting worker may take it: the home worker FIFO, anyone else by
  // stealing — so one wakeup suffices for progress.
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (InWorkerThread()) {
    std::fprintf(stderr,
                 "ThreadPool::ParallelFor called from a worker of the same "
                 "pool; nested blocking would deadlock once every worker "
                 "waits. Submit fire-and-forget tasks instead, or run the "
                 "loop inline.\n");
    std::abort();
  }
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    futures.push_back(Submit(i, [&fn, i] { fn(i); }));
  }
  // The caller contributes a core instead of idling on the join. Every
  // future is drained before any exception propagates: queued tasks hold
  // references to fn and the caller's frame, so unwinding early would
  // leave workers invoking dangling state.
  std::exception_ptr first_error;
  try {
    fn(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_pool = this;
  const size_t n = queues_.size();
  for (;;) {
    std::packaged_task<void()> task;
    std::chrono::steady_clock::time_point enqueued;
    bool stolen = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || pending_ > 0; });
      if (pending_ == 0) return;  // stopping_ and every queue drained
      std::deque<QueuedTask>& own = queues_[worker_index];
      if (!own.empty()) {
        // Home queue drains FIFO: oldest affine task first.
        task = std::move(own.front().task);
        enqueued = own.front().enqueued;
        own.pop_front();
      } else {
        // Steal the *newest* task from the first non-empty victim: the
        // victim keeps its oldest (likely already cache-resident) work.
        for (size_t k = 1; k < n; ++k) {
          std::deque<QueuedTask>& victim = queues_[(worker_index + k) % n];
          if (!victim.empty()) {
            task = std::move(victim.back().task);
            enqueued = victim.back().enqueued;
            victim.pop_back();
            stolen = true;
            break;
          }
        }
      }
      --pending_;
      Metrics().queue_depth.Set(static_cast<double>(pending_));
    }
    if (obs::MetricsEnabled()) {
      if (stolen) Metrics().steals.Add();
      worker_tasks_[worker_index]->Add();
      Metrics().task_wait.Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - enqueued)
              .count());
    }
    task();
  }
}

}  // namespace crackdb
