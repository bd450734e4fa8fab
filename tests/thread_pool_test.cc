// The affine ThreadPool: per-worker queues keyed by affinity, work
// stealing as the fallback, inline degradation with zero workers, and the
// guard that turns "blocking on the pool from inside the pool" from a
// deadlock into an immediate abort.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CRACKDB_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CRACKDB_SANITIZER_BUILD 1
#endif
#endif

namespace crackdb {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTaskAndFuturesComplete) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&ran] { ++ran; }));
  }
  for (std::future<void>& future : futures) future.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, AffineSubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < 64; ++i) {
    // Affinity keys deliberately exceed the worker count: routing is
    // modulo, and every task must still run exactly once.
    futures.push_back(pool.Submit(i * 13, [&ran] { ++ran; }));
  }
  for (std::future<void>& future : futures) future.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, IdleWorkersStealFromALoadedHomeQueue) {
  // Every task targets worker 0's queue, but each blocks until two of
  // them run concurrently — only possible if another worker steals. A
  // bounded wait turns a stealing regression into a failure, not a hang.
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  bool overlapped = false;
  auto task = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (++running >= 2) {
      overlapped = true;
      cv.notify_all();
    } else {
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return overlapped; });
    }
    --running;
  };
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(pool.Submit(0, task));
  for (std::future<void>& future : futures) future.get();
  EXPECT_TRUE(overlapped) << "no two affinity-0 tasks ever overlapped: "
                             "stealing is broken";
}

TEST(ThreadPoolTest, ZeroWorkersRunInlineIncludingAffineSubmit) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&ran] { ++ran; }).get();
  pool.Submit(5, [&ran] { ++ran; }).get();
  pool.ParallelFor(5, [&ran](size_t) { ++ran; });
  EXPECT_EQ(ran, 7);
  EXPECT_FALSE(pool.InWorkerThread());
}

TEST(ThreadPoolTest, InWorkerThreadDistinguishesPoolsAndClients) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.InWorkerThread());
  bool inside_own = false, inside_other = true;
  pool.Submit([&] {
        inside_own = pool.InWorkerThread();
        inside_other = other.InWorkerThread();
      })
      .get();
  EXPECT_TRUE(inside_own);
  EXPECT_FALSE(inside_other);
}

TEST(ThreadPoolTest, NestedFireAndForgetSubmitIsAllowed) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::promise<void> inner_done;
  pool.Submit([&] {
        // Enqueueing from a worker must not deadlock or abort — only
        // *blocking* on the pool is forbidden.
        pool.Submit([&] {
          ++ran;
          inner_done.set_value();
        });
        ++ran;
      })
      .get();
  inner_done.get_future().wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  std::future<void> future =
      pool.Submit(1, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnceWithAffinity) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(101);
  for (auto& c : counts) c = 0;
  pool.ParallelFor(101, [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

// The nested-blocking guard. Death tests re-exec the binary, which is
// incompatible with sanitizer runtimes that object to forking
// multithreaded processes, so the check is asserted in plain builds only.
#ifndef CRACKDB_SANITIZER_BUILD
TEST(ThreadPoolDeathTest, ParallelForFromWorkerAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] {
              pool.ParallelFor(4, [](size_t) {});
            })
            .get();
      },
      "ParallelFor called from a worker");
}
#endif

}  // namespace
}  // namespace crackdb
