// Tests for the exec/ subsystem: thread-pool correctness (completion,
// nested submission, exception propagation) and the determinism contract of
// ParallelFor/ParallelMap — identical results for 1, 2 and 8 threads — and
// the dispatch grain that decides when a region runs inline.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace fm::exec {
namespace {

// Simple completion latch for fire-and-forget Submit tests.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return remaining_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int remaining_;
};

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> executed{0};
  Latch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      executed.fetch_add(1, std::memory_order_relaxed);
      latch.CountDown();
    });
  }
  ASSERT_TRUE(latch.WaitFor(std::chrono::seconds(30)));
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> executed{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins after the queues drain.
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, NestedSubmissionCompletesOnSingleThread) {
  // A task submitting follow-up work must not deadlock even when the pool
  // has a single worker: nested tasks go to the submitting worker's shard.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  Latch latch(3);
  pool.Submit([&] {
    executed.fetch_add(1);
    pool.Submit([&] {
      executed.fetch_add(1);
      pool.Submit([&] {
        executed.fetch_add(1);
        latch.CountDown();
      });
      latch.CountDown();
    });
    latch.CountDown();
  });
  ASSERT_TRUE(latch.WaitFor(std::chrono::seconds(30)));
  EXPECT_EQ(executed.load(), 3);
}

TEST(ThreadPoolTest, InWorkerThreadIsVisibleInsideTasks) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  std::atomic<bool> inside{false};
  Latch latch(1);
  pool.Submit([&] {
    inside.store(ThreadPool::InWorkerThread());
    latch.CountDown();
  });
  ASSERT_TRUE(latch.WaitFor(std::chrono::seconds(30)));
  EXPECT_TRUE(inside.load());
}

#if defined(__linux__)
TEST(ThreadPoolTest, WorkersArePlacedNotPinned) {
  // Placement spreads the workers over CPUs at start-up but leaves each
  // worker's affinity mask as wide as the process's.
  cpu_set_t process_mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(process_mask), &process_mask), 0);
  ThreadPool pool(4);
  std::vector<int> equal(4, 0);
  ParallelFor(
      4,
      [&](size_t i) {
        cpu_set_t worker_mask;
        equal[i] =
            sched_getaffinity(0, sizeof(worker_mask), &worker_mask) == 0 &&
            CPU_EQUAL(&worker_mask, &process_mask);
      },
      pool);
  for (size_t i = 0; i < equal.size(); ++i) {
    EXPECT_EQ(equal[i], 1) << "task " << i;
  }
}
#endif

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(
      kN, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      pool);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Per-index cost estimates that put a 4-thread region on each path: far
// below the grain (inline on the caller) and the default coarse estimate
// (pooled).
constexpr double kInlineCost = 1.0;
constexpr double kPooledCost = kCoarseIndexNanos;

TEST(ParallelForTest, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  // Two indices throw; the rethrown exception must be index 3's regardless
  // of which worker reached it first, or whether any worker ran at all.
  for (const double cost : {kPooledCost, kInlineCost}) {
    try {
      ParallelFor(
          16,
          [&](size_t i) {
            if (i == 3 || i == 11) {
              throw std::runtime_error("boom at " + std::to_string(i));
            }
          },
          pool, cost);
      FAIL() << "expected ParallelFor to rethrow (cost=" << cost << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3") << "cost=" << cost;
    }
  }
}

TEST(ParallelForTest, KeepsRunningRemainingIndicesAfterAThrow) {
  // Same contract on the pooled path and both inline paths (1 thread, and
  // below the grain): every index still runs, then the lowest-index
  // exception is rethrown.
  for (size_t threads : {1u, 4u}) {
    for (const double cost : {kPooledCost, kInlineCost}) {
      ThreadPool pool(threads);
      constexpr size_t kN = 64;
      std::vector<std::atomic<int>> hits(kN);
      try {
        ParallelFor(
            kN,
            [&](size_t i) {
              hits[i].fetch_add(1);
              if (i % 7 == 0) {
                throw std::runtime_error("x at " + std::to_string(i));
              }
            },
            pool, cost);
        FAIL() << "expected ParallelFor to rethrow (threads=" << threads
               << " cost=" << cost << ")";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "x at 0")
            << "threads=" << threads << " cost=" << cost;
      }
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads
                                     << " cost=" << cost << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, NestedParallelRegionsRunInline) {
  // Every outer/inner combination of the two paths: a nested region on a
  // worker runs inline whatever its estimate, and nothing deadlocks.
  for (const double outer_cost : {kPooledCost, kInlineCost}) {
    for (const double inner_cost : {kPooledCost, kInlineCost}) {
      ThreadPool pool(2);
      std::vector<std::atomic<int>> hits(64);
      ParallelFor(
          8,
          [&](size_t outer) {
            ParallelFor(
                8,
                [&](size_t inner) {
                  hits[outer * 8 + inner].fetch_add(
                      1, std::memory_order_relaxed);
                },
                pool, inner_cost);
          },
          pool, outer_cost);
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "outer=" << outer_cost
                                     << " inner=" << inner_cost << " index "
                                     << i;
      }
    }
  }
}

// --------------------------------------------------------------------------
// The grain policy
// --------------------------------------------------------------------------

TEST(GrainTest, TaskCountIsWorkOverGrainCappedByThreadsAndIndices) {
  // No estimate: today's coarse shape, min(n, threads).
  EXPECT_EQ(TaskCount(1, 4, kCoarseIndexNanos), 1u);
  EXPECT_EQ(TaskCount(2, 4, kCoarseIndexNanos), 2u);
  EXPECT_EQ(TaskCount(100, 4, kCoarseIndexNanos), 4u);
  EXPECT_EQ(TaskCount(100, 1, kCoarseIndexNanos), 1u);
  // An estimate: ⌊n · cost / kMinTaskNanos⌋, capped.
  EXPECT_EQ(TaskCount(7, 4, 100.0), 0u);
  EXPECT_EQ(TaskCount(10, 4, kMinTaskNanos / 4), 2u);
  EXPECT_EQ(TaskCount(10, 4, kMinTaskNanos / 3), 3u);
  EXPECT_EQ(TaskCount(1000, 4, kMinTaskNanos), 4u);
  EXPECT_EQ(TaskCount(3, 8, 10 * kMinTaskNanos), 3u);
  // Free or nonsensical estimates run inline.
  EXPECT_EQ(TaskCount(1000, 4, 0.0), 0u);
  EXPECT_EQ(TaskCount(1000, 4, -5.0), 0u);
  EXPECT_EQ(TaskCount(1000, 4, std::nan("")), 0u);
  EXPECT_EQ(TaskCount(0, 4, kCoarseIndexNanos), 0u);
}

TEST(GrainTest, BelowGrainRunsInlineAndSubmitsNoTask) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(7);
  const uint64_t before = pool.tasks_submitted();
  // Seven ~100 ns predicts: a serving run far below the grain.
  ParallelFor(
      ran_on.size(), [&](size_t i) { ran_on[i] = std::this_thread::get_id(); },
      pool, 100.0);
  EXPECT_EQ(pool.tasks_submitted() - before, 0u);
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
}

TEST(GrainTest, AboveGrainSubmitsAtMostOneTaskPerThread) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  uint64_t before = pool.tasks_submitted();
  ParallelFor(
      kN, [&](size_t i) { hits[i].fetch_add(1); }, pool, kMinTaskNanos);
  EXPECT_EQ(pool.tasks_submitted() - before, pool.num_threads());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;

  // Just over two grains of work: two tasks, not four.
  before = pool.tasks_submitted();
  ParallelFor(
      10, [&](size_t i) { hits[i].fetch_add(1); }, pool, kMinTaskNanos / 4);
  EXPECT_EQ(pool.tasks_submitted() - before, 2u);
  for (size_t i = 0; i < 10; ++i) ASSERT_EQ(hits[i].load(), 2) << i;
}

TEST(GrainTest, NoEstimateStaysPooled) {
  ThreadPool pool(4);
  uint64_t before = pool.tasks_submitted();
  ParallelFor(2, [](size_t) {}, pool);
  EXPECT_EQ(pool.tasks_submitted() - before, 2u);
  before = pool.tasks_submitted();
  const auto out = ParallelMap(20, [](size_t i) { return i; }, pool);
  EXPECT_EQ(pool.tasks_submitted() - before, 4u);
  EXPECT_EQ(out.back(), 19u);
  // A single index never needs the pool.
  before = pool.tasks_submitted();
  ParallelFor(1, [](size_t) {}, pool);
  EXPECT_EQ(pool.tasks_submitted() - before, 0u);
}

// The engine's determinism contract: ParallelMap with per-index substreams
// returns bit-identical results no matter the thread count.
TEST(ParallelMapTest, DeterministicAcrossThreadCounts) {
  constexpr uint64_t kSeed = 0xFEEDFACE;
  constexpr size_t kN = 128;
  const auto task = [&](size_t i) {
    Rng rng(Rng::Fork(kSeed, i));
    // A mix of draws like a real training task would make.
    double acc = 0.0;
    for (int k = 0; k < 10; ++k) acc += rng.Laplace(1.0) + rng.Gaussian();
    return acc;
  };

  std::vector<double> serial;
  serial.reserve(kN);
  for (size_t i = 0; i < kN; ++i) serial.push_back(task(i));

  // Costs that run the region inline everywhere, split it into at most 8
  // tasks, and leave it at the coarse default.
  for (const double cost :
       {kInlineCost, kMinTaskNanos / 16, kCoarseIndexNanos}) {
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const auto parallel = ParallelMap(kN, task, pool, cost);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < kN; ++i) {
        // Bit-identical, not approximately equal.
        ASSERT_EQ(parallel[i], serial[i])
            << "threads=" << threads << " cost=" << cost << " index=" << i;
      }
    }
  }
}

TEST(ParallelMapTest, ReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto squares =
      ParallelMap(32, [](size_t i) { return i * i; }, pool);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMapTest, SupportsNonDefaultConstructibleResults) {
  struct NoDefault {
    explicit NoDefault(size_t v) : value(v) {}
    size_t value;
  };
  ThreadPool pool(2);
  const auto out =
      ParallelMap(16, [](size_t i) { return NoDefault(i + 1); }, pool);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, i + 1);
  }
}

TEST(RngForkTest, SubstreamsAreStableAndDistinct) {
  // Stable: same (seed, task) → same substream seed.
  EXPECT_EQ(Rng::Fork(42, 7), Rng::Fork(42, 7));
  // Distinct across tasks and disjoint from the DeriveSeed family.
  EXPECT_NE(Rng::Fork(42, 7), Rng::Fork(42, 8));
  EXPECT_NE(Rng::Fork(42, 7), DeriveSeed(42, 7));
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv) {
  // FM_THREADS drives the global pool size; exercise the parser directly.
  ASSERT_EQ(setenv("FM_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("FM_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(unsetenv("FM_THREADS"), 0);
}

}  // namespace
}  // namespace fm::exec
