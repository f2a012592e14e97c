#ifndef FM_EXEC_PARALLEL_H_
#define FM_EXEC_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "exec/thread_pool.h"

namespace fm::exec {

/// The dispatch grain: the least estimated work, in nanoseconds, that one
/// pool task must carry. A pooled region pays a submit/wake/wait handoff:
/// on a 4-vCPU VM with a 4-thread pool it measured 20–25 µs back to back,
/// and 100–180 µs once the workers had idled for a millisecond or more
/// (their vCPUs halt). 200 µs per task keeps a 2-task region ahead of
/// running inline even when it pays the idle wake.
inline constexpr double kMinTaskNanos = 200e3;

/// The default per-index cost: no estimate. Read as "every index is coarse",
/// so a region fans out to min(n, threads) tasks — the right shape for CV
/// folds and sweep points, which cost milliseconds each.
inline constexpr double kCoarseIndexNanos =
    std::numeric_limits<double>::infinity();

/// The one grain policy: the number of pool tasks a region of `n` indices
/// costing `index_nanos` each is dealt into on `threads` workers —
/// min(n, threads, ⌊n · index_nanos / kMinTaskNanos⌋). At most one means
/// the region runs inline on the caller. A NaN or negative estimate counts
/// as free.
inline size_t TaskCount(size_t n, size_t threads, double index_nanos) {
  const size_t cap = std::min(n, threads);
  const double by_work =
      static_cast<double>(n) * (index_nanos / kMinTaskNanos);
  if (by_work >= static_cast<double>(cap)) return cap;
  return by_work >= 1.0 ? static_cast<size_t>(by_work) : 0;
}

/// Runs fn(0), ..., fn(n-1) on `pool`, blocking until all complete.
///
/// Determinism contract: fn(i) must derive all randomness from i (e.g.
/// `Rng rng(Rng::Fork(seed, i))`) and write only to slot i of any shared
/// output. Under that contract results are identical for every thread
/// count, including FM_THREADS=1.
///
/// Scheduling: `index_nanos` is the caller's estimate of what one fn(i)
/// costs, and TaskCount(n, pool.num_threads(), index_nanos) decides the
/// shape. At most one task runs the region inline on the caller; otherwise
/// the indices are cut into that many contiguous, near-equal blocks, one
/// per task, so task shapes are fixed up front (no stealing, no dynamic
/// chunking) and neighbouring indices, which often share cache lines of
/// the output, stay on one thread. The estimate changes only where indices
/// run, never what they compute. Nested calls — fn itself calling
/// ParallelFor/ParallelMap — execute the inner region inline on the
/// calling worker, so nesting can never deadlock the pool and outer-level
/// parallelism is preferred.
///
/// Exceptions thrown by fn are captured; after all indices finish the
/// exception with the smallest index is rethrown (again independent of
/// thread count and of the inline/pooled choice).
template <typename Fn>
void ParallelFor(size_t n, Fn&& fn, ThreadPool& pool = ThreadPool::Global(),
                 double index_nanos = kCoarseIndexNanos) {
  if (n == 0) return;
  const size_t num_tasks = TaskCount(n, pool.num_threads(), index_nanos);
  if (num_tasks <= 1 || ThreadPool::InWorkerThread()) {
    // Inline path: same contract as the pooled path — every index runs,
    // and the lowest-index exception is rethrown afterwards.
    std::exception_ptr first_error;
    size_t first_error_index = n;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (i < first_error_index) {
          first_error = std::current_exception();
          first_error_index = i;
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  struct Sync {
    Mutex mutex;
    CondVar cv;
    size_t remaining FM_GUARDED_BY(mutex) = 0;
    // No guard: each task writes only its own index slots, and the
    // remaining-counter handshake above publishes them to the waiter.
    std::vector<std::exception_ptr> errors;  // slot per index
  };
  auto sync = std::make_shared<Sync>();
  {
    MutexLock lock(sync->mutex);
    sync->remaining = num_tasks;
  }
  sync->errors.resize(n);

  const size_t base = n / num_tasks;
  const size_t extra = n % num_tasks;
  for (size_t t = 0; t < num_tasks; ++t) {
    pool.Submit([&fn, sync, t, base, extra] {
      Sync& s = *sync;
      // Task t owns the t-th of num_tasks contiguous, near-equal blocks.
      const size_t begin = t * base + std::min(t, extra);
      const size_t end = begin + base + (t < extra ? 1 : 0);
      for (size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          s.errors[i] = std::current_exception();
        }
      }
      MutexLock lock(s.mutex);
      if (--s.remaining == 0) s.cv.NotifyAll();
    });
  }

  {
    Sync& s = *sync;
    MutexLock lock(s.mutex);
    while (s.remaining != 0) s.cv.Wait(s.mutex);
  }
  for (size_t i = 0; i < n; ++i) {
    if (sync->errors[i]) std::rethrow_exception(sync->errors[i]);
  }
}

/// Maps fn over [0, n) and returns {fn(0), ..., fn(n-1)} in index order.
/// Same determinism, grain, and exception contract as ParallelFor.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, ThreadPool& pool = ThreadPool::Global(),
                 double index_nanos = kCoarseIndexNanos)
    -> std::vector<decltype(fn(size_t{0}))> {
  using R = decltype(fn(size_t{0}));
  // Optional slots, so R need not be default-constructible (Result<T> is
  // not); each task emplaces exactly its own slot.
  std::vector<std::optional<R>> slots(n);
  ParallelFor(
      n, [&](size_t i) { slots[i].emplace(fn(i)); }, pool, index_nanos);
  std::vector<R> results;
  results.reserve(n);
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace fm::exec

#endif  // FM_EXEC_PARALLEL_H_
