#ifndef FM_EXEC_THREAD_POOL_H_
#define FM_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace fm::exec {

/// Fixed-size thread pool with sharded run queues.
///
/// Each worker owns one queue (mutex + deque); Submit round-robins tasks
/// across the shards so unrelated submitters do not contend on a single
/// lock. There is deliberately no work stealing: the experiment engine
/// submits coarse, similarly-sized tasks (one per CV fold / sweep point),
/// so stealing would add synchronization without improving balance, and a
/// fixed task→shard mapping keeps execution easy to reason about.
///
/// Each worker starts on its own CPU of the process's affinity mask (worker
/// i on the i-th allowed CPU, wrapping), then is free to migrate: a kernel
/// that never load-balances the cpuset would otherwise keep every worker on
/// the CPU that created the pool.
///
/// Tasks must not block on other tasks in the same pool: a task submitted
/// from a worker is queued like any other, behind whatever its shard
/// already holds. The parallel helpers in exec/parallel.h keep to this by
/// running nested parallel regions inline on the calling worker (see
/// InWorkerThread).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: pending tasks are abandoned only if never submitted;
  /// the destructor waits for every already-submitted task to finish.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` at the back of the next shard (round-robin).
  /// Thread-safe; may be called from worker threads.
  void Submit(std::function<void()> task);

  /// True when called from one of *any* pool's worker threads. Used by the
  /// parallel helpers to run nested parallel regions inline.
  static bool InWorkerThread();

  /// The process-wide pool, sized by FM_THREADS (default: hardware
  /// concurrency). Constructed on first use; never destroyed (workers are
  /// detached at process exit by the OS, and the pool outlives all users).
  static ThreadPool& Global();

  /// Resolves FM_THREADS: unset/0 → hardware concurrency (min 1), else the
  /// given value clamped to [1, 256].
  static size_t DefaultThreadCount();

  /// Telemetry (observation-only; owned by the pool so readers never
  /// dangle). Tasks accepted by Submit so far.
  uint64_t tasks_submitted() const { return submitted_.Value(); }
  /// Tasks that finished running.
  uint64_t tasks_completed() const { return completed_.Value(); }
  /// Tasks submitted but not yet finished (queued or running).
  uint64_t queue_depth() const {
    const uint64_t submitted = tasks_submitted();
    const uint64_t completed = tasks_completed();
    return submitted > completed ? submitted - completed : 0;
  }
  /// Per-task run-time histogram (nanoseconds, wall clock). Mergeable
  /// into a service registry snapshot via Histogram::CopyFrom.
  const obs::Histogram& task_nanos() const { return task_nanos_; }

 private:
  struct Shard {
    Mutex mutex;
    CondVar cv;
    std::deque<std::function<void()>> tasks FM_GUARDED_BY(mutex);
  };

  void WorkerLoop(size_t shard_index);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> next_shard_{0};
  std::atomic<bool> stopping_{false};
  obs::Counter submitted_;
  obs::Counter completed_;
  obs::Histogram task_nanos_;
};

}  // namespace fm::exec

#endif  // FM_EXEC_THREAD_POOL_H_
