#include "exec/thread_pool.h"

#include <atomic>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/env_util.h"
#include "obs/clock.h"

namespace fm::exec {

namespace {

// Starts the calling worker on the `index`-th CPU (mod the count) of the
// process's affinity mask, then widens it back to the whole mask: a
// placement, not a pin. A kernel that does not load-balance the process's
// cpuset (sched_load_balance=0, isolcpus) never migrates a thread off the
// CPU it was created on, so without this every worker shares its creator's
// CPU and the pool runs serially; elsewhere the scheduler stays free to move
// the worker. Scheduling only — no result depends on where a task runs.
void PlaceOnCpu(size_t index) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  int skip = static_cast<int>(index % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
#else
  (void)index;
#endif
}

// The pool the current thread works for, if any.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  shards_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->cv.NotifyAll();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Shard& shard =
      *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size()];
  {
    MutexLock lock(shard.mutex);
    shard.tasks.push_back(std::move(task));
  }
  submitted_.Increment();
  shard.cv.NotifyOne();
}

bool ThreadPool::InWorkerThread() { return tls_worker_pool != nullptr; }

void ThreadPool::WorkerLoop(size_t shard_index) {
  PlaceOnCpu(shard_index);
  tls_worker_pool = this;
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(shard.mutex);
      while (shard.tasks.empty() &&
             !stopping_.load(std::memory_order_acquire)) {
        shard.cv.Wait(shard.mutex);
      }
      if (shard.tasks.empty()) return;  // stopping and drained
      task = std::move(shard.tasks.front());
      shard.tasks.pop_front();
    }
    const int64_t start = obs::MonotonicClock::Default()->NowNanos();
    task();
    task_nanos_.Observe(obs::MonotonicClock::Default()->NowNanos() - start);
    completed_.Increment();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* const pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

size_t ThreadPool::DefaultThreadCount() {
  const int64_t requested = GetEnvInt64("FM_THREADS", 0);
  if (requested > 0) {
    return static_cast<size_t>(requested > 256 ? 256 : requested);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<size_t>(hardware);
}

}  // namespace fm::exec
