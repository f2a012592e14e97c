#ifndef FM_COMMON_THREAD_ANNOTATIONS_H_
#define FM_COMMON_THREAD_ANNOTATIONS_H_

/// \file thread_annotations.h
/// Clang thread-safety annotations and the lock primitives the repo builds
/// on. Every mutex in src/ is an fm::Mutex, every scoped acquisition an
/// fm::MutexLock, and every condition wait an fm::CondVar — raw std::mutex
/// is banned outside this header (tools/fm_lint.py, rule fm-raw-mutex).
///
/// Under Clang the wrappers carry capability attributes, so the lock
/// discipline is checked at compile time (-Werror=thread-safety in the
/// static-analysis CI job): a `FM_GUARDED_BY(mu)` member read without `mu`
/// held, a `*Locked` helper called outside its `FM_REQUIRES(...)` mutex, or
/// a lock-order inversion against `FM_ACQUIRED_BEFORE` is a build error,
/// not a TSan-someday finding. Under GCC (the default local toolchain) all
/// macros expand to nothing and the wrappers behave exactly like
/// std::mutex / std::lock_guard, so the two builds share one source of
/// truth. See docs/STATIC_ANALYSIS.md.

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define FM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FM_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Marks a class as a capability (lockable resource).
#define FM_CAPABILITY(x) FM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime equals a critical section.
#define FM_SCOPED_CAPABILITY FM_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define FM_GUARDED_BY(x) FM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by `x` (the pointer itself is
/// not).
#define FM_PT_GUARDED_BY(x) FM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only with the listed capabilities already held; the
/// caller keeps holding them. By repo convention every function annotated
/// with this is named `*Locked` and vice versa (fm-locked-annotation).
#define FM_REQUIRES(...) \
  FM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the listed capabilities and holds them on return.
#define FM_ACQUIRE(...) \
  FM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases capabilities held on entry.
#define FM_RELEASE(...) \
  FM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capabilities iff it returns `ret`.
#define FM_TRY_ACQUIRE(ret, ...) \
  FM_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Zero-argument spellings for methods of a capability/scoped class acting
/// on their own capability. Separate macros — not empty __VA_ARGS__, which
/// C++17 -Wpedantic rejects.
#define FM_ACQUIRE_SELF() FM_THREAD_ANNOTATION(acquire_capability())
#define FM_RELEASE_SELF() FM_THREAD_ANNOTATION(release_capability())
#define FM_TRY_ACQUIRE_SELF(ret) \
  FM_THREAD_ANNOTATION(try_acquire_capability(ret))

/// Function that must NOT be called with the listed capabilities held
/// (deadlock prevention for self-locking entry points).
#define FM_EXCLUDES(...) FM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-order declaration on a mutex member: this mutex is always acquired
/// before `...` (another mutex member of the same object).
#define FM_ACQUIRED_BEFORE(...) \
  FM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FM_ACQUIRED_AFTER(...) \
  FM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Return value is a reference to a capability-protected member; callers
/// must hold the capability to dereference it.
#define FM_RETURN_CAPABILITY(x) FM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for functions the analysis cannot model (each use carries a
/// comment explaining why it is benign — the satellite-2 contract).
#define FM_NO_THREAD_SAFETY_ANALYSIS \
  FM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fm {

/// An annotated std::mutex. Lower-case lock()/unlock()/try_lock() keep it
/// BasicLockable, so std::condition_variable_any (via fm::CondVar) and
/// generic lock algorithms still apply.
class FM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FM_ACQUIRE_SELF() { mutex_.lock(); }
  void unlock() FM_RELEASE_SELF() { mutex_.unlock(); }
  bool try_lock() FM_TRY_ACQUIRE_SELF(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII critical section over an fm::Mutex (the std::lock_guard of this
/// repo). Non-movable: a critical section is a scope, not a value.
class FM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() FM_RELEASE_SELF() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over fm::Mutex. Wait releases and reacquires the
/// mutex, so callers hold it across the call (FM_REQUIRES) and re-test
/// their predicate in a `while` loop — there is deliberately no
/// predicate-lambda overload, because the explicit loop is what the
/// thread-safety analysis can see through.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, blocks until notified (spurious wakeups
  /// allowed), and reacquires `mutex` before returning.
  void Wait(Mutex& mutex) FM_REQUIRES(mutex) { cv_.wait(mutex); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace fm

#endif  // FM_COMMON_THREAD_ANNOTATIONS_H_
