#ifndef PIMCOMP_COMMON_THREAD_ANNOTATIONS_HPP
#define PIMCOMP_COMMON_THREAD_ANNOTATIONS_HPP

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

/// Clang Thread Safety Analysis support: capability-annotated wrappers over
/// the std synchronization primitives, plus the annotation macros the rest
/// of the codebase attaches to guarded fields and lock-holding functions.
///
/// Under Clang with -Wthread-safety (CMake option PIMCOMP_THREAD_SAFETY=ON,
/// on for the Clang CI leg) the locking protocol becomes a compile-time
/// proof: reading a PIMCOMP_GUARDED_BY(mu) field without holding `mu`, or
/// releasing a Mutex that is not held, is a build error. On every other
/// compiler the macros expand to nothing and the wrappers cost exactly a
/// std::mutex / std::condition_variable.
///
/// Conventions (see docs/concurrency.md for the full rules and the global
/// lock hierarchy):
///  * every mutex in src/ is a pimcomp::Mutex or pimcomp::RecursiveMutex —
///    pimcomp_analyze.py's concurrency checker bans the naked std types
///    outside this header;
///  * every field a mutex protects carries PIMCOMP_GUARDED_BY(that_mutex);
///  * private helpers that expect a lock already held are suffixed
///    `_locked` and annotated PIMCOMP_REQUIRES(that_mutex);
///  * condition waits are explicit while-loops around CondVar::wait so the
///    guarded reads in the predicate stay visible to the analysis (a lambda
///    predicate would be analyzed as a lock-free function and rejected).
#if defined(__clang__)
#define PIMCOMP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PIMCOMP_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define PIMCOMP_CAPABILITY(x) PIMCOMP_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability at construction and
/// releases it at destruction (MutexLock below).
#define PIMCOMP_SCOPED_CAPABILITY PIMCOMP_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: reads and writes require holding the named mutex.
#define PIMCOMP_GUARDED_BY(x) PIMCOMP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field annotation: the pointee (not the pointer) is guarded.
#define PIMCOMP_PT_GUARDED_BY(x) PIMCOMP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotation: the caller must hold the named mutex(es); the
/// function neither acquires nor releases them.
#define PIMCOMP_REQUIRES(...) \
  PIMCOMP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function annotations: the function acquires / releases the capability.
#define PIMCOMP_ACQUIRE(...) \
  PIMCOMP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PIMCOMP_RELEASE(...) \
  PIMCOMP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PIMCOMP_TRY_ACQUIRE(...) \
  PIMCOMP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function annotation: the caller must NOT hold the named mutex(es) —
/// documents (and checks) deadlock-avoidance contracts like "completion
/// callbacks run outside all session locks".
#define PIMCOMP_EXCLUDES(...) \
  PIMCOMP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Tells the analysis a capability is held without acquiring it (runtime
/// assertion points).
#define PIMCOMP_ASSERT_CAPABILITY(x) \
  PIMCOMP_THREAD_ANNOTATION(assert_capability(x))

/// Returns-a-reference-to-a-capability annotation.
#define PIMCOMP_RETURN_CAPABILITY(x) PIMCOMP_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for bodies whose protocol the analysis cannot model (e.g.
/// conditional release tracked by a runtime bool). The *interface*
/// annotations still apply to callers; only the body is exempt. Every use
/// must carry a comment saying why.
#define PIMCOMP_NO_THREAD_SAFETY_ANALYSIS \
  PIMCOMP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pimcomp {

/// The project's thread type. An alias, not a wrapper — semantics are
/// exactly std::thread's. It exists so the concurrency linter can ban raw
/// `std::thread` construction outside this header: thread ownership then
/// only appears where a join discipline is documented. (std::thread::id and
/// std::this_thread stay allowed everywhere; detach() is banned outright.)
using Thread = std::thread;

/// Capability-annotated std::mutex. Prefer MutexLock over manual
/// lock()/unlock(); the manual pair exists for the analysis' sake and for
/// adoption by CondVar.
class PIMCOMP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PIMCOMP_ACQUIRE() { mu_.lock(); }
  void unlock() PIMCOMP_RELEASE() { mu_.unlock(); }
  bool try_lock() PIMCOMP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Capability-annotated std::recursive_mutex, for the one place the design
/// needs re-entrancy: CompilerSession's observer serialization, where an
/// observer callback may legally re-enter the session on its own thread.
class PIMCOMP_CAPABILITY("mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() PIMCOMP_ACQUIRE() { mu_.lock(); }
  void unlock() PIMCOMP_RELEASE() { mu_.unlock(); }

 private:
  std::recursive_mutex mu_;
};

/// RAII scoped lock over Mutex (the std::lock_guard / std::unique_lock
/// replacement). unlock()/lock() support the unlock-work-relock pattern;
/// the destructor only releases when still held.
class PIMCOMP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PIMCOMP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  // The conditional release below is tracked by a runtime bool the static
  // analysis cannot see; the interface annotation is what callers check
  // against.
  ~MutexLock() PIMCOMP_RELEASE() PIMCOMP_NO_THREAD_SAFETY_ANALYSIS {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() PIMCOMP_RELEASE() PIMCOMP_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
    held_ = false;
  }

  void lock() PIMCOMP_ACQUIRE() PIMCOMP_NO_THREAD_SAFETY_ANALYSIS {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// RAII scoped lock over RecursiveMutex.
class PIMCOMP_SCOPED_CAPABILITY RecursiveMutexLock {
 public:
  explicit RecursiveMutexLock(RecursiveMutex& mu) PIMCOMP_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  ~RecursiveMutexLock() PIMCOMP_RELEASE() { mu_.unlock(); }

  RecursiveMutexLock(const RecursiveMutexLock&) = delete;
  RecursiveMutexLock& operator=(const RecursiveMutexLock&) = delete;

 private:
  RecursiveMutex& mu_;
};

/// Condition variable over Mutex. wait()/wait_for() take the *mutex* (not
/// the scoped lock), which is what lets the analysis check REQUIRES: the
/// caller must already hold `mu`, typically through a MutexLock in the
/// enclosing scope. There are deliberately no predicate overloads — write
/// the while-loop at the call site so the predicate's guarded reads are
/// checked in a context that holds the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires `mu` before returning.
  void wait(Mutex& mu) PIMCOMP_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait;
    // release() afterwards hands ownership back to the caller's scoped
    // lock without unlocking.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// wait() with a timeout; returns std::cv_status::timeout on expiry. The
  /// mutex is held again on return either way.
  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& timeout)
      PIMCOMP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_THREAD_ANNOTATIONS_HPP
