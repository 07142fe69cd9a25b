// Annotated concurrency primitives — the static half of the concurrency
// fence (ARCHITECTURE.md §17; companion linter: tools/lint_concurrency.py).
//
// Everything cross-thread in this repo locks through ascoma::Mutex /
// ascoma::LockGuard / ascoma::CondVar, never raw std::mutex (linter rule
// C2).  The wrappers are zero-cost overlays over the std types — same
// size, same codegen — whose only addition is clang's thread-safety
// capability attributes, so `clang++ -Wthread-safety -Werror` proves at
// compile time that every ASCOMA_GUARDED_BY field is only touched with
// its mutex held.  Under gcc (and under clang without the flag) the
// attributes vanish and the wrappers are plain forwarding shims; the
// tree must build identically either way (tests/test_sync.cc pins this).
//
// Usage pattern for new shared state (annotate FIRST, then implement):
//
//   class Board {
//    public:
//     void set(int v) ASCOMA_EXCLUDES(mu_) { LockGuard lk(mu_); v_ = v; }
//    private:
//     mutable ascoma::Mutex mu_;
//     int v_ ASCOMA_GUARDED_BY(mu_) = 0;
//   };
//
// Lock-free state stays std::atomic and is exempt from GUARDED_BY, but
// every load/store/RMW must name an explicit memory_order and carry a
// one-line `// order:` rationale (linter rule C1).

#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

// ---------------------------------------------------------------------------
// The attribute spellings.  Clang-only: gcc has no thread-safety analysis
// and warns on the unknown attributes, so they compile away entirely —
// the same shape as ASCOMA_ANNOTATE in annotate.hh.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define ASCOMA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ASCOMA_THREAD_ANNOTATION(x)
#endif

// On types: this class is a lockable capability / a scoped lock holder.
#define ASCOMA_CAPABILITY(x) ASCOMA_THREAD_ANNOTATION(capability(x))
#define ASCOMA_SCOPED_CAPABILITY ASCOMA_THREAD_ANNOTATION(scoped_lockable)

// On data members: may only be read/written with the named mutex held
// (PT_ variant: the pointee, for pointers into guarded storage).
#define ASCOMA_GUARDED_BY(x) ASCOMA_THREAD_ANNOTATION(guarded_by(x))
#define ASCOMA_PT_GUARDED_BY(x) ASCOMA_THREAD_ANNOTATION(pt_guarded_by(x))

// On mutex members: declared acquisition order (lint rule C3 enforces the
// repo-wide hierarchy; these make it compiler-visible too).
#define ASCOMA_ACQUIRED_BEFORE(...) \
  ASCOMA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ASCOMA_ACQUIRED_AFTER(...) \
  ASCOMA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// On functions: caller must hold / must not hold the named mutexes.
#define ASCOMA_REQUIRES(...) \
  ASCOMA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ASCOMA_EXCLUDES(...) \
  ASCOMA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On functions: this function takes / drops the named mutexes itself.
#define ASCOMA_ACQUIRE(...) \
  ASCOMA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ASCOMA_RELEASE(...) \
  ASCOMA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Escape hatch for code the analysis cannot follow (e.g. adopting a lock
// across an ABI boundary).  Every use needs a comment saying why.
#define ASCOMA_NO_THREAD_SAFETY_ANALYSIS \
  ASCOMA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ascoma {

class CondVar;

// std::mutex with a capability attribute, so ASCOMA_GUARDED_BY(mu_) means
// something to the compiler.  Non-copyable, non-movable, same as std.
class ASCOMA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ASCOMA_ACQUIRE() { mu_.lock(); }
  void unlock() ASCOMA_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;  // wait() re-locks through the wrapped mutex
  std::mutex mu_;
};

// RAII lock for a Mutex; the scoped_capability attribute lets the analysis
// treat construction as acquire and scope exit as release.
class ASCOMA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ASCOMA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() ASCOMA_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to ascoma::Mutex.  The caller holds the mutex
// via LockGuard; wait()/wait_for() adopt the held lock into a
// std::unique_lock for the std wait protocol and release ownership back
// before returning, so the LockGuard's eventual unlock stays balanced.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  // Blocks until notified (or spuriously woken); mu held on entry/return.
  // Prefer this plain form in src/: the wait loop then lives in the caller,
  // where -Wthread-safety can see that guarded fields are read under mu
  // (a predicate lambda is analyzed as a separate function and cannot).
  void wait(Mutex& mu) ASCOMA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership returns to the caller's LockGuard
  }

  // Timed plain wait; std::cv_status::timeout when dur elapsed unnotified.
  template <class Duration>
  std::cv_status wait_for(Mutex& mu, const Duration& dur)
      ASCOMA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lk, dur);
    lk.release();  // ownership returns to the caller's LockGuard
    return status;
  }

  // Blocks until pred() is true; mu is held on entry and on return.
  template <class Pred>
  void wait(Mutex& mu, Pred pred) ASCOMA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();  // ownership returns to the caller's LockGuard
  }

  // Blocks until pred() is true or dur elapsed; returns pred()'s value.
  // Duration is any std::chrono duration (templated so this header stays
  // outside the host-time lint boundary).
  template <class Duration, class Pred>
  bool wait_for(Mutex& mu, const Duration& dur, Pred pred)
      ASCOMA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lk, dur, std::move(pred));
    lk.release();  // ownership returns to the caller's LockGuard
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace ascoma
