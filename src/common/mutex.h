// Annotated lock primitives: thin wrappers over <mutex> that carry the
// clang thread-safety capability attributes libstdc++'s std::mutex lacks,
// so a `-Wthread-safety` build can prove lock discipline at compile time.
//
// Repo-wide convention (enforced by the alicoco_lint lock-discipline
// rule): concurrent code holds alicoco::Mutex / alicoco::CondVar members,
// never raw std::mutex / std::condition_variable, and every member a mutex
// protects is annotated ALICOCO_GUARDED_BY(mu_).
//
//   class Counter {
//    public:
//     void Add(int d) { MutexLock lock(mu_); n_ += d; }
//    private:
//     Mutex mu_;
//     int n_ ALICOCO_GUARDED_BY(mu_) = 0;
//   };
//
// Instrumented mode (the profiling tier, DESIGN.md §6): a mutex
// constructed with a name participates in lock-contention accounting —
// when a LockStatsSink is installed (common/lock_stats.h), every named
// lock() reports its acquisition wait, every unlock() its hold time, and
// CondVar::Wait its blocked time, keyed by the name:
//
//   Mutex mu_{"pipeline.worker_pool.mu"};   // name: a string literal with
//                                           // static storage duration
//                                           // (lint: mutex-name-literal)
//
// The whole mode compiles away when ALICOCO_LOCK_STATS is 0 (CMake option
// ALICOCO_LOCK_STATS, default ON); with it compiled in but no sink
// installed, a named mutex pays one atomic load per lock() and an unnamed
// one a single pointer check. perfbench's timing pass runs in that
// disabled mode, so its clean timings include the cost.

#ifndef ALICOCO_COMMON_MUTEX_H_
#define ALICOCO_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/lock_stats.h"
#include "common/thread_annotations.h"

// The build system defines ALICOCO_LOCK_STATS globally (0 or 1) so every
// translation unit agrees on the Mutex layout; the fallback here matches
// the CMake default for stray compiles outside the build.
#ifndef ALICOCO_LOCK_STATS
#define ALICOCO_LOCK_STATS 1
#endif

namespace alicoco {

/// Exclusive mutex; satisfies Lockable, so it composes with the standard
/// library, but prefer MutexLock for scoped acquisition.
class ALICOCO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Named (instrumented) mutex. `name` must outlive the mutex — pass a
  /// string literal. Never name a mutex that a LockStatsSink itself can
  /// lock from its callbacks, or recording recurses into the sink.
  explicit Mutex(const char* name) {
#if ALICOCO_LOCK_STATS
    name_ = name;
#else
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ALICOCO_ACQUIRE() {
#if ALICOCO_LOCK_STATS
    if (name_ != nullptr) {
      if (LockStatsSink* sink = GetLockStatsSink()) {
        if (mu_.try_lock()) {
          sink->OnAcquire(name_, 0, false);
        } else {
          const uint64_t wait_start_us = LockStatsNowUs();
          mu_.lock();
          sink->OnAcquire(name_, LockStatsNowUs() - wait_start_us, true);
        }
        hold_start_us_ = LockStatsNowUs();
        return;
      }
    }
#endif
    mu_.lock();
  }

  void unlock() ALICOCO_RELEASE() {
#if ALICOCO_LOCK_STATS
    if (hold_start_us_ != 0) {
      const char* name = name_;
      const uint64_t hold_us = LockStatsNowUs() - hold_start_us_;
      hold_start_us_ = 0;
      mu_.unlock();
      // Recorded after the release so the sink's own cost never extends
      // the critical section it is measuring.
      if (LockStatsSink* sink = GetLockStatsSink()) {
        sink->OnRelease(name, hold_us);
      }
      return;
    }
#endif
    mu_.unlock();
  }

  bool try_lock() ALICOCO_TRY_ACQUIRE(true) {
#if ALICOCO_LOCK_STATS
    if (name_ != nullptr) {
      if (LockStatsSink* sink = GetLockStatsSink()) {
        if (!mu_.try_lock()) return false;
        sink->OnAcquire(name_, 0, false);
        hold_start_us_ = LockStatsNowUs();
        return true;
      }
    }
#endif
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#if ALICOCO_LOCK_STATS
  const char* name_ = nullptr;    ///< nullptr = uninstrumented
  uint64_t hold_start_us_ = 0;    ///< written under mu_; 0 = untracked hold
#endif
};

/// RAII holder; the scoped-capability attribute lets the analysis track
/// the critical section's extent.
class ALICOCO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ALICOCO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ALICOCO_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. Wait releases and reacquires `mu`
/// internally; callers keep the usual while-predicate loop, which the
/// analysis sees as one uninterrupted critical section. On a named mutex
/// the blocked time is reported to the LockStatsSink as a cv wait, and
/// the hold clock restarts at reacquisition so waiting never counts as
/// holding.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) ALICOCO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
#if ALICOCO_LOCK_STATS
    if (mu.name_ != nullptr) {
      LockStatsSink* sink = GetLockStatsSink();
      if (sink != nullptr) {
        const uint64_t wait_start_us = LockStatsNowUs();
        if (mu.hold_start_us_ != 0) {
          sink->OnRelease(mu.name_, wait_start_us - mu.hold_start_us_);
        }
        mu.hold_start_us_ = 0;
        cv_.wait(lock);
        const uint64_t reacquired_us = LockStatsNowUs();
        sink->OnCondVarWait(mu.name_, reacquired_us - wait_start_us);
        mu.hold_start_us_ = reacquired_us;
        lock.release();
        return;
      }
      mu.hold_start_us_ = 0;  // hold tracking ends at the wait
    }
#endif
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace alicoco

#endif  // ALICOCO_COMMON_MUTEX_H_
