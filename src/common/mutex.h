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

#ifndef ALICOCO_COMMON_MUTEX_H_
#define ALICOCO_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace alicoco {

/// Exclusive mutex; satisfies BasicLockable, but prefer MutexLock for
/// scoped acquisition.
class ALICOCO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ALICOCO_ACQUIRE() { mu_.lock(); }
  void unlock() ALICOCO_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
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
/// analysis sees as one uninterrupted critical section.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) ALICOCO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
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
