// Fixed-size worker pool used by trainers for data-parallel scoring.

#ifndef ALICOCO_COMMON_THREAD_POOL_H_
#define ALICOCO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace alicoco {

/// Instrumentation hook for ThreadPool. Implementations must be
/// thread-safe: callbacks fire concurrently from submitters and workers.
/// obs::ThreadPoolMetrics adapts this onto the metrics registry; the pool
/// itself stays free of any observability dependency.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  /// Queue depth right after a task was enqueued or dequeued.
  virtual void OnQueueDepth(size_t depth) = 0;
  /// One task finished: time spent queued and time spent running.
  virtual void OnTaskDone(double queue_wait_us, double run_us) = 0;
};

/// Simple FIFO thread pool. Submitted tasks must not throw.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  /// Drains the queue, signals shutdown under mu_, and joins the workers;
  /// must not be entered with mu_ held or the workers deadlock on it.
  ~ThreadPool() ALICOCO_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task) ALICOCO_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() ALICOCO_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits. Work is split
  /// into chunks of `grain` consecutive indices, one submitted task per
  /// chunk, so observer accounting (tasks completed, queue depth, run time)
  /// reflects real units of work. grain == 0 picks a default of roughly
  /// eight chunks per worker, which balances stragglers without drowning
  /// the queue in tiny tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t grain = 0) ALICOCO_EXCLUDES(mu_);

  /// Installs an observer (nullptr detaches). The observer must outlive
  /// the pool or be detached first; install it before heavy traffic so
  /// every task is measured.
  void SetObserver(ThreadPoolObserver* observer) {
    observer_.store(observer);
  }

 private:
  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_us = 0;  ///< sampled only while an observer is set
  };

  void WorkerLoop() ALICOCO_EXCLUDES(mu_);

  std::vector<std::thread> workers_;  // written only in the constructor
  std::atomic<ThreadPoolObserver*> observer_{nullptr};
  Mutex mu_;
  std::queue<Task> tasks_ ALICOCO_GUARDED_BY(mu_);
  size_t in_flight_ ALICOCO_GUARDED_BY(mu_) = 0;
  bool shutdown_ ALICOCO_GUARDED_BY(mu_) = false;
  CondVar task_cv_;  // waits on mu_; signalled on Submit and shutdown
  CondVar done_cv_;  // waits on mu_; signalled when in_flight_ hits 0
};

}  // namespace alicoco

#endif  // ALICOCO_COMMON_THREAD_POOL_H_
