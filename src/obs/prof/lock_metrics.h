// LockStatsSink that folds named-mutex contention into the obs Registry.
//
// Every named Mutex/CondVar event becomes per-mutex instruments using the
// exporter's label syntax (`lock.wait_us{mutex=thread_pool.mu}` etc.), so
// contention shows up next to the pipeline's own metrics in the same
// Prometheus scrape / JSON dump. In parallel, process totals accumulate
// in plain atomics for obs_report's per-stage attribution deltas —
// reading a registry histogram takes its lock, reading an atomic does
// not, and the attribution path runs between pipeline stages where we
// want zero perturbation.
//
// Re-entrancy: this sink is called from inside Mutex::lock on *named*
// mutexes, so everything it touches must synchronize only with unnamed
// ones. Registry instruments and the map mutex below are unnamed by
// construction; instrumenting them would recurse (see common/lock_stats.h
// for the rule, and the mutex-name-literal lint rule for enforcement of
// naming style).

#ifndef ALICOCO_OBS_PROF_LOCK_METRICS_H_
#define ALICOCO_OBS_PROF_LOCK_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/lock_stats.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace alicoco::obs::prof {

class LockContentionMetrics : public LockStatsSink {
 public:
  /// `registry` must outlive the sink. Instruments are created lazily on
  /// the first event for each mutex name.
  explicit LockContentionMetrics(Registry* registry);

  void OnAcquire(const char* name, uint64_t wait_us,
                 bool contended) override;
  void OnRelease(const char* name, uint64_t hold_us) override;
  void OnCondVarWait(const char* name, uint64_t wait_us) override;

  /// Process-wide totals across all named mutexes, for cheap deltas.
  uint64_t total_acquires() const {
    return total_acquires_.load(std::memory_order_relaxed);
  }
  uint64_t total_contended() const {
    return total_contended_.load(std::memory_order_relaxed);
  }
  uint64_t total_wait_us() const {
    return total_wait_us_.load(std::memory_order_relaxed);
  }
  uint64_t total_cv_wait_us() const {
    return total_cv_wait_us_.load(std::memory_order_relaxed);
  }

 private:
  struct PerMutex {
    Counter* acquires = nullptr;
    Counter* contended = nullptr;
    Histogram* wait_us = nullptr;
    Histogram* hold_us = nullptr;
    Histogram* cv_wait_us = nullptr;
  };

  const PerMutex& InstrumentsFor(const char* name) ALICOCO_EXCLUDES(mu_);

  Registry* const registry_;
  // Unnamed on purpose — held inside named-mutex lock paths (see above).
  mutable Mutex mu_;
  // Keyed by pointer identity first: mutex names are string literals with
  // static storage, so the common case is one map probe, no string
  // compare, no allocation. The string map handles distinct literals
  // with equal text (several ThreadPools share "thread_pool.mu").
  std::map<const char*, const PerMutex*> by_ptr_ ALICOCO_GUARDED_BY(mu_);
  std::map<std::string, PerMutex> by_name_ ALICOCO_GUARDED_BY(mu_);

  std::atomic<uint64_t> total_acquires_{0};
  std::atomic<uint64_t> total_contended_{0};
  std::atomic<uint64_t> total_wait_us_{0};
  std::atomic<uint64_t> total_cv_wait_us_{0};
};

}  // namespace alicoco::obs::prof

#endif  // ALICOCO_OBS_PROF_LOCK_METRICS_H_
