// Lock-contention accounting hook for the instrumented mutex mode.
//
// common/mutex.h's named mutexes report acquisition waits, hold times and
// condition-variable waits through one process-wide LockStatsSink. The
// sink lives here, below obs, so common never depends on the metrics
// registry; obs::prof::LockContentionMetrics is the adapter that turns
// these callbacks into per-named-mutex histograms.
//
// Cost model (see DESIGN.md §6):
//   - compiled out (ALICOCO_LOCK_STATS=0): named mutexes are plain
//     mutexes, zero bytes and zero cycles of instrumentation.
//   - compiled in, no sink installed ("disabled mode"): one non-atomic
//     name check plus one relaxed-ish atomic load per lock(); unnamed
//     mutexes pay only the name check. perfbench's timing pass runs in
//     this mode, so its clean timings include this cost.
//   - sink installed: two clock reads per contended acquisition plus the
//     sink's own recording cost.
//
// Re-entrancy rule: a sink implementation MUST synchronize itself with
// unnamed mutexes only — a named mutex inside a sink would recurse into
// the sink from its own callback.

#ifndef ALICOCO_COMMON_LOCK_STATS_H_
#define ALICOCO_COMMON_LOCK_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace alicoco {

/// Receives lock events from named mutexes. Implementations must be
/// thread-safe; callbacks fire concurrently from every locking thread.
/// OnAcquire runs with the mutex held, OnRelease after it was dropped.
class LockStatsSink {
 public:
  virtual ~LockStatsSink() = default;
  /// The mutex was acquired. `wait_us` is how long lock() blocked
  /// (0 when the fast path won); `contended` says whether it blocked.
  virtual void OnAcquire(const char* name, uint64_t wait_us,
                         bool contended) = 0;
  /// The mutex was released after `hold_us` of an instrumented hold.
  virtual void OnRelease(const char* name, uint64_t hold_us) = 0;
  /// A CondVar::Wait on this mutex returned after `wait_us` blocked
  /// (includes the reacquisition).
  virtual void OnCondVarWait(const char* name, uint64_t wait_us) = 0;
};

namespace internal {
extern std::atomic<LockStatsSink*> g_lock_stats_sink;
}  // namespace internal

/// The currently installed sink, or nullptr. Hot path: one acquire load.
inline LockStatsSink* GetLockStatsSink() {
  return internal::g_lock_stats_sink.load(std::memory_order_acquire);
}

/// Installs `sink` process-wide (nullptr detaches). The sink must outlive
/// every lock operation that can observe it; detach before destroying it.
/// Events already in flight when the sink is swapped may still land on the
/// old sink, which is why ScopedLockStatsSink is the recommended shape.
void InstallLockStatsSink(LockStatsSink* sink);

/// RAII install/detach, for harnesses and tests.
class ScopedLockStatsSink {
 public:
  explicit ScopedLockStatsSink(LockStatsSink* sink) {
    InstallLockStatsSink(sink);
  }
  ~ScopedLockStatsSink() { InstallLockStatsSink(nullptr); }

  ScopedLockStatsSink(const ScopedLockStatsSink&) = delete;
  ScopedLockStatsSink& operator=(const ScopedLockStatsSink&) = delete;
};

/// Monotonic microsecond clock shared by the instrumented lock paths.
inline uint64_t LockStatsNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace alicoco

#endif  // ALICOCO_COMMON_LOCK_STATS_H_
