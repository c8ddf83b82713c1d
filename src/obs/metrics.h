// First-party metrics primitives: monotonic counters, gauges, and
// log-bucketed latency histograms, collected in a thread-safe Registry.
//
// The paper's production system "monitors dynamic-edge quality regularly"
// (AliCoCo Section 6); this layer is the repo's equivalent: every pipeline
// stage, serving path, and worker pool reports through one registry that
// the exporter (obs/exporters.h) turns into Prometheus text. Instruments
// returned by a Registry are owned by it and remain valid for its
// lifetime, so hot paths hold the pointer and never re-resolve the name.
//
//   obs::Registry registry;
//   obs::Counter* mined = registry.GetCounter("pipeline.mining.accepted");
//   mined->Increment();
//   obs::Histogram* lat = registry.GetHistogram("serving.score_latency_us");
//   lat->Observe(ElapsedUs(...));
//   double p99 = lat->Quantile(0.99);

#ifndef ALICOCO_OBS_METRICS_H_
#define ALICOCO_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace alicoco::obs {

/// Monotonically increasing count (events, accepted concepts, edges).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() ALICOCO_EXCLUDES(mu_) { Add(1); }
  void Add(uint64_t delta) ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    value_ += delta;
  }
  uint64_t value() const ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  uint64_t value_ ALICOCO_GUARDED_BY(mu_) = 0;
};

/// Point-in-time level (queue depth, threshold, resident items).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    value_ = value;
    if (value > max_) max_ = value;
  }
  void Add(double delta) ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    value_ += delta;
    if (value_ > max_) max_ = value_;
  }
  double value() const ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }
  /// High-water mark across the gauge's lifetime (peak queue depth).
  double max() const ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return max_;
  }

 private:
  mutable Mutex mu_;
  double value_ ALICOCO_GUARDED_BY(mu_) = 0;
  double max_ ALICOCO_GUARDED_BY(mu_) = 0;
};

/// Log-bucketed distribution, sized for latencies in microseconds but unit
/// agnostic. Bucket 0 holds [0, 1); bucket i >= 1 holds [2^(i-1), 2^i), so
/// 64 buckets cover anything a uint64 of microseconds can express.
/// Quantiles interpolate linearly inside the selected bucket and clamp to
/// the observed min/max, which keeps p50/p95/p99 within one power of two
/// of exact for arbitrary distributions and much closer for smooth ones.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) ALICOCO_EXCLUDES(mu_);

  uint64_t count() const ALICOCO_EXCLUDES(mu_);
  double sum() const ALICOCO_EXCLUDES(mu_);
  /// 0 when empty.
  double min() const ALICOCO_EXCLUDES(mu_);
  double max() const ALICOCO_EXCLUDES(mu_);
  double mean() const ALICOCO_EXCLUDES(mu_);

  /// q in [0, 1] (clamped). Edge cases are explicit sentinels: an empty
  /// histogram returns NaN (there is no distribution to query — never a
  /// fake 0), a single-sample histogram returns that exact sample for
  /// every q (no bucket interpolation), and a NaN q returns NaN.
  double Quantile(double q) const ALICOCO_EXCLUDES(mu_);

  /// Consistent point-in-time copy for exporters.
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };
  Snapshot snapshot() const ALICOCO_EXCLUDES(mu_);

  /// Index of the bucket holding `value` (clamped to the valid range).
  static size_t BucketIndex(double value);
  /// Inclusive-exclusive upper bound of bucket `index` (2^index).
  static double BucketUpperBound(size_t index);

 private:
  static double QuantileFromSnapshot(const Snapshot& snap, double q);

  mutable Mutex mu_;
  std::array<uint64_t, kNumBuckets> buckets_ ALICOCO_GUARDED_BY(mu_){};
  uint64_t count_ ALICOCO_GUARDED_BY(mu_) = 0;
  double sum_ ALICOCO_GUARDED_BY(mu_) = 0;
  double min_ ALICOCO_GUARDED_BY(mu_) = 0;
  double max_ ALICOCO_GUARDED_BY(mu_) = 0;
};

/// Named instrument store. Get* registers on first use and returns the
/// same instrument for the same name thereafter; a name holds exactly one
/// instrument kind (re-requesting it as another kind is a programming
/// error and CHECK-fails). Instruments live as long as the registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name) ALICOCO_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) ALICOCO_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) ALICOCO_EXCLUDES(mu_);

  /// Registered names in sorted order, for exporters.
  std::vector<std::string> CounterNames() const ALICOCO_EXCLUDES(mu_);
  std::vector<std::string> GaugeNames() const ALICOCO_EXCLUDES(mu_);
  std::vector<std::string> HistogramNames() const ALICOCO_EXCLUDES(mu_);

  /// Lookup without registration; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const
      ALICOCO_EXCLUDES(mu_);
  const Gauge* FindGauge(const std::string& name) const ALICOCO_EXCLUDES(mu_);
  const Histogram* FindHistogram(const std::string& name) const
      ALICOCO_EXCLUDES(mu_);

  /// Process-wide registry the serving paths default to.
  static Registry& Default();

 private:
  bool NameTaken(const std::string& name) const ALICOCO_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ALICOCO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      ALICOCO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ALICOCO_GUARDED_BY(mu_);
};

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_METRICS_H_
