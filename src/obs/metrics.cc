#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace alicoco::obs {

void Histogram::Observe(double value) {
  if (value < 0 || !std::isfinite(value)) value = 0;
  size_t bucket = BucketIndex(value);
  MutexLock lock(mu_);
  ++buckets_[bucket];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

uint64_t Histogram::count() const {
  MutexLock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  MutexLock lock(mu_);
  return sum_;
}

double Histogram::min() const {
  MutexLock lock(mu_);
  return min_;
}

double Histogram::max() const {
  MutexLock lock(mu_);
  return max_;
}

double Histogram::mean() const {
  MutexLock lock(mu_);
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

Histogram::Snapshot Histogram::snapshot() const {
  MutexLock lock(mu_);
  Snapshot snap;
  snap.buckets = buckets_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

double Histogram::Quantile(double q) const {
  return QuantileFromSnapshot(snapshot(), q);
}

size_t Histogram::BucketIndex(double value) {
  if (value < 1) return 0;
  // Bucket i >= 1 holds [2^(i-1), 2^i): exponent+1 of the floored log2.
  int exponent = std::ilogb(value);
  size_t index = static_cast<size_t>(exponent) + 1;
  return std::min(index, kNumBuckets - 1);
}

double Histogram::BucketUpperBound(size_t index) {
  return std::ldexp(1.0, static_cast<int>(index));
}

double Histogram::QuantileFromSnapshot(const Snapshot& snap, double q) {
  // Documented sentinels: an empty histogram has no quantiles at all
  // (NaN, so a 0 can never masquerade as "we measured zero latency"),
  // and a single sample IS every quantile — interpolation across its
  // power-of-two bucket would report a value nobody observed.
  if (snap.count == 0) return std::numeric_limits<double>::quiet_NaN();
  if (snap.count == 1) return snap.min;
  if (std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank position, then linear interpolation inside the bucket.
  double rank = q * static_cast<double>(snap.count - 1);
  uint64_t target = static_cast<uint64_t>(rank);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t in_bucket = snap.buckets[i];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket <= target) {
      cumulative += in_bucket;
      continue;
    }
    double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
    double upper = BucketUpperBound(i);
    double within = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(in_bucket);
    double estimate = lower + (upper - lower) * within;
    return std::clamp(estimate, snap.min, snap.max);
  }
  return snap.max;
}

bool Registry::NameTaken(const std::string& name) const {
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  ALICOCO_CHECK(!NameTaken(name))
      << "metric '" << name << "' already registered as another kind";
  return counters_.emplace(name, std::make_unique<Counter>())
      .first->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second.get();
  ALICOCO_CHECK(!NameTaken(name))
      << "metric '" << name << "' already registered as another kind";
  return gauges_.emplace(name, std::make_unique<Gauge>()).first->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second.get();
  ALICOCO_CHECK(!NameTaken(name))
      << "metric '" << name << "' already registered as another kind";
  return histograms_.emplace(name, std::make_unique<Histogram>())
      .first->second.get();
}

namespace {
template <typename Map>
std::vector<std::string> SortedKeys(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, unused] : map) names.push_back(name);
  return names;  // std::map iterates in key order already
}
}  // namespace

std::vector<std::string> Registry::CounterNames() const {
  MutexLock lock(mu_);
  return SortedKeys(counters_);
}

std::vector<std::string> Registry::GaugeNames() const {
  MutexLock lock(mu_);
  return SortedKeys(gauges_);
}

std::vector<std::string> Registry::HistogramNames() const {
  MutexLock lock(mu_);
  return SortedKeys(histograms_);
}

const Counter* Registry::FindCounter(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

}  // namespace alicoco::obs
