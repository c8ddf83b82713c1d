// Dapper-style span tracing for the builder pipeline and serving paths.
//
// A Tracer collects finished SpanRecords; a ScopedSpan is the RAII handle
// that opens a span on construction and records it on destruction.
// Parent/child relationships are tracked per thread: a span started while
// another span from the same tracer is open on the same thread becomes its
// child, so nested pipeline stages show up as a tree in the JSONL export.
//
//   obs::Tracer tracer;
//   {
//     obs::ScopedSpan build(&tracer, "pipeline.build");
//     {
//       obs::ScopedSpan stage(&tracer, "pipeline.mining");
//       stage.AddAttribute("epochs", "2");
//     }  // recorded with build's id as parent
//   }
//
// The clock is injectable (microsecond ticks, monotonic) so exporter
// goldens are deterministic; the default reads steady_clock. A null
// tracer pointer turns every ScopedSpan operation into a no-op, which is
// how uninstrumented pipeline runs stay zero-cost.

#ifndef ALICOCO_OBS_TRACE_H_
#define ALICOCO_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace alicoco::obs {

/// One finished span. Ids are 1-based and unique per tracer; parent_id 0
/// means a root span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  std::string name;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  /// Insertion-ordered key/value annotations (counts, thresholds, ...).
  std::vector<std::pair<std::string, std::string>> attributes;
};

class ScopedSpan;
class Tracer;

/// The tracer of the innermost span open on the calling thread, or null
/// when none is open. Code that takes no tracer (nn::Train) opens its spans
/// in it, so they nest under the caller's and vanish in untraced runs.
Tracer* CurrentTracer();

/// Thread-safe span collector.
class Tracer {
 public:
  /// Monotonic microsecond clock.
  using Clock = std::function<uint64_t()>;

  Tracer();                       ///< steady_clock-backed
  explicit Tracer(Clock clock);   ///< injectable for deterministic tests

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Finished spans in completion order.
  std::vector<SpanRecord> Records() const ALICOCO_EXCLUDES(mu_);
  /// Returns the finished spans and clears the collection.
  std::vector<SpanRecord> Drain() ALICOCO_EXCLUDES(mu_);
  size_t size() const ALICOCO_EXCLUDES(mu_);

  uint64_t NowUs() const { return clock_(); }

  /// Observer invoked (outside the tracer lock, on the closing thread)
  /// for every finished span, in addition to normal collection —
  /// obs_report's `StageCosts` uses this to charge each stage span the
  /// process-wide cost counters' growth. Set before spans start closing
  /// and keep the callee alive until tracing ends; the listener must be
  /// thread-safe.
  using SpanListener = std::function<void(const SpanRecord&)>;
  void SetSpanListener(SpanListener listener);

 private:
  friend class ScopedSpan;

  uint64_t NextId() ALICOCO_EXCLUDES(mu_);
  void Record(SpanRecord record) ALICOCO_EXCLUDES(mu_);

  Clock clock_;
  mutable Mutex mu_;
  std::vector<SpanRecord> finished_ ALICOCO_GUARDED_BY(mu_);
  uint64_t next_id_ ALICOCO_GUARDED_BY(mu_) = 1;
  SpanListener listener_;  // written once before tracing, then read-only
};

/// RAII span handle. Not copyable or movable: a span is opened and closed
/// in one lexical scope, which is what makes the per-thread parent chain
/// well-formed. Tolerates a null tracer (every method is then a no-op).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddAttribute(const std::string& key, const std::string& value);
  void AddAttribute(const std::string& key, uint64_t value);
  void AddAttribute(const std::string& key, double value);

  /// Microseconds since the span opened (0 with a null tracer).
  uint64_t ElapsedUs() const;

  uint64_t id() const { return record_.id; }
  uint64_t parent_id() const { return record_.parent_id; }

 private:
  friend Tracer* CurrentTracer();

  Tracer* tracer_;  // null = disabled
  SpanRecord record_;
  // Next-outer open span on this thread (any tracer), forming the
  // per-thread stack the parent lookup walks; restored as the innermost
  // span on close. Null-tracer spans stay off the stack entirely.
  const ScopedSpan* enclosing_ = nullptr;
};

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_TRACE_H_
