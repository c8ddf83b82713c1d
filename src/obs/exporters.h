// Export surfaces for the observability layer.
//
// Two wire formats plus a log sink, so one output directory can hold the
// full picture of a run:
//
//   metrics.prom  — Prometheus text exposition of a Registry snapshot
//   trace.jsonl   — one JSON object per finished span, id order
//   build.log     — Logger records routed through obs::FileLogSink
//
// Both exporters are deterministic for a deterministic input: metrics are
// emitted in sorted-name order, spans in id order, and all doubles with
// "%.6g", so golden tests can compare byte-for-byte.

#ifndef ALICOCO_OBS_EXPORTERS_H_
#define ALICOCO_OBS_EXPORTERS_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alicoco::obs {

/// Prometheus text exposition (v0.0.4 style) of everything in `registry`.
/// Metric names are sanitized ('.', '-' -> '_'); counters get a `_total`
/// suffix; histograms expand to `_bucket{le=...}` / `_sum` / `_count`
/// lines plus p50/p95/p99 `{quantile=...}` gauges.
std::string ExportPrometheusText(const Registry& registry);

/// One JSON object per span, sorted by span id:
///   {"span_id":3,"parent_id":1,"name":"pipeline.mining",
///    "start_us":120,"duration_us":980,"attributes":{"epochs":"2"}}
std::string ExportTraceJsonl(const std::vector<SpanRecord>& spans);

/// JSON string-escaping helper shared by the exporters.
std::string JsonEscape(const std::string& s);

/// Thread-safe Logger sink appending canonical lines to one file. Install
/// with Logger::SetSink and keep alive until logging ends (unset the sink
/// before destroying it).
class FileLogSink : public LogSink {
 public:
  /// Truncates `path`; check ok() before installing.
  explicit FileLogSink(const std::string& path);
  ~FileLogSink() override;

  /// IOError when the file could not be opened.
  Status status() const;

  void Write(const LogRecord& record) override ALICOCO_EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::ofstream out_ ALICOCO_GUARDED_BY(mu_);
  Status status_;
};

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_EXPORTERS_H_
