// obs_report: one probed run of the construction pipeline, attributed.
//
// Runs the bench world through AliCoCoBuilder::Build with the tracer,
// the metrics registry and the whole profiling tier attached, prints a
// per-stage attribution table and writes the run's picture into --outdir:
//
//   profile.collapsed    collapsed-stack CPU samples (flamegraph input)
//   metrics.prom         Prometheus text exposition of every metric,
//                        including per-named-mutex contention series and
//                        the per-stage attribution gauges
//                        (`attribution_<column>{stage="..."}`)
//   trace.jsonl          every span, including nested stage detail
//   build.log            Logger records routed through obs::FileLogSink
//   crash_flight.jsonl   flight-recorder dump — only on CHECK failure
//                        or fatal signal
//
// Per-stage figures come from the builder's own `pipeline.<stage>` spans:
// a span listener reads process CPU time, the heap counters and the
// named-mutex wait total once just before Build and again each time a
// stage span closes, and charges the growth to that stage; `wall_ms` is
// the span's duration. The probes slow the run they watch, so these times
// are perturbed: they say where a run goes, not how fast a clean one is.
// Clean timing comes from perfbench (BENCHMARK.json). Nothing here gates.
//
// Usage: obs_report [--outdir DIR]
// DIR is created with its parents if it does not exist; when that fails,
// obs_report exits 2 before running anything.

#include <time.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/lock_stats.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "obs/exporters.h"
#include "obs/prof/cpu_profiler.h"
#include "obs/prof/flight_recorder.h"
#include "obs/prof/heap_stats.h"
#include "obs/prof/lock_metrics.h"
#include "pipeline/builder.h"

namespace {

using alicoco::obs::SpanRecord;
using alicoco::obs::prof::HeapCounters;
using alicoco::obs::prof::LockContentionMetrics;

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "obs_report: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

/// Routes one record to both the file sink and the flight recorder.
class TeeLogSink : public alicoco::LogSink {
 public:
  TeeLogSink(alicoco::LogSink* a, alicoco::LogSink* b) : a_(a), b_(b) {}
  void Write(const alicoco::LogRecord& record) override {
    if (a_ != nullptr) a_->Write(record);
    if (b_ != nullptr) b_->Write(record);
  }

 private:
  alicoco::LogSink* const a_;
  alicoco::LogSink* const b_;
};

/// CPU time of the whole process (workers included), in microseconds.
uint64_t ProcessCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ULL;
}

/// One stage's share of the run.
struct StageCost {
  std::string stage;
  double wall_ms = 0;
  double cpu_ms = 0;
  double lock_wait_ms = 0;
  double alloc_mb = 0;
  uint64_t allocs = 0;
};

/// Span listener body that charges each `pipeline.<stage>` span the
/// growth of the process-wide cost counters since the previous reading.
/// Stages run one after another on the thread that calls Build, so the
/// counters' growth between two stage-span closes belongs to the stage
/// that just closed, worker-thread effort included.
class StageCosts {
 public:
  explicit StageCosts(const LockContentionMetrics* locks) : locks_(locks) {}

  /// Takes the reading the first stage is measured from.
  void Start() { last_ = Read(); }

  /// Spans that are not stage spans return before touching any state, so
  /// spans closing on other threads are safe.
  void OnSpan(const SpanRecord& span) {
    if (!IsStageSpan(span.name)) return;
    const Reading now = Read();
    StageCost cost;
    cost.stage = span.name.substr(kPrefix.size());
    cost.wall_ms = static_cast<double>(span.duration_us) / 1e3;
    cost.cpu_ms = static_cast<double>(now.cpu_us - last_.cpu_us) / 1e3;
    cost.lock_wait_ms =
        static_cast<double>(now.lock_wait_us - last_.lock_wait_us) / 1e3;
    cost.alloc_mb =
        static_cast<double>(now.heap.alloc_bytes - last_.heap.alloc_bytes) /
        (1024.0 * 1024.0);
    cost.allocs = now.heap.allocs - last_.heap.allocs;
    stages_.push_back(std::move(cost));
    last_ = now;
  }

  /// Closed stages, in execution order.
  const std::vector<StageCost>& stages() const { return stages_; }

 private:
  static constexpr std::string_view kPrefix = "pipeline.";

  struct Reading {
    uint64_t cpu_us = 0;
    uint64_t lock_wait_us = 0;
    HeapCounters heap;
  };

  /// `pipeline.<stage>`: the root's direct children. The root is
  /// `pipeline.build`; sub-stage spans carry a second dot.
  static bool IsStageSpan(const std::string& name) {
    return name.compare(0, kPrefix.size(), kPrefix) == 0 &&
           name.find('.', kPrefix.size()) == std::string::npos &&
           name != "pipeline.build";
  }

  Reading Read() const {
    Reading r;
    r.cpu_us = ProcessCpuUs();
    r.lock_wait_us = locks_->total_wait_us();
    r.heap = alicoco::obs::prof::HeapCountersNow();
    return r;
  }

  const LockContentionMetrics* const locks_;
  Reading last_;
  std::vector<StageCost> stages_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace alicoco;
  std::string outdir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--outdir" && i + 1 < argc) {
      outdir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: obs_report [--outdir DIR]\n");
      return 2;
    }
  }
  std::error_code dir_error;
  std::filesystem::create_directories(outdir, dir_error);
  if (dir_error) {
    std::fprintf(stderr, "obs_report: cannot create --outdir %s: %s\n",
                 outdir.c_str(), dir_error.message().c_str());
    return 2;
  }

  obs::Tracer tracer;
  obs::Registry registry;

  // Profiling tier: flight recorder first (so crash dumps cover world
  // generation too), then contention sink, heap tracking, CPU profiler.
  obs::prof::FlightRecorder recorder(2048);
  recorder.InstallCrashDump(outdir + "/crash_flight.jsonl");

  obs::prof::LockContentionMetrics lock_metrics(&registry);
  ScopedLockStatsSink scoped_sink(&lock_metrics);

  StageCosts costs(&lock_metrics);
  tracer.SetSpanListener(
      [flight = obs::prof::MakeSpanFlightListener(&recorder),
       &costs](const SpanRecord& span) {
        flight(span);
        costs.OnSpan(span);
      });

  obs::prof::SetHeapTrackingEnabled(true);
  if (!obs::prof::HeapHookLinked()) {
    std::fprintf(stderr,
                 "obs_report: alloc hook not linked; alloc columns will "
                 "read 0\n");
  }

  obs::FileLogSink log_sink(outdir + "/build.log");
  obs::prof::FlightRecorderLogSink flight_log_sink(&recorder);
  TeeLogSink tee(log_sink.status().ok() ? &log_sink : nullptr,
                 &flight_log_sink);
  if (!log_sink.status().ok()) {
    std::fprintf(stderr, "obs_report: %s (logging to stderr)\n",
                 log_sink.status().ToString().c_str());
  }
  Logger::SetSink(&tee);

  std::printf("== obs_report: instrumented pipeline run (bench world) ==\n");
  recorder.Record("obs_report start");
  datagen::World world = [&] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();
  auto resources = [&] {
    bench::StageTimer t("train embeddings + LM");
    return std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
  }();

  pipeline::PipelineConfig cfg;
  cfg.labeler.epochs = 3;
  cfg.mining_epochs = 2;
  cfg.projection.epochs = 3;
  cfg.classifier.epochs = 3;
  cfg.tagger.epochs = 4;
  cfg.matcher.base.epochs = 2;
  cfg.association_candidates = 120;
  cfg.tracer = &tracer;
  cfg.metrics = &registry;

  obs::prof::CpuProfiler cpu_profiler;
  Status prof_status = cpu_profiler.Start(obs::prof::CpuProfilerOptions{});
  if (!prof_status.ok()) {
    std::fprintf(stderr, "obs_report: cpu profiler unavailable: %s\n",
                 prof_status.ToString().c_str());
  }

  pipeline::AliCoCoBuilder builder(&world, resources.get(), cfg);
  pipeline::BuildReport report;
  Result<kg::ConceptNet> net = [&] {
    bench::StageTimer t("instrumented construction pipeline");
    costs.Start();
    return builder.Build(&report);
  }();
  if (cpu_profiler.running()) {
    Status stop = cpu_profiler.Stop();
    if (!stop.ok()) {
      std::fprintf(stderr, "obs_report: profiler stop: %s\n",
                   stop.ToString().c_str());
    }
  }
  Logger::SetSink(nullptr);
  recorder.Record("pipeline done");
  if (!net.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 net.status().ToString().c_str());
    return 1;
  }

  std::vector<obs::SpanRecord> spans = tracer.Records();
  double build_ms = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "pipeline.build") {
      build_ms = static_cast<double>(span.duration_us) / 1e3;
    }
  }

  TablePrinter table("Per-stage attribution (bench world, probed run)");
  table.SetHeader(
      {"stage", "wall_ms", "cpu_ms", "lock_wait_ms", "alloc_mb", "allocs"});
  double cpu_ms = 0;
  for (const StageCost& s : costs.stages()) {
    table.AddRow({s.stage, TablePrinter::Num(s.wall_ms, 1),
                  TablePrinter::Num(s.cpu_ms, 1),
                  TablePrinter::Num(s.lock_wait_ms, 2),
                  TablePrinter::Num(s.alloc_mb, 1), std::to_string(s.allocs)});
    cpu_ms += s.cpu_ms;
    const std::string label = "{stage=" + s.stage + "}";
    registry.GetGauge("attribution.wall_ms" + label)->Set(s.wall_ms);
    registry.GetGauge("attribution.cpu_ms" + label)->Set(s.cpu_ms);
    registry.GetGauge("attribution.lock_wait_ms" + label)->Set(s.lock_wait_ms);
    registry.GetGauge("attribution.alloc_mb" + label)->Set(s.alloc_mb);
    registry.GetGauge("attribution.allocs" + label)
        ->Set(static_cast<double>(s.allocs));
  }
  table.Print();

  const obs::Histogram* queue_wait =
      registry.FindHistogram("pipeline.worker_pool.queue_wait_us");
  if (queue_wait != nullptr && queue_wait->count() > 0) {
    std::printf("pool queue wait per task: p50 %.0fus, p99 %.0fus over %llu "
                "tasks\n",
                queue_wait->Quantile(0.50), queue_wait->Quantile(0.99),
                static_cast<unsigned long long>(queue_wait->count()));
  }
  obs::prof::CpuProfile cpu_profile = cpu_profiler.TakeProfile();
  std::printf(
      "total: %.1fms wall (pipeline.build), %.1fms cpu, peak rss %.0fMB, "
      "%zu spans, %llu cpu samples (%llu dropped)\n",
      build_ms, cpu_ms,
      static_cast<double>(obs::prof::PeakRssBytes()) / (1024.0 * 1024.0),
      spans.size(), static_cast<unsigned long long>(cpu_profile.samples),
      static_cast<unsigned long long>(cpu_profile.dropped));
  std::fputs(cpu_profile.TopNText(10).c_str(), stdout);
  std::printf(
      "note: this run is probed (heap counting, lock sink, CPU sampler, "
      "tracer), so its times are perturbed; clean timing comes from "
      "perfbench (python3 perfbench/run.py --workload build).\n");

  bool io_ok = WriteFile(outdir + "/profile.collapsed",
                         cpu_profile.ToCollapsed());
  io_ok &= WriteFile(outdir + "/metrics.prom",
                     obs::ExportPrometheusText(registry));
  io_ok &= WriteFile(outdir + "/trace.jsonl", obs::ExportTraceJsonl(spans));
  return io_ok ? 0 : 1;
}
