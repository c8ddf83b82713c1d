// Sampling CPU profiler: SIGPROF-driven stack capture into a fixed sample
// array, offline symbolization, collapsed-stack and top-N reports.
//
// How it works (DESIGN.md §6): Start() arms ITIMER_PROF at `sample_hz`;
// the kernel delivers SIGPROF to whichever thread is burning CPU, and the
// handler claims the next slot of a pre-allocated array with one atomic
// fetch_add and writes a backtrace() into it; a claim past the array's end
// counts as dropped. The handler touches only pre-allocated memory and
// atomics, so it is async-signal-safe (backtrace itself is warmed up once
// in Start before the handler can run). Stop() disarms the timer, restores
// the previous handler and waits for in-flight handlers to retire; then
// the filled slots are stable. All symbolization (backtrace_symbols +
// demangling) happens offline in TakeProfile(), never in the signal path.
//
//   prof::CpuProfiler profiler;
//   ALICOCO_CHECK(profiler.Start({}).ok());
//   ... workload ...
//   ALICOCO_CHECK(profiler.Stop().ok());
//   prof::CpuProfile profile = profiler.TakeProfile();
//   WriteFile("profile.collapsed", profile.ToCollapsed());  // flamegraph
//   std::fputs(profile.TopNText(10).c_str(), stdout);
//
// One profiler may be active per process (ITIMER_PROF is process-wide);
// Start CHECK-fails on a second concurrent activation. On platforms
// without glibc's <execinfo.h> Start returns NotImplemented and everything
// else degrades to empty output.

#ifndef ALICOCO_OBS_PROF_CPU_PROFILER_H_
#define ALICOCO_OBS_PROF_CPU_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace alicoco::obs::prof {

struct CpuProfilerOptions {
  /// SIGPROF delivery rate in CPU-time Hz. An off-round prime-ish default
  /// avoids lockstep with periodic workloads.
  int sample_hz = 197;
};

/// Aggregated, symbolized result of one profiling session.
struct CpuProfile {
  uint64_t samples = 0;          ///< stacks captured
  uint64_t dropped = 0;          ///< lost to a full sample array
  uint64_t truncated_frames = 0; ///< stacks deeper than the frame budget
  /// Symbolized stacks, root-to-leaf, with sample counts.
  std::map<std::vector<std::string>, uint64_t> stacks;

  /// Brendan-Gregg collapsed format, one `root;child;leaf count` line per
  /// stack, highest count first (ties lexicographic) — feed to
  /// flamegraph.pl or speedscope as-is.
  std::string ToCollapsed() const;
  /// Human-readable top-N functions by self (leaf) samples, with
  /// inclusive counts alongside.
  std::string TopNText(size_t n) const;
};

class CpuProfiler {
 public:
  CpuProfiler();
  /// Must be stopped before destruction; the destructor CHECKs.
  ~CpuProfiler();

  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  /// Arms the profiler. InvalidArgument on a bad rate, Internal on
  /// sigaction/setitimer failure, NotImplemented where backtrace() is
  /// unavailable. CHECK-fails if any CpuProfiler is already running.
  [[nodiscard]] Status Start(const CpuProfilerOptions& options);

  /// Disarms and waits for in-flight handlers to finish. Idempotent.
  [[nodiscard]] Status Stop();

  bool running() const;

  /// Samples captured so far (approximate while running).
  uint64_t ApproxSamples() const;

  /// Symbolizes and aggregates everything captured since Start.
  /// CHECK-fails while running: call after Stop.
  CpuProfile TakeProfile() const;

  /// Samples kept per session; later ones are counted as dropped. 8192 at
  /// the default 197 Hz is over 40 CPU-seconds.
  static constexpr size_t kCapacity = 8192;
  /// Maximum frames kept per sample; deeper stacks are truncated at the
  /// root end (the leaf frames are the ones attribution needs).
  static constexpr size_t kMaxFrames = 48;

  struct RawSample {
    int32_t depth = 0;
    void* frames[kMaxFrames] = {};
  };

 private:
  friend void CpuProfilerSignalHandler(int);
  void HandleSignal();  // async-signal-safe

  // kCapacity slots, allocated by Start. A handler writes the slot whose
  // index it claimed from `claimed_`; Stop reads the claim count once the
  // handlers have quiesced, and [0, samples_) then holds the samples.
  std::unique_ptr<RawSample[]> slots_;
  std::atomic<uint64_t> claimed_{0};
  std::atomic<uint64_t> truncated_{0};
  uint64_t samples_ = 0;
  uint64_t dropped_ = 0;
  bool running_ = false;
  // Saved handler/timer state lives in the .cc (platform types).
  struct PlatformState;
  std::unique_ptr<PlatformState> platform_;
};

}  // namespace alicoco::obs::prof

#endif  // ALICOCO_OBS_PROF_CPU_PROFILER_H_
