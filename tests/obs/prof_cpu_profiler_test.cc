#include "obs/prof/cpu_profiler.h"

#include <gtest/gtest.h>

#include <ctime>
#include <string>

#include "common/status.h"

namespace alicoco::obs::prof {

// External linkage on purpose: obs_test links with -rdynamic so this
// symbol lands in .dynsym and backtrace_symbols can name the hot frames.
// noinline + a data-dependent argument keep the optimizer from hoisting
// or merging the calls.
__attribute__((noinline)) uint64_t ProfTestHotSpin(uint64_t seed) {
  uint64_t x = seed;
  for (int i = 0; i < 64 * 1024; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(CpuProfilerTest, RejectsBadOptions) {
  CpuProfiler profiler;
  EXPECT_TRUE(profiler.Start({/*sample_hz=*/0}).IsInvalidArgument());
  EXPECT_TRUE(profiler.Start({/*sample_hz=*/20000}).IsInvalidArgument());
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, StopWithoutStartIsIdempotent) {
  CpuProfiler profiler;
  EXPECT_TRUE(profiler.Stop().ok());
  EXPECT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, EmptyProfileRendersEmptyReports) {
  CpuProfiler profiler;
  CpuProfile profile = profiler.TakeProfile();
  EXPECT_EQ(profile.samples, 0u);
  EXPECT_EQ(profile.ToCollapsed(), "");
  EXPECT_NE(profile.TopNText(5).find("0 samples"), std::string::npos);
}

TEST(CpuProfilerTest, CapturesAndSymbolizesHotFunction) {
  CpuProfiler profiler;
  CpuProfilerOptions options;
  options.sample_hz = 997;  // dense sampling keeps the burn window short
  Status started = profiler.Start(options);
  if (started.IsNotImplemented()) {
    GTEST_SKIP() << "no backtrace() on this platform";
  }
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_TRUE(profiler.running());

  // Burn a fixed amount of process CPU time (ITIMER_PROF ticks in CPU
  // time, so wall-clock stalls from CI noise cannot starve the sampler).
  const double cpu_start = ProcessCpuSeconds();
  uint64_t sink = 0;
  uint64_t round = 0;
  while (ProcessCpuSeconds() - cpu_start < 0.4) {
    sink += ProfTestHotSpin(round++);
  }
  volatile uint64_t consume = sink;
  (void)consume;

  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
  CpuProfile profile = profiler.TakeProfile();

  // 0.4 CPU-seconds at 997Hz is ~400 expected samples; 20 is a very
  // conservative floor for slow or throttled machines.
  EXPECT_GE(profile.samples, 20u);
  EXPECT_EQ(profile.dropped, 0u);
  const std::string collapsed = profile.ToCollapsed();
  EXPECT_NE(collapsed.find("ProfTestHotSpin"), std::string::npos)
      << collapsed;
  EXPECT_NE(profile.TopNText(10).find("ProfTestHotSpin"), std::string::npos);
  // Handler machinery must have been trimmed out of every stack.
  EXPECT_EQ(collapsed.find("CpuProfilerSignalHandler"), std::string::npos);
  EXPECT_EQ(collapsed.find("__restore_rt"), std::string::npos);
}

TEST(CpuProfilerTest, RestartAfterStopCollectsFreshSamples) {
  CpuProfiler profiler;
  CpuProfilerOptions options;
  options.sample_hz = 997;
  Status started = profiler.Start(options);
  if (started.IsNotImplemented()) {
    GTEST_SKIP() << "no backtrace() on this platform";
  }
  ASSERT_TRUE(started.ok());
  ASSERT_TRUE(profiler.Stop().ok());
  (void)profiler.TakeProfile();

  // Second session starts (approximately) from zero: at most a stray
  // tick can land between arm and disarm.
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_LE(profiler.ApproxSamples(), 2u);
  ASSERT_TRUE(profiler.Stop().ok());
}

TEST(CpuProfilerDeathTest, TakeProfileWhileRunningFails) {
  CpuProfiler probe;
  if (probe.Start({}).IsNotImplemented()) {
    GTEST_SKIP() << "no backtrace() on this platform";
  }
  ASSERT_TRUE(probe.Stop().ok());
  EXPECT_DEATH(
      {
        CpuProfiler profiler;
        (void)profiler.Start({});
        (void)profiler.TakeProfile();
      },
      "TakeProfile while running");
}

TEST(CpuProfileTest, CollapsedFormatSortsByCountAndEscapesSeparator) {
  CpuProfile profile;
  profile.stacks[{"main", "a()"}] = 3;
  profile.stacks[{"main", "b;()"}] = 7;
  EXPECT_EQ(profile.ToCollapsed(),
            "main;b:() 7\n"
            "main;a() 3\n");
}

TEST(CpuProfileTest, TopNCountsSelfAndInclusive) {
  CpuProfile profile;
  profile.samples = 10;
  profile.stacks[{"main", "parent", "leaf"}] = 6;
  profile.stacks[{"main", "leaf"}] = 4;
  const std::string text = profile.TopNText(2);
  // leaf: self 10 (leaf of both stacks), inclusive 10.
  EXPECT_NE(text.find("10       10  leaf"), std::string::npos) << text;
  // Truncated to 2 rows: main (self 0) is cut, parent may or may not
  // survive; the header always names the sample count.
  EXPECT_NE(text.find("10 samples"), std::string::npos);
}

}  // namespace
}  // namespace alicoco::obs::prof
