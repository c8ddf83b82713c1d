// TSan stress test for the CPU profiler's sample path (tools/ci.sh runs
// the ProfRace* suite under ThreadSanitizer): several threads take samples
// at once, past the sample array's capacity.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/prof/cpu_profiler.h"

namespace alicoco::obs::prof {
namespace {

// Each raise(SIGPROF) runs the profiler's handler on the raising thread
// before it returns, so every thread claims and writes slots concurrently
// with the others. Claims past the capacity are dropped, the first
// kCapacity are kept, and every kept slot holds a written stack.
TEST(ProfRaceTest, ConcurrentSamplesFillTheArrayAndCountTheRest) {
  CpuProfiler profiler;
  // 1 Hz of process CPU time: the timer itself adds at most a few samples.
  Status started = profiler.Start({/*sample_hz=*/1});
  if (started.IsNotImplemented()) {
    GTEST_SKIP() << "no backtrace() on this platform";
  }
  ASSERT_TRUE(started.ok()) << started.ToString();

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = CpuProfiler::kCapacity / 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) std::raise(SIGPROF);
    });
  }
  // Every raise has returned before Stop restores the old disposition.
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(profiler.Stop().ok());

  const CpuProfile profile = profiler.TakeProfile();
  EXPECT_EQ(profile.samples, CpuProfiler::kCapacity);
  EXPECT_GE(profile.samples + profile.dropped, kThreads * kPerThread);
  uint64_t stacked = 0;
  for (const auto& [stack, count] : profile.stacks) stacked += count;
  EXPECT_EQ(stacked, profile.samples);
  // An unwritten slot has depth 0 and would symbolize as a lone "??".
  EXPECT_EQ(profile.stacks.count({"??"}), 0u);
}

}  // namespace
}  // namespace alicoco::obs::prof
