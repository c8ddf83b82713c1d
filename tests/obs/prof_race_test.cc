// TSan stress test for the profiling tier's sample ring (tools/ci.sh runs
// the ProfRace* suite under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/prof/sample_ring.h"

namespace alicoco::obs::prof {
namespace {

TEST(ProfRaceTest, SampleRingMpmcDeliversEveryAcceptedPush) {
  SampleRing<uint64_t> ring(256);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 20000;

  std::atomic<uint64_t> pushed_ok{0};
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<bool> producing{true};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Values are globally unique so a duplicated or torn slot would
        // corrupt the checksum below.
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        if (ring.TryPush(value)) {
          pushed_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t value = 0;
      for (;;) {
        if (ring.TryPop(&value)) {
          popped.fetch_add(1, std::memory_order_relaxed);
          popped_sum.fetch_add(value, std::memory_order_relaxed);
          continue;
        }
        // An empty pop is final only once the producers have all joined:
        // no slot can still be mid-publish at that point.
        if (!producing.load(std::memory_order_acquire)) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  producing.store(false, std::memory_order_release);
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), pushed_ok.load());
  EXPECT_EQ(pushed_ok.load() + ring.dropped(), kProducers * kPerProducer);
  EXPECT_GT(popped_sum.load(), 0u);
}

}  // namespace
}  // namespace alicoco::obs::prof
