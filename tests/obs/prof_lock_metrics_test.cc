#include "obs/prof/lock_metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/lock_stats.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace alicoco::obs::prof {
namespace {

TEST(LockContentionMetricsTest, UncontendedAcquireCreatesInstruments) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  Mutex mu{"test.basic.mu"};
  { MutexLock lock(mu); }
  { MutexLock lock(mu); }

  const Counter* acquires =
      registry.FindCounter("lock.acquires{mutex=test.basic.mu}");
  ASSERT_NE(acquires, nullptr);
  EXPECT_EQ(acquires->value(), 2u);
  const Counter* contended =
      registry.FindCounter("lock.contended{mutex=test.basic.mu}");
  ASSERT_NE(contended, nullptr);
  EXPECT_EQ(contended->value(), 0u);
  const Histogram* hold =
      registry.FindHistogram("lock.hold_us{mutex=test.basic.mu}");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 2u);
  EXPECT_GE(metrics.total_acquires(), 2u);
  EXPECT_EQ(metrics.total_contended(), 0u);
}

TEST(LockContentionMetricsTest, UnnamedMutexesReportNothing) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  Mutex mu;  // unnamed: stays uninstrumented
  { MutexLock lock(mu); }
  EXPECT_EQ(metrics.total_acquires(), 0u);
  EXPECT_TRUE(registry.CounterNames().empty());
}

TEST(LockContentionMetricsTest, ContendedAcquireRecordsWait) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  Mutex mu{"test.contended.mu"};
  // Retried because the scheduler could in principle park this thread for
  // the whole 20ms hold; one collision is all the test needs.
  for (int attempt = 0; attempt < 5 && metrics.total_contended() == 0;
       ++attempt) {
    std::atomic<bool> holder_ready{false};
    std::thread holder([&] {
      MutexLock lock(mu);
      holder_ready.store(true);
      // Hold long enough that the main thread's lock() takes the slow path.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    while (!holder_ready.load()) std::this_thread::yield();
    { MutexLock lock(mu); }  // blocks until the holder's sleep ends
    holder.join();
  }

  const Counter* contended =
      registry.FindCounter("lock.contended{mutex=test.contended.mu}");
  ASSERT_NE(contended, nullptr);
  EXPECT_GE(contended->value(), 1u);
  const Histogram* wait =
      registry.FindHistogram("lock.wait_us{mutex=test.contended.mu}");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->count(), 1u);
  // The blocked acquisition waited through most of the 20ms hold.
  EXPECT_GE(metrics.total_wait_us(), 1000u);
  EXPECT_GE(metrics.total_contended(), 1u);
}

TEST(LockContentionMetricsTest, CondVarWaitIsAccounted) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  Mutex mu{"test.cv.mu"};
  CondVar cv;
  bool ready = false;
  std::atomic<bool> waiter_holds_lock{false};
  std::thread waiter([&] {
    MutexLock lock(mu);
    waiter_holds_lock.store(true);
    while (!ready) cv.Wait(mu);
  });
  // Gate on the waiter holding mu: from then on mu is only released
  // inside cv.Wait, so acquiring it below proves the waiter is parked
  // and at least one cv-wait event is guaranteed.
  while (!waiter_holds_lock.load()) std::this_thread::yield();
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();

  const Histogram* cv_wait =
      registry.FindHistogram("lock.cv_wait_us{mutex=test.cv.mu}");
  ASSERT_NE(cv_wait, nullptr);
  EXPECT_GE(cv_wait->count(), 1u);
  EXPECT_GE(metrics.total_cv_wait_us(), 1u);
}

TEST(LockContentionMetricsTest, DistinctLiteralsWithEqualTextShareSeries) {
  // Several ThreadPools each carry their own "thread_pool.mu" literal;
  // the sink must fold them into one labeled series, not one per pointer.
  Registry registry;
  LockContentionMetrics metrics(&registry);
  ScopedLockStatsSink installed(&metrics);

  // Runtime-built copies guarantee distinct addresses with equal text.
  std::string name_a = "test.shared";
  name_a += ".mu";
  std::string name_b = "test.shared";
  name_b += ".mu";
  ASSERT_NE(name_a.c_str(), name_b.c_str());
  Mutex mu_a{name_a.c_str()};
  Mutex mu_b{name_b.c_str()};
  { MutexLock lock(mu_a); }
  { MutexLock lock(mu_b); }

  const Counter* acquires =
      registry.FindCounter("lock.acquires{mutex=test.shared.mu}");
  ASSERT_NE(acquires, nullptr);
  EXPECT_EQ(acquires->value(), 2u);
}

TEST(LockContentionMetricsTest, DetachedSinkSeesNoFurtherEvents) {
  Registry registry;
  LockContentionMetrics metrics(&registry);
  Mutex mu{"test.detach.mu"};
  {
    ScopedLockStatsSink installed(&metrics);
    MutexLock lock(mu);
  }
  { MutexLock lock(mu); }  // no sink installed anymore
  EXPECT_EQ(metrics.total_acquires(), 1u);
}

}  // namespace
}  // namespace alicoco::obs::prof
