#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace alicoco {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 100);
}

class CountingObserver : public ThreadPoolObserver {
 public:
  void OnQueueDepth(size_t) override {}
  void OnTaskDone(double, double) override { tasks_done.fetch_add(1); }
  std::atomic<int> tasks_done{0};
};

TEST(ThreadPoolTest, ParallelForExplicitGrainReportsPerChunk) {
  ThreadPool pool(3);
  CountingObserver observer;
  pool.SetObserver(&observer);
  std::atomic<int> hits{0};
  pool.ParallelFor(100, [&](size_t) { hits.fetch_add(1); }, /*grain=*/10);
  pool.SetObserver(nullptr);
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(observer.tasks_done.load(), 10);  // one task per chunk
}

TEST(ThreadPoolTest, ParallelForDefaultGrainSplitsWork) {
  // The default grain produces several chunks per worker, so observer
  // accounting reflects real units of work rather than a single task.
  ThreadPool pool(2);
  CountingObserver observer;
  pool.SetObserver(&observer);
  std::atomic<int> hits{0};
  pool.ParallelFor(89, [&](size_t) { hits.fetch_add(1); });
  pool.SetObserver(nullptr);
  EXPECT_EQ(hits.load(), 89);
  // grain = max(1, 89 / (2 * 8)) = 5 -> ceil(89 / 5) = 18 chunks.
  EXPECT_EQ(observer.tasks_done.load(), 18);
}

class TimingObserver : public ThreadPoolObserver {
 public:
  void OnQueueDepth(size_t) override {}
  void OnTaskDone(double queue_wait_us, double run_us) override {
    tasks_done.fetch_add(1);
    if (queue_wait_us < 0 || run_us < 0) negative_times.fetch_add(1);
    // Anything over a minute for a trivial task means a bogus clock
    // pairing (e.g. wait measured against an unrelated epoch).
    if (queue_wait_us > 60e6 || run_us > 60e6) implausible_times.fetch_add(1);
  }
  std::atomic<int> tasks_done{0};
  std::atomic<int> negative_times{0};
  std::atomic<int> implausible_times{0};
};

TEST(ThreadPoolTest, ShutdownDrainsQueueWithTruthfulObserverAccounting) {
  // Destroying the pool without Wait() must still run every queued task,
  // and the observer must see each one exactly once with sane timings —
  // the queue_wait numbers feed the pool's per-task queue-wait quantiles
  // that obs_report and perfbench print.
  TimingObserver observer;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.SetObserver(&observer);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] {
        ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
  }  // destructor: shutdown signal + drain + join
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(observer.tasks_done.load(), 50);
  EXPECT_EQ(observer.negative_times.load(), 0);
  EXPECT_EQ(observer.implausible_times.load(), 0);
}

TEST(ThreadPoolTest, QueueWaitReflectsTimeSpentQueued) {
  // One worker, a long head-of-line task: the task behind it must report
  // a queue wait at least as long as the blocker's run time.
  std::atomic<double> second_wait_us{-1};
  class WaitCapture : public ThreadPoolObserver {
   public:
    explicit WaitCapture(std::atomic<double>* out) : out_(out) {}
    void OnQueueDepth(size_t) override {}
    void OnTaskDone(double queue_wait_us, double) override {
      // The last task to finish is the queued one.
      out_->store(queue_wait_us);
    }

   private:
    std::atomic<double>* out_;
  };
  WaitCapture observer(&second_wait_us);
  {
    ThreadPool pool(1);
    pool.SetObserver(&observer);
    pool.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    pool.Submit([] {});
    pool.Wait();
    pool.SetObserver(nullptr);
  }
  EXPECT_GE(second_wait_us.load(), 15e3);  // queued behind ~20ms of work
}

TEST(ThreadPoolTest, ParallelForGrainLargerThanRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(7);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
                   /*grain=*/100);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace alicoco
