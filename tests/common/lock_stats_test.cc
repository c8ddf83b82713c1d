#include "common/lock_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace alicoco {
namespace {

// Guarded by an UNNAMED mutex, per the sink re-entrancy rule: a named one
// here would recurse into the sink from its own callback.
class RecordingSink : public LockStatsSink {
 public:
  struct Event {
    std::string what;  // "acquire" / "acquire-contended" / "release" / "cv"
    std::string name;
  };

  void OnAcquire(const char* name, uint64_t, bool contended) override {
    Push({contended ? "acquire-contended" : "acquire", name});
  }
  void OnRelease(const char* name, uint64_t) override {
    Push({"release", name});
  }
  void OnCondVarWait(const char* name, uint64_t) override {
    Push({"cv", name});
  }

  std::vector<Event> Events() const {
    MutexLock lock(mu_);
    return events_;
  }
  size_t size() const { return Events().size(); }
  void Clear() {
    MutexLock lock(mu_);
    events_.clear();
  }

 private:
  void Push(Event event) {
    MutexLock lock(mu_);
    events_.push_back(std::move(event));
  }

  mutable Mutex mu_;
  std::vector<Event> events_ ALICOCO_GUARDED_BY(mu_);
};

TEST(LockStatsTest, NoSinkInstalledByDefault) {
  EXPECT_EQ(GetLockStatsSink(), nullptr);
}

TEST(LockStatsTest, ScopedInstallAndDetach) {
  RecordingSink sink;
  {
    ScopedLockStatsSink installed(&sink);
    EXPECT_EQ(GetLockStatsSink(), &sink);
  }
  EXPECT_EQ(GetLockStatsSink(), nullptr);
}

TEST(LockStatsTest, NamedMutexReportsAcquireAndRelease) {
  RecordingSink sink;
  ScopedLockStatsSink installed(&sink);
  Mutex mu{"unit.mu"};
  { MutexLock lock(mu); }
  std::vector<RecordingSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].what, "acquire");
  EXPECT_EQ(events[0].name, "unit.mu");
  EXPECT_EQ(events[1].what, "release");
  EXPECT_EQ(events[1].name, "unit.mu");
}

TEST(LockStatsTest, UnnamedMutexReportsNothing) {
  RecordingSink sink;
  ScopedLockStatsSink installed(&sink);
  Mutex mu;
  { MutexLock lock(mu); }
  EXPECT_EQ(sink.size(), 0u);
}

TEST(LockStatsTest, NamedMutexWithoutSinkReportsNothing) {
  RecordingSink sink;
  Mutex mu{"unit.nosink.mu"};
  { MutexLock lock(mu); }  // disabled mode: no sink installed
  EXPECT_EQ(sink.size(), 0u);
}

TEST(LockStatsTest, TryLockReportsOnlyOnSuccess) {
  RecordingSink sink;
  ScopedLockStatsSink installed(&sink);
  Mutex mu{"unit.try.mu"};
  ASSERT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());  // already held: no event
  mu.unlock();
  std::vector<RecordingSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].what, "acquire");
  EXPECT_EQ(events[1].what, "release");
}

TEST(LockStatsTest, CondVarWaitSplitsTheHold) {
  // A wait ends the pre-wait hold (release event), blocks (cv event), and
  // restarts the hold clock so waiting never counts as holding.
  RecordingSink sink;
  ScopedLockStatsSink installed(&sink);
  Mutex mu{"unit.cv.mu"};
  CondVar cv;
  {
    MutexLock lock(mu);
    cv.NotifyOne();  // nothing waits yet; just proves Notify is safe
  }
  sink.Clear();

  bool woken = false;
  std::atomic<bool> waiter_holds_lock{false};
  std::thread waker([&] {
    // Gate on the waiter holding mu: from then on mu is only released
    // inside cv.Wait, so this acquire proves the waiter is parked and the
    // notify cannot be lost to a waker-first schedule.
    while (!waiter_holds_lock.load()) std::this_thread::yield();
    MutexLock lock(mu);
    woken = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    waiter_holds_lock.store(true);
    while (!woken) cv.Wait(mu);
  }
  waker.join();

  // This thread's sequence: acquire, release (hold ended at Wait),
  // cv (woke), release (post-wake hold). The waker thread interleaves its
  // own acquire/release pair somewhere in between.
  size_t cv_events = 0;
  size_t releases = 0;
  for (const auto& event : sink.Events()) {
    if (event.what == "cv") ++cv_events;
    if (event.what == "release") ++releases;
  }
  EXPECT_GE(cv_events, 1u);
  EXPECT_GE(releases, 3u);  // waiter's two plus the waker's one
}

}  // namespace
}  // namespace alicoco
