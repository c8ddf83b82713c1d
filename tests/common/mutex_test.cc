#include "common/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "common/thread_annotations.h"

namespace alicoco {
namespace {

// A waiter parks in CondVar::Wait; a second thread takes the mutex, changes
// the guarded state and notifies; the waiter resumes holding the mutex.
// A Wait that kept the mutex while parked would block the notifier forever,
// so the test waits on both threads for a bounded time and, if either is
// stuck, detaches them and fails instead of hanging the suite. The state
// lives on the heap so a detached thread never outlives what it touches.
TEST(CondVarTest, WaiterResumesHoldingTheMutexAfterANotify) {
  struct Shared {
    Mutex mu;
    CondVar cv;
    // 1: the waiter is parked; 2: the notifier changed the state; 3 then
    // 4: the resumed waiter's critical section.
    int phase ALICOCO_GUARDED_BY(mu) = 0;
  };
  auto shared = std::make_shared<Shared>();

  std::promise<void> waiter_done;
  std::future<void> waiter_finished = waiter_done.get_future();
  std::thread waiter([shared, done = std::move(waiter_done)]() mutable {
    MutexLock lock(shared->mu);
    shared->phase = 1;
    while (shared->phase != 2) shared->cv.Wait(shared->mu);
    // Phase 3 is only ever visible to a thread that takes the mutex while
    // this one still holds it.
    shared->phase = 3;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    shared->phase = 4;
    done.set_value();
  });

  std::promise<bool> notifier_done;  // true when phase 3 was never seen
  std::future<bool> notifier_finished = notifier_done.get_future();
  std::thread notifier([shared, done = std::move(notifier_done)]() mutable {
    // The waiter sets phase 1 and parks in one critical section, so taking
    // the mutex while phase is 1 needs Wait to have released it.
    for (bool notified = false; !notified; std::this_thread::yield()) {
      MutexLock lock(shared->mu);
      if (shared->phase == 1) {
        shared->phase = 2;
        shared->cv.NotifyOne();
        notified = true;
      }
    }
    bool saw_inside = false;
    for (bool finished = false; !finished; std::this_thread::yield()) {
      MutexLock lock(shared->mu);
      saw_inside |= shared->phase == 3;
      finished = shared->phase == 4;
    }
    done.set_value(!saw_inside);
  });

  const auto bound = std::chrono::seconds(10);
  const bool ended =
      waiter_finished.wait_for(bound) == std::future_status::ready &&
      notifier_finished.wait_for(bound) == std::future_status::ready;
  if (!ended) {
    waiter.detach();
    notifier.detach();
    FAIL() << "a thread is stuck: Wait kept the mutex while parked";
  }
  waiter.join();
  notifier.join();
  EXPECT_TRUE(notifier_finished.get())
      << "the notifier took the mutex while the resumed waiter held it";
}

}  // namespace
}  // namespace alicoco
