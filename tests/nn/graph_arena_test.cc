// The graph arena (nn/graph.h, DESIGN §5): a graph built in a warm arena
// computes exactly what one built on a fresh thread does, values copied out
// of a graph do not share its memory, nested graphs each get their own
// arena, concurrent graphs on pool threads stay independent, and under
// AddressSanitizer a read of a dead graph's value still reports.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "nn/graph.h"
#include "tagger_net.h"

namespace alicoco::nn {
namespace {

using testing::BitEqual;
using testing::Sentence;
using testing::TaggerNet;
using testing::TaggerResult;
using testing::TrainStep;

TEST(GraphArenaTest, WarmArenaMatchesAFreshThread) {
  const Sentence s(7, 11);
  TaggerNet fresh_net(5);
  TaggerResult fresh;
  std::thread([&] { fresh = TrainStep(&fresh_net, s); }).join();

  // Warm this thread's arena with a larger graph first, so the graph under
  // test lands in memory that earlier values and closures used.
  TaggerNet warm_net(5);
  TrainStep(&warm_net, Sentence(30, 12));
  const TaggerResult warm = TrainStep(&warm_net, s);
  EXPECT_TRUE(BitEqual(warm, fresh));
}

TEST(GraphArenaTest, CopiedValueSurvivesArenaReuse) {
  Tensor assigned;
  Tensor constructed;
  std::vector<float> expected;
  {
    Graph g;
    Graph::Var x = g.Input(Tensor::FromVector(2, 3, {1, -2, 3, -4, 5, -6}));
    Graph::Var y = g.Tanh(g.ScalarMul(x, 0.5f));
    assigned = g.Value(y);
    Tensor copy = g.Value(y);
    constructed = std::move(copy);
    expected.assign(g.Value(y).data(), g.Value(y).data() + 6);
  }
  // A larger graph on the same thread rewrites the memory y lived in.
  TaggerNet net(3);
  TrainStep(&net, Sentence(25, 4));
  ASSERT_EQ(assigned.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(assigned.data()[i], expected[i]);
    EXPECT_EQ(constructed.data()[i], expected[i]);
  }
}

TEST(GraphArenaTest, NestedGraphsBothCompute) {
  TaggerNet net(9);
  const Sentence outer_s(8, 21);
  const Sentence inner_s(5, 22);
  const TaggerResult outer_alone = TrainStep(&net, outer_s);
  Tensor inner_alone;
  {
    Graph g(Graph::kForwardOnly);
    inner_alone = g.Value(net.Logits(&g, inner_s.ids));
  }

  net.store.ZeroGrad();
  TaggerResult outer;
  Tensor inner;
  {
    Graph g;
    Graph::Var logits = net.Logits(&g, outer_s.ids);
    {
      // Built and destroyed while the outer graph is live, as a scorer
      // called from inside a training graph would be.
      Graph nested(Graph::kForwardOnly);
      inner = nested.Value(net.Logits(&nested, inner_s.ids));
    }
    Graph::Var loss =
        g.SigmoidCrossEntropyWithLogits(logits, outer_s.targets);
    g.Backward(loss);
    outer.loss = g.Value(loss).At(0, 0);
    outer.logits = g.Value(logits);
  }
  for (const auto& p : net.store.params()) outer.grads.push_back(p->grad);
  EXPECT_TRUE(BitEqual(outer, outer_alone));
  EXPECT_TRUE(BitEqual(inner, inner_alone));
}

TEST(GraphArenaTest, GraphsMayDieOutOfOrder) {
  TaggerNet net(13);
  const Sentence s(6, 31);
  Tensor expected;
  {
    Graph g(Graph::kForwardOnly);
    expected = g.Value(net.Logits(&g, s.ids));
  }
  auto first = std::make_unique<Graph>(Graph::kForwardOnly);
  auto second = std::make_unique<Graph>(Graph::kForwardOnly);
  Graph::Var a = net.Logits(first.get(), s.ids);
  Graph::Var b = net.Logits(second.get(), s.ids);
  EXPECT_TRUE(BitEqual(first->Value(a), expected));
  first.reset();
  EXPECT_TRUE(BitEqual(second->Value(b), expected));
  second.reset();
  Graph g(Graph::kForwardOnly);
  EXPECT_TRUE(BitEqual(g.Value(net.Logits(&g, s.ids)), expected));
}

// 4 pool threads build, backpropagate and destroy graphs at once, each task
// with a nested forward-only graph; every task's results equal the serial
// run's. Sized for ThreadSanitizer.
TEST(GraphArenaRaceTest, ConcurrentGraphsMatchSerial) {
  constexpr size_t kTasks = 24;
  TaggerNet net(17);
  std::vector<Sentence> outer, inner;
  for (size_t i = 0; i < kTasks; ++i) {
    outer.emplace_back(3 + static_cast<int>(i % 9), 100 + i);
    inner.emplace_back(2 + static_cast<int>(i % 5), 200 + i);
  }
  struct TaskResult {
    TaggerResult train;
    Tensor nested;
  };
  auto run_task = [&](size_t i, GradientBuffer* buffer) {
    TaskResult r;
    {
      Graph g(buffer);
      Graph::Var logits = net.Logits(&g, outer[i].ids);
      {
        Graph nested(Graph::kForwardOnly);
        r.nested = nested.Value(net.Logits(&nested, inner[i].ids));
      }
      Graph::Var loss =
          g.SigmoidCrossEntropyWithLogits(logits, outer[i].targets);
      g.Backward(loss);
      r.train.loss = g.Value(loss).At(0, 0);
      r.train.logits = g.Value(logits);
    }
    for (const auto& p : net.store.params()) {
      r.train.grads.push_back(*buffer->GradFor(p.get()));
    }
    return r;
  };

  std::vector<GradientBuffer> serial_buffers(kTasks,
                                             GradientBuffer(&net.store));
  std::vector<TaskResult> serial;
  for (size_t i = 0; i < kTasks; ++i) {
    serial.push_back(run_task(i, &serial_buffers[i]));
  }

  std::vector<GradientBuffer> pooled_buffers(kTasks,
                                             GradientBuffer(&net.store));
  std::vector<TaskResult> pooled(kTasks);
  ThreadPool pool(4);
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&, i] { pooled[i] = run_task(i, &pooled_buffers[i]); });
  }
  pool.Wait();

  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(BitEqual(pooled[i].train, serial[i].train)) << "task " << i;
    EXPECT_TRUE(BitEqual(pooled[i].nested, serial[i].nested)) << "task " << i;
  }
}

// A graph's values share arena blocks, so ASan sees a read of a dead
// graph's value only because the arena poisons what it rewinds.
TEST(GraphArenaDeathTest, ReadingADestroyedGraphsValueReports) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        const float* dangling = nullptr;
        {
          Graph g;
          Graph::Var x = g.Input(Tensor::FromVector(1, 2, {1, 2}));
          dangling = g.Value(g.Tanh(x)).data();
        }
        volatile float read = *dangling;
        (void)read;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer (the asan preset)";
#endif
}

}  // namespace
}  // namespace alicoco::nn
