// Steady-state training and scoring make no heap allocation: once a
// thread's graph arena is warm, a graph draws node storage, values,
// gradients, closures and their scratch from it (nn/graph.h, DESIGN §5).
// This binary links the operator new/delete hook (obs/prof/heap_stats.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "nn/graph.h"
#include "obs/prof/heap_stats.h"
#include "tagger_net.h"

namespace alicoco::nn {
namespace {

using obs::prof::HeapCounters;
using obs::prof::HeapCountersNow;
using testing::Sentence;
using testing::TaggerNet;

// Heap allocations made while `fn` runs.
template <typename F>
uint64_t AllocationsDuring(F&& fn) {
  obs::prof::ScopedHeapTracking tracking;
  const HeapCounters before = HeapCountersNow();
  fn();
  return HeapCountersNow().allocs - before.allocs;
}

TEST(GraphArenaAllocTest, WarmTrainingGraphMakesNoHeapAllocations) {
  ASSERT_TRUE(obs::prof::HeapHookLinked());
  TaggerNet net(7);
  const Sentence s(6, 8);
  auto step = [&] {
    Graph g;
    Graph::Var logits = net.Logits(&g, s.ids);
    g.Backward(g.SigmoidCrossEntropyWithLogits(logits, s.targets));
  };
  step();  // warms the arena
  EXPECT_EQ(AllocationsDuring(step), 0u);
}

TEST(GraphArenaAllocTest, WarmForwardOnlyGraphMakesNoHeapAllocations) {
  ASSERT_TRUE(obs::prof::HeapHookLinked());
  TaggerNet net(7);
  const Sentence s(6, 8);
  auto score = [&] {
    Graph g(Graph::kForwardOnly);
    g.SigmoidCrossEntropyWithLogits(net.Logits(&g, s.ids), s.targets);
  };
  score();  // warms the arena
  EXPECT_EQ(AllocationsDuring(score), 0u);
}

// The zero counts above are a real measurement: the first graph of a fresh
// thread, whose arena is cold, does allocate.
TEST(GraphArenaAllocTest, ColdArenaAllocates) {
  ASSERT_TRUE(obs::prof::HeapHookLinked());
  TaggerNet net(7);
  const Sentence s(6, 8);
  uint64_t allocs = 0;
  std::thread([&] {
    allocs = AllocationsDuring([&] {
      Graph g;
      Graph::Var logits = net.Logits(&g, s.ids);
      g.Backward(g.SigmoidCrossEntropyWithLogits(logits, s.targets));
    });
  }).join();
  EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace alicoco::nn
