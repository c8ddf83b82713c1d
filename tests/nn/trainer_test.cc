// Tests for nn::Train (nn/trainer.h): the dense gradient buffer, per-example
// seeds, pooled-vs-serial equivalence, equal weights at every pool size, bit-exactness against the serial
// and labeler-style loops the models ran before Train existed, the rule for
// empty examples, the train/epoch spans, and a stress test sized for
// ThreadSanitizer (many concurrent backward passes against one shared
// ParameterStore).

#include "nn/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace alicoco::nn {
namespace {

// A bag-of-words classifier whose loss draws from its Rng twice per
// example (token masking, then dropout), so a changed stream shows in the
// trained weights.
struct ToyExample {
  std::vector<int> ids;  // empty: nothing to learn
  float label = 0;
};

struct ToyModel {
  static constexpr int kVocab = 12, kDim = 5;

  explicit ToyModel(uint64_t seed)
      : rng(seed),
        emb(&store, "emb", kVocab, kDim, &rng),
        head(&store, "head", kDim, 1, &rng) {}

  Graph::Var Loss(Graph* g, const ToyExample& ex, Rng* draw) const {
    std::vector<int> ids = ex.ids;
    for (int& id : ids) {
      if (draw->Bernoulli(0.2)) id = 0;
    }
    Graph::Var x = g->Dropout(emb.Lookup(g, ids), 0.3f, true, draw);
    Tensor target(1, 1);
    target.At(0, 0) = ex.label;
    return g->SigmoidCrossEntropyWithLogits(head.Apply(g, g->MeanRows(x)),
                                            target);
  }

  ParameterStore store;
  Rng rng;
  Embedding emb;
  Linear head;
};

std::vector<ToyExample> ToyData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ToyExample> data(n);
  for (ToyExample& ex : data) {
    const int len = static_cast<int>(rng.UniformInt(2, 5));
    for (int t = 0; t < len; ++t) {
      ex.ids.push_back(
          static_cast<int>(rng.UniformInt(1, ToyModel::kVocab - 1)));
    }
    ex.label = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return data;
}

constexpr float kLr = 0.05f;
constexpr uint64_t kSeed = 0xFACADE;

TrainOptions ToyOptions(ExampleRng example_rng, int epochs, int batch_size,
                        ThreadPool* pool = nullptr) {
  return {.model = "toy",
          .epochs = epochs,
          .lr = kLr,
          .batch_size = batch_size,
          .seed = kSeed,
          .example_rng = example_rng,
          .pool = pool};
}

void TrainToy(ToyModel* m, const std::vector<ToyExample>& data,
              const TrainOptions& options) {
  Train(&m->store, data.size(), options,
        [&](Graph* g, size_t i, Rng* rng) -> std::optional<Graph::Var> {
          if (data[i].ids.empty()) {
            // Build a whole loss anyway: Train must not backpropagate it.
            m->Loss(g, ToyExample{{1, 2}, 1.0f}, rng);
            return std::nullopt;
          }
          return m->Loss(g, data[i], rng);
        });
}

// The loop the matcher and the tagger ran before Train: one Rng shuffles
// and draws, examples are counted into batches by hand, and a short tail
// batch is stepped on its own at the end of each epoch.
void SerialReference(ToyModel* m, const std::vector<ToyExample>& data,
                     int epochs, int batch_size) {
  Adam adam(kLr);
  Rng rng(kSeed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    m->store.ZeroGrad();
    int in_batch = 0;
    for (size_t idx : order) {
      Graph g;
      g.Backward(m->Loss(&g, data[idx], &rng));
      if (++in_batch >= batch_size) {
        adam.Step(&m->store);
        m->store.ZeroGrad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      adam.Step(&m->store);
      m->store.ZeroGrad();
    }
  }
}

// The loop the labeler and the classifier ran before Train, on its
// sequential path (null pool): batches cut by position, every example
// drawing from its own ExampleSeed stream keyed by its data index, and an
// empty example keeping its slot. With `count_empty` false, empty examples
// do not count towards a batch instead (the old tagger's rule).
void PerExampleReference(ToyModel* m, const std::vector<ToyExample>& data,
                         int epochs, int batch_size, bool count_empty = true) {
  Adam adam(kLr);
  Rng shuffle_rng(kSeed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t batch = static_cast<size_t>(std::max(1, batch_size));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    shuffle_rng.Shuffle(&order);
    m->store.ZeroGrad();
    std::vector<size_t> kept;
    for (size_t idx : order) {
      if (count_empty || !data[idx].ids.empty()) kept.push_back(idx);
    }
    for (size_t start = 0; start < kept.size(); start += batch) {
      const size_t count = std::min(batch, kept.size() - start);
      for (size_t bi = 0; bi < count; ++bi) {
        const size_t idx = kept[start + bi];
        if (data[idx].ids.empty()) continue;
        Rng ex_rng(ExampleSeed(kSeed, static_cast<uint64_t>(epoch), idx));
        Graph g;
        g.Backward(m->Loss(&g, data[idx], &ex_rng));
      }
      adam.Step(&m->store);
      m->store.ZeroGrad();
    }
  }
}

// Every weight of `a` and `b`, compared bit for bit.
bool SameWeights(const ParameterStore& a, const ParameterStore& b) {
  if (a.params().size() != b.params().size()) return false;
  for (size_t i = 0; i < a.params().size(); ++i) {
    const Tensor& x = a.params()[i]->value;
    const Tensor& y = b.params()[i]->value;
    if (!x.SameShape(y) ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void ExpectNearWeights(const ParameterStore& a, const ParameterStore& b) {
  ASSERT_EQ(a.params().size(), b.params().size());
  for (size_t i = 0; i < a.params().size(); ++i) {
    const Tensor& x = a.params()[i]->value;
    const Tensor& y = b.params()[i]->value;
    ASSERT_TRUE(x.SameShape(y));
    for (size_t k = 0; k < x.size(); ++k) {
      EXPECT_NEAR(x.data()[k], y.data()[k],
                  1e-4f * std::fabs(x.data()[k]) + 1e-6f)
          << a.params()[i]->name << "[" << k << "]";
    }
  }
}

TEST(ParallelTrainingTest, GradientBufferReducesIntoParameter) {
  Rng rng(7);
  ParameterStore store;
  store.Create("unused", 1, 1, ParameterStore::Init::kZero, nullptr);
  Parameter* p = store.Create("p", 2, 3, ParameterStore::Init::kGaussian,
                              &rng, 1.0f);
  EXPECT_EQ(p->index, 1u);
  store.ZeroGrad();
  GradientBuffer buf_a(&store), buf_b(&store);
  buf_a.GradFor(p)->At(0, 0) = 1.5f;
  buf_b.GradFor(p)->At(0, 0) = 2.0f;
  buf_b.GradFor(p)->At(1, 2) = -1.0f;
  buf_a.ReduceInto();
  buf_b.ReduceInto();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 3.5f);
  EXPECT_FLOAT_EQ(p->grad.At(1, 2), -1.0f);
  // Buffers are zeroed by the reduction: reducing again is a no-op.
  buf_a.ReduceInto();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 3.5f);
}

TEST(ParallelTrainingTest, ExampleSeedIsPerExample) {
  EXPECT_EQ(ExampleSeed(1, 0, 0), ExampleSeed(1, 0, 0));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(1, 0, 1));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(1, 1, 0));
  EXPECT_NE(ExampleSeed(1, 0, 0), ExampleSeed(2, 0, 0));
}

// One batch through a small model: every example computes the same loss on
// both paths, and the pooled step lands within summation-order noise of
// the sequential one.
TEST(ParallelTrainingTest, PooledBatchMatchesSequential) {
  const int kIn = 6, kOut = 4, kBatch = 13;
  std::vector<Tensor> xs;
  Rng input_rng(21);
  for (int i = 0; i < kBatch; ++i) {
    xs.push_back(Tensor::Randn(1, kIn, 1.0f, &input_rng));
  }
  struct Run {
    ParameterStore store;
    std::vector<float> losses = std::vector<float>(kBatch);
  };
  auto run = [&](ThreadPool* pool, Run* r) {
    Rng rng(20);
    Linear fc(&r->store, "fc", kIn, kOut, &rng);
    Train(&r->store, xs.size(),
          {.model = "fc",
           .epochs = 1,
           .lr = 0.01f,
           .batch_size = kBatch,
           .seed = 3,
           .example_rng = ExampleRng::kPerExample,
           .pool = pool},
          [&](Graph* g, size_t i, Rng*) -> std::optional<Graph::Var> {
            Graph::Var y = fc.ApplyTanh(g, g->Input(xs[i]));
            Graph::Var l = g->MeanAll(g->Mul(y, y));
            r->losses[i] = g->Value(l).At(0, 0);
            return l;
          });
  };

  Run seq, par;
  run(nullptr, &seq);
  ThreadPool pool(4);
  run(&pool, &par);

  EXPECT_EQ(seq.losses, par.losses);
  ExpectNearWeights(seq.store, par.store);
}

// TSan stress: several epochs of pooled minibatches over a model with an
// embedding table (scatter-add gradients) and dense layers. Any gradient
// write that bypasses the per-shard buffers is a data race on the shared
// parameters and shows up under -fsanitize=thread.
TEST(ParallelTrainingTest, StressConcurrentGradientAccumulation) {
  const int kVocab = 40, kDim = 8, kBatch = 16, kEpochs = 12;
  Rng rng(31);
  ParameterStore store;
  Embedding emb(&store, "emb", kVocab, kDim, &rng);
  Linear fc(&store, "fc", kDim, 1, &rng);
  // A fixed example set, so the model memorizes 16 examples and the loss
  // reliably decreases.
  std::vector<std::vector<int>> ids(kBatch);
  for (size_t i = 0; i < ids.size(); ++i) {
    Rng ex_rng(ExampleSeed(99, 0, i));
    for (int t = 0; t < 5; ++t) {
      ids[i].push_back(static_cast<int>(ex_rng.Uniform(kVocab)));
    }
  }
  auto loss = [&](Graph* g, size_t i) {
    Graph::Var logit = fc.Apply(g, g->MeanRows(emb.Lookup(g, ids[i])));
    Tensor target(1, 1);
    target.At(0, 0) = static_cast<float>(i % 2);
    return g->SigmoidCrossEntropyWithLogits(logit, target);
  };
  auto total_loss = [&] {
    float total = 0.0f;
    for (size_t i = 0; i < ids.size(); ++i) {
      Graph g(Graph::kForwardOnly);
      total += g.Value(loss(&g, i)).At(0, 0);
    }
    return total;
  };

  const float first_loss = total_loss();
  ThreadPool pool(4);
  Train(&store, ids.size(),
        {.model = "stress",
         .epochs = kEpochs,
         .lr = 0.05f,
         .batch_size = kBatch,
         .seed = 99,
         .example_rng = ExampleRng::kPerExample,
         .pool = &pool},
        [&](Graph* g, size_t i, Rng*) -> std::optional<Graph::Var> {
          return loss(g, i);
        });
  const float last_loss = total_loss();
  EXPECT_TRUE(std::isfinite(last_loss));
  EXPECT_LT(last_loss, first_loss);  // it memorizes the fixed batch
}

// kShuffleStream on the calling thread is the old serial loop, float for
// float; 11 examples in batches of 4 leave a tail of 3 in each epoch.
TEST(TrainerTest, ShuffleStreamEqualsTheSerialLoop) {
  const std::vector<ToyExample> data = ToyData(11, 1);
  ToyModel trained(5), reference(5);
  TrainToy(&trained, data, ToyOptions(ExampleRng::kShuffleStream, 2, 4));
  SerialReference(&reference, data, 2, 4);
  EXPECT_TRUE(SameWeights(trained.store, reference.store));

  // batch_size <= 0 steps after every example on both.
  ToyModel trained_one(5), reference_one(5);
  TrainToy(&trained_one, data, ToyOptions(ExampleRng::kShuffleStream, 2, 0));
  SerialReference(&reference_one, data, 2, 0);
  EXPECT_TRUE(SameWeights(trained_one.store, reference_one.store));
  EXPECT_FALSE(SameWeights(trained.store, trained_one.store));
}

// kPerExample with a null pool is the old labeler-style loop, float for
// float.
TEST(TrainerTest, PerExampleEqualsTheLabelerLoop) {
  const std::vector<ToyExample> data = ToyData(11, 2);
  ToyModel trained(6), reference(6);
  TrainToy(&trained, data, ToyOptions(ExampleRng::kPerExample, 2, 4));
  PerExampleReference(&reference, data, 2, 4);
  EXPECT_TRUE(SameWeights(trained.store, reference.store));
}

// A pool gives the same weights on every run, bit for bit, and the null
// pool lands within summation-order noise of them.
TEST(ParallelTrainingTest, PooledPerExampleIsDeterministic) {
  const std::vector<ToyExample> data = ToyData(23, 3);
  ThreadPool pool(3);
  ToyModel first(7), second(7), serial(7);
  TrainToy(&first, data, ToyOptions(ExampleRng::kPerExample, 3, 8, &pool));
  TrainToy(&second, data, ToyOptions(ExampleRng::kPerExample, 3, 8, &pool));
  TrainToy(&serial, data, ToyOptions(ExampleRng::kPerExample, 3, 8));
  EXPECT_TRUE(SameWeights(first.store, second.store));
  ExpectNearWeights(first.store, serial.store);
}

// Every pool size trains the same weights, bit for bit: a pooled batch is
// cut into the same four shards whatever the pool's size, and a one-thread
// pool runs them in turn. 19 examples in batches of 8 leave a tail of 3,
// which is cut into three shards.
TEST(ParallelTrainingTest, EveryPoolSizeTrainsTheSameWeights) {
  const std::vector<ToyExample> data = ToyData(19, 12);
  ThreadPool one(1);
  ToyModel reference(13);
  TrainToy(&reference, data, ToyOptions(ExampleRng::kPerExample, 3, 8, &one));
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    ToyModel trained(13);
    TrainToy(&trained, data,
             ToyOptions(ExampleRng::kPerExample, 3, 8, &pool));
    EXPECT_TRUE(SameWeights(trained.store, reference.store))
        << threads << " threads";
  }
}

// An example whose callback returns nothing keeps its slot in its batch and
// adds no gradient.
TEST(TrainerTest, EmptyExampleKeepsItsBatchSlot) {
  std::vector<ToyExample> data = ToyData(11, 4);
  data[2].ids.clear();
  data[7].ids.clear();
  ToyModel trained(8), reference(8), skipping(8);
  TrainToy(&trained, data, ToyOptions(ExampleRng::kPerExample, 2, 3));
  PerExampleReference(&reference, data, 2, 3);
  PerExampleReference(&skipping, data, 2, 3, /*count_empty=*/false);
  EXPECT_TRUE(SameWeights(trained.store, reference.store));
  EXPECT_FALSE(SameWeights(trained.store, skipping.store));
}

// The same rule on a pool: empty examples keep their slots, and a run of
// only empty examples steps on zero gradients, so no weight moves.
TEST(ParallelTrainingTest, PooledEmptyExamplesKeepTheirSlots) {
  std::vector<ToyExample> data = ToyData(11, 4);
  data[2].ids.clear();
  data[7].ids.clear();
  ThreadPool pool(3);
  ToyModel pooled(8), reference(8);
  TrainToy(&pooled, data, ToyOptions(ExampleRng::kPerExample, 2, 3, &pool));
  PerExampleReference(&reference, data, 2, 3);
  ExpectNearWeights(pooled.store, reference.store);

  ToyModel untouched(9), initial(9);
  TrainToy(&untouched, std::vector<ToyExample>(5),
           ToyOptions(ExampleRng::kPerExample, 2, 2, &pool));
  EXPECT_TRUE(SameWeights(untouched.store, initial.store));
}

// Train opens <model>.train under the span open on the calling thread, one
// <model>.epoch per epoch under it, and nothing when no span is open.
TEST(TrainerTest, SpansNestUnderTheCallersSpan) {
  const std::vector<ToyExample> data = ToyData(11, 5);
  obs::Tracer tracer;
  uint64_t outer_id = 0;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    outer_id = outer.id();
    ToyModel m(10);
    TrainToy(&m, data, ToyOptions(ExampleRng::kPerExample, 3, 4));
  }
  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  const obs::SpanRecord* train = nullptr;
  std::vector<const obs::SpanRecord*> epochs;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "toy.train") train = &s;
    if (s.name == "toy.epoch") epochs.push_back(&s);
  }
  ASSERT_NE(train, nullptr);
  EXPECT_EQ(train->parent_id, outer_id);
  EXPECT_EQ(train->attributes,
            (std::vector<std::pair<std::string, std::string>>{
                {"examples", "11"}, {"epochs", "3"}}));
  ASSERT_EQ(epochs.size(), 3u);
  for (const obs::SpanRecord* e : epochs) {
    EXPECT_EQ(e->parent_id, train->id);
    ASSERT_EQ(e->attributes.size(), 2u);
    EXPECT_EQ(e->attributes[0], std::make_pair(std::string("examples"),
                                               std::string("11")));
    EXPECT_EQ(e->attributes[1].first, "mean_loss");
    EXPECT_GT(std::stod(e->attributes[1].second), 0.0);
  }
  EXPECT_EQ(spans.size(), 5u);  // outer, train and three epochs

  EXPECT_EQ(obs::CurrentTracer(), nullptr);
  ToyModel m(10);
  TrainToy(&m, data, ToyOptions(ExampleRng::kPerExample, 3, 4));
  EXPECT_EQ(tracer.size(), 0u);
}

// A graph that adds one store's parameter into another store's buffer
// fails instead of writing into the wrong slot.
TEST(TrainerDeathTest, GradientBufferRejectsAnotherStoresParameter) {
  ParameterStore mine, other;
  mine.Create("w", 1, 2, ParameterStore::Init::kZero, nullptr);
  Parameter* foreign =
      other.Create("v", 1, 2, ParameterStore::Init::kZero, nullptr);
  GradientBuffer buffer(&mine);
  EXPECT_DEATH(buffer.GradFor(foreign), "not in this buffer's store");
}

TEST(TrainerDeathTest, ShuffleStreamOnAPoolFails) {
  const std::vector<ToyExample> data = ToyData(4, 6);
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        ToyModel m(11);
        TrainToy(&m, data,
                 ToyOptions(ExampleRng::kShuffleStream, 1, 2, &pool));
      },
      "kShuffleStream");
}

}  // namespace
}  // namespace alicoco::nn
