#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace alicoco::nn {
namespace {

// Shards per pooled batch, whatever the pool's size: the weights depend on
// the shard boundaries, so fixing their number makes every pool size train
// the same model.
constexpr size_t kShards = 4;

}  // namespace

void Train(ParameterStore* store, size_t num_examples,
           const TrainOptions& options, const ExampleLoss& loss) {
  const bool shuffle_stream =
      options.example_rng == ExampleRng::kShuffleStream;
  ALICOCO_CHECK(!shuffle_stream || options.pool == nullptr)
      << options.model << ": kShuffleStream draws in example order, so it "
      << "cannot shard over a pool";
  obs::Tracer* tracer = obs::CurrentTracer();
  const std::string model(options.model);
  obs::ScopedSpan train_span(tracer, model + ".train");
  train_span.AddAttribute("examples", static_cast<uint64_t>(num_examples));
  train_span.AddAttribute("epochs",
                          static_cast<uint64_t>(std::max(0, options.epochs)));
  const std::string epoch_name = model + ".epoch";

  Adam adam(options.lr);
  Rng shuffle_rng(options.seed);
  std::vector<size_t> order(num_examples);
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t batch = static_cast<size_t>(std::max(1, options.batch_size));
  // One gradient buffer and one loss per shard, kept across batches.
  std::vector<GradientBuffer> buffers(
      options.pool == nullptr ? 0 : std::min(batch, kShards),
      GradientBuffer(store));
  std::vector<float> shard_loss(buffers.size());
  uint64_t epoch = 0;

  // Builds one example's graph, runs its backward pass and returns its loss.
  auto example = [&](GradientBuffer* buffer, size_t index) {
    Rng example_rng(ExampleSeed(options.seed, epoch, index));
    Graph g(buffer);
    const std::optional<Graph::Var> l =
        loss(&g, index, shuffle_stream ? &shuffle_rng : &example_rng);
    if (!l.has_value()) return 0.0f;
    g.Backward(*l);
    return g.Value(*l).At(0, 0);
  };
  // Runs the `count` examples at `ids` into the parameters' grads and
  // returns their summed loss.
  auto run_batch = [&](const size_t* ids, size_t count) {
    float total = 0.0f;
    if (options.pool == nullptr || count <= 1) {
      for (size_t i = 0; i < count; ++i) total += example(nullptr, ids[i]);
      return total;
    }
    const size_t shards = std::min(count, kShards);
    const size_t per = (count + shards - 1) / shards;
    std::fill(shard_loss.begin(), shard_loss.end(), 0.0f);
    for (size_t s = 0; s < shards; ++s) {
      const size_t lo = s * per;
      const size_t hi = std::min(count, lo + per);
      if (lo >= hi) break;
      options.pool->Submit([&, s, lo, hi] {
        float local = 0.0f;
        for (size_t i = lo; i < hi; ++i) {
          local += example(&buffers[s], ids[i]);
        }
        shard_loss[s] = local;
      });
    }
    options.pool->Wait();
    for (size_t s = 0; s < shards; ++s) total += shard_loss[s];
    // Deterministic reduction: shard order, calling thread only.
    for (size_t s = 0; s < shards; ++s) buffers[s].ReduceInto();
    return total;
  };

  store->ZeroGrad();
  for (int e = 0; e < options.epochs; ++e) {
    obs::ScopedSpan epoch_span(tracer, epoch_name);
    epoch = static_cast<uint64_t>(e);
    shuffle_rng.Shuffle(&order);
    double epoch_loss = 0.0;
    for (size_t start = 0; start < num_examples; start += batch) {
      epoch_loss += run_batch(order.data() + start,
                              std::min(batch, num_examples - start));
      adam.Step(store);
      store->ZeroGrad();
    }
    epoch_span.AddAttribute("examples", static_cast<uint64_t>(num_examples));
    epoch_span.AddAttribute(
        "mean_loss", num_examples == 0
                         ? 0.0
                         : epoch_loss / static_cast<double>(num_examples));
  }
}

}  // namespace alicoco::nn
