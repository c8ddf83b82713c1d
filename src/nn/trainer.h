// The minibatch training loop every model in this repo runs.
//
// A model builds its vocabulary and layers, then hands nn::Train a loss
// callback. Train owns the rest: Adam, the example order and its shuffle
// each epoch, fixed-size minibatches (the last one may be shorter), the
// step and ZeroGrad after each batch, and the pool shards.
//
// Shards: with a pool, a batch of `count` examples is split into
// min(count, 4) contiguous shards, whatever the pool's size; a pool with
// fewer threads runs them in turn. Each shard builds its graphs against its
// own GradientBuffer, so concurrent backward passes never touch the shared
// Parameter::grad tensors; after the batch barrier the buffers are reduced
// into Parameter::grad on the calling thread, in shard order. With a null
// pool or a one-example batch, graphs add straight into Parameter::grad.
// Shard boundaries are a pure function of the batch size and the reduction
// order is fixed, so every pool size gives bit-identical weights. The null
// pool sums each batch gradient in another order, so its weights differ
// from the pooled ones by rounding.
//
// Spans: with a span open on the calling thread, Train records
// `<model>.train` (attributes: examples, epochs) under it, with one
// `<model>.epoch` child per epoch (attributes: examples, mean_loss), in
// that span's tracer. With no open span it records nothing.

#ifndef ALICOCO_NN_TRAINER_H_
#define ALICOCO_NN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "common/rng.h"
#include "nn/graph.h"

namespace alicoco {
class ThreadPool;
}  // namespace alicoco

namespace alicoco::nn {

/// Mixes a base seed with an (epoch, example) coordinate into an
/// independent per-example stream (splitmix64 finalizer). Thread-count
/// invariant: the stream depends only on which example is being processed.
inline uint64_t ExampleSeed(uint64_t base, uint64_t epoch, uint64_t example) {
  uint64_t z = base + 0x9E3779B97F4A7C15ull * (epoch + 1) +
               0xBF58476D1CE4E5B9ull * (example + 1);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

/// Where the Rng handed to a loss callback comes from.
enum class ExampleRng {
  /// Rng(ExampleSeed(seed, epoch, index)), fresh per example: the draws do
  /// not depend on which shard or batch position the example lands in.
  kPerExample,
  /// The shuffle stream itself, drawn in example order. It keeps the
  /// floats of the models that always trained serially, so it runs only
  /// on the calling thread: a non-null pool CHECK-fails.
  kShuffleStream,
};

/// One training run. No field but `pool` has a default: each model states
/// all of them.
struct TrainOptions {
  std::string_view model;  ///< names the spans: <model>.train, <model>.epoch
  int epochs;
  float lr;               ///< Adam's learning rate
  int batch_size;         ///< <= 0 steps after every example
  uint64_t seed;          ///< the model's salted seed: shuffle and ExampleSeed
  ExampleRng example_rng;
  ThreadPool* pool = nullptr;  ///< not owned; null trains on this thread
};

/// Builds example `index`'s graph and returns its 1x1 loss, or nullopt for
/// an example with nothing to learn (it keeps its batch slot and adds no
/// gradient). Train runs Backward. With a pool the callback runs on worker
/// threads and must touch shared model state read-only.
using ExampleLoss =
    std::function<std::optional<Graph::Var>(Graph* g, size_t index, Rng* rng)>;

/// Trains `store`'s parameters on examples [0, num_examples).
void Train(ParameterStore* store, size_t num_examples,
           const TrainOptions& options, const ExampleLoss& loss);

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_TRAINER_H_
