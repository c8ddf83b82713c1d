// A small sequence tagger for the graph-arena tests: Embedding -> BiLSTM ->
// Affine -> sigmoid cross-entropy, the shape of the paper's sequence models.

#ifndef ALICOCO_TESTS_NN_TAGGER_NET_H_
#define ALICOCO_TESTS_NN_TAGGER_NET_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/rnn.h"

namespace alicoco::nn::testing {

struct TaggerNet {
  static constexpr int kVocab = 40, kEmbed = 8, kHidden = 6;

  explicit TaggerNet(uint64_t seed)
      : rng(seed),
        emb(&store, "emb", kVocab, kEmbed, &rng),
        lstm(&store, "lstm", kEmbed, kHidden, &rng),
        head(&store, "head", 2 * kHidden, 1, &rng) {}

  /// The per-token logits (T x 1) of `ids`.
  Graph::Var Logits(Graph* g, const std::vector<int>& ids) const {
    return head.Apply(g, lstm.Run(g, emb.Lookup(g, ids)));
  }

  ParameterStore store;
  Rng rng;
  Embedding emb;
  BiLstm lstm;
  Linear head;
};

/// A sentence of `len` token ids and its 0/1 targets, drawn from `seed`.
struct Sentence {
  Sentence(int len, uint64_t seed) : targets(len, 1) {
    Rng rng(seed);
    for (int i = 0; i < len; ++i) {
      ids.push_back(
          static_cast<int>(rng.UniformInt(0, TaggerNet::kVocab - 1)));
      targets.At(i, 0) = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    }
  }
  std::vector<int> ids;
  Tensor targets;
};

/// What one training graph computed, copied out of it.
struct TaggerResult {
  float loss = 0;
  Tensor logits;
  std::vector<Tensor> grads;  ///< one per parameter, in store order
};

/// Builds a training graph for `s`, runs Backward into the parameters'
/// grads (zeroed first) and copies the results out.
inline TaggerResult TrainStep(TaggerNet* net, const Sentence& s) {
  net->store.ZeroGrad();
  TaggerResult r;
  {
    Graph g;
    Graph::Var logits = net->Logits(&g, s.ids);
    Graph::Var loss = g.SigmoidCrossEntropyWithLogits(logits, s.targets);
    g.Backward(loss);
    r.loss = g.Value(loss).At(0, 0);
    r.logits = g.Value(logits);
  }
  for (const auto& p : net->store.params()) r.grads.push_back(p->grad);
  return r;
}

inline bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

inline bool BitEqual(const TaggerResult& a, const TaggerResult& b) {
  if (std::memcmp(&a.loss, &b.loss, sizeof(float)) != 0) return false;
  if (!BitEqual(a.logits, b.logits) || a.grads.size() != b.grads.size()) {
    return false;
  }
  for (size_t i = 0; i < a.grads.size(); ++i) {
    if (!BitEqual(a.grads[i], b.grads[i])) return false;
  }
  return true;
}

}  // namespace alicoco::nn::testing

#endif  // ALICOCO_TESTS_NN_TAGGER_NET_H_
