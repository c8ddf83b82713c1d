// Shared machinery for the trainable matchers: vocabulary construction over
// the dataset, pretrained-initialized embedding tables, and the BCE loss
// that nn::Train minimizes.

#ifndef ALICOCO_MATCHING_NEURAL_BASE_H_
#define ALICOCO_MATCHING_NEURAL_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "matching/dataset.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "text/skipgram.h"
#include "text/vocabulary.h"

namespace alicoco::matching {

/// Hyperparameters shared by the neural matchers.
struct NeuralMatcherConfig {
  int epochs = 3;
  uint64_t seed = 61;
};

/// Base for matchers trained with sigmoid cross-entropy over pair logits.
class NeuralMatcherBase : public Matcher {
 public:
  /// `embeddings`/`corpus_vocab` may be null: embeddings then start random.
  NeuralMatcherBase(const NeuralMatcherConfig& config,
                    const text::SkipgramModel* embeddings,
                    const text::Vocabulary* corpus_vocab);

  void Train(const MatchingDataset& dataset) final;

  double Score(const std::vector<std::string>& concept_tokens,
               const std::vector<std::string>& item_tokens,
               int64_t item_id) const final;

  /// When set, every Score() call records its latency (microseconds) into
  /// `histogram`; pass nullptr to detach. The histogram must outlive the
  /// matcher (registry-owned histograms always do).
  void set_score_latency_histogram(obs::Histogram* histogram) {
    score_latency_us_ = histogram;
  }

 protected:
  /// Builds the model's layers once the vocabulary is known.
  virtual void BuildModel() = 0;

  /// Pair logit (1x1). `train` enables dropout in subclasses.
  virtual nn::Graph::Var Logit(nn::Graph* g,
                               const std::vector<int>& concept_ids,
                               const std::vector<int>& item_ids, bool train,
                               Rng* rng) const = 0;

  /// Creates an embedding layer initialized from the pretrained table where
  /// token strings overlap.
  std::unique_ptr<nn::Embedding> MakeEmbedding(const std::string& name);

  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

  /// Word-embedding width, which a pretrained table must match, and the
  /// hidden width of every matcher's layers.
  static constexpr int kEmbedDim = 20;
  static constexpr int kHidden = 16;

  NeuralMatcherConfig config_;
  const text::SkipgramModel* pretrained_;
  const text::Vocabulary* corpus_vocab_;
  text::Vocabulary vocab_;
  Rng init_rng_;
  nn::ParameterStore store_;
  bool trained_ = false;
  obs::Histogram* score_latency_us_ = nullptr;
};

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_NEURAL_BASE_H_
