// Skip-gram with negative sampling (SGNS) word-embedding trainer.
//
// Replaces the pre-trained GloVe / word2vec vectors the paper's models
// consume (Sections 4.2.2, 5.3.1, 6): dense distributional vectors trained
// on the synthetic e-commerce corpus.

#ifndef ALICOCO_TEXT_SKIPGRAM_H_
#define ALICOCO_TEXT_SKIPGRAM_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "text/vocabulary.h"

namespace alicoco::text {

/// Training configuration for SGNS.
struct SkipgramConfig {
  int dim = 24;            ///< embedding dimensionality
  int epochs = 3;
  double subsample = 1e-3; ///< frequent-word subsampling threshold; <=0 off
  uint64_t seed = 17;
};

/// Trains and serves word embeddings.
class SkipgramModel {
 public:
  SkipgramModel(int vocab_size, const SkipgramConfig& config);

  /// Trains on a corpus of id sentences. Counts come from `vocab` for the
  /// negative-sampling table and subsampling.
  void Train(const std::vector<std::vector<int>>& corpus,
             const Vocabulary& vocab);

  int dim() const { return config_.dim; }
  int vocab_size() const { return vocab_size_; }

  /// Input-embedding row of a word id (the vectors consumers use).
  const float* Embedding(int id) const;

  /// Copy of the full input-embedding table (vocab_size x dim, row-major).
  std::vector<float> EmbeddingTable() const { return in_; }

  /// Cosine similarity between two word ids.
  float Cosine(int a, int b) const;

  /// Ids of the k nearest words to `id` by cosine (excluding `id`).
  std::vector<int> Nearest(int id, size_t k) const;

 private:
  void BuildNegativeTable(const Vocabulary& vocab);
  void TrainPair(int center, int context, float lr, Rng* rng);

  int vocab_size_;
  SkipgramConfig config_;
  std::vector<float> in_;   // vocab x dim
  std::vector<float> out_;  // vocab x dim
  std::vector<int> neg_table_;
};

}  // namespace alicoco::text

#endif  // ALICOCO_TEXT_SKIPGRAM_H_
