// MatchPyramid baseline (Pang et al. 2016, simplified): a word-word
// interaction matrix from trainable embeddings, dynamically max-pooled to a
// fixed grid and scored by an MLP.

#ifndef ALICOCO_MATCHING_MATCH_PYRAMID_H_
#define ALICOCO_MATCHING_MATCH_PYRAMID_H_

#include "matching/neural_base.h"

namespace alicoco::matching {

class MatchPyramidMatcher : public NeuralMatcherBase {
 public:
  MatchPyramidMatcher(const NeuralMatcherConfig& config,
                      const text::SkipgramModel* embeddings,
                      const text::Vocabulary* corpus_vocab)
      : NeuralMatcherBase(config, embeddings, corpus_vocab) {}

  std::string name() const override { return "MatchPyramid"; }

 protected:
  void BuildModel() override;
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override;

 private:
  static constexpr int kGrid = 3;  ///< pooled grid is kGrid x kGrid

  std::unique_ptr<nn::Embedding> emb_;
  std::unique_ptr<nn::Mlp> head_;
};

// The two pyramid-layer readouts below are one Graph::Custom node each. Their
// values and input gradients equal, bit for bit, those of the same readouts
// composed from SliceRows / SliceCols / MaxRows / Transpose / MeanRows
// nodes (tests/matching/match_pyramid_test.cc keeps those graphs as the
// reference), because each backward adds into the input gradient in the
// order the composed graph does. When both read one matrix, create
// BestAlignmentStats first, so Backward adds the grid's gradient before the
// stats' gradient, as the composed graph orders them.

/// Max-pools an arbitrary m x l matrix node to a fixed grid x grid vector
/// (1 x grid*grid), row-major over cells. The rows split into
/// min(grid, m) equal bands (likewise the columns); a grid larger than the
/// matrix reuses the last band. Ties go to the first column, then the first
/// row. Shared with the knowledge matcher's pyramid layers.
nn::Graph::Var DynamicGridPool(nn::Graph* g, nn::Graph::Var matrix, int grid);

/// Best-alignment statistics of an m x l match matrix, 1 x 4: the max and
/// mean of the column bests (each item word's best match), then the max and
/// mean of the row bests (each concept-side row's best match).
nn::Graph::Var BestAlignmentStats(nn::Graph* g, nn::Graph::Var matrix);

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_MATCH_PYRAMID_H_
