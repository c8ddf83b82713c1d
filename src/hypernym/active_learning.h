// Active-learning loop for hypernym discovery (Algorithm 1, Section 4.2.3).
//
// Strategies: Random (no AL), classical uncertainty sampling (US), pure
// confidence sampling (CS), and the paper's uncertainty-and-high-confidence
// sampling (UCS) that mixes alpha*K most-uncertain with (1-alpha)*K
// highest-confidence samples per round. The oracle is the pool's hidden
// gold labels; annotation cost is counted in labeled pairs exactly as
// Table 3 does.

#ifndef ALICOCO_HYPERNYM_ACTIVE_LEARNING_H_
#define ALICOCO_HYPERNYM_ACTIVE_LEARNING_H_

#include <string>
#include <vector>

#include "datagen/world.h"
#include "hypernym/projection_model.h"

namespace alicoco::hypernym {

enum class SamplingStrategy { kRandom, kUncertainty, kConfidence, kUcs };

const char* StrategyName(SamplingStrategy s);

/// The Section-7.3 dataset: a labeled candidate pool (labels hidden until
/// "annotated"), a validation set, and ranked test queries.
struct HypernymDataset {
  std::vector<LabeledPair> pool;        ///< candidate training pool
  std::vector<LabeledPair> validation;
  std::vector<RankingTestQuery> test;
};

/// Builds the dataset from gold pairs: positives split 7:2:1 into
/// train/validation/test; negatives generated by replacing the hypernym
/// with a random vocabulary surface (`negatives_per_positive` = the N of
/// Figure 9 left); test queries rank the gold hypernym among
/// `test_candidates` distractors.
HypernymDataset BuildHypernymDataset(
    const std::vector<datagen::HypernymGold>& gold,
    const std::vector<std::string>& vocabulary, int negatives_per_positive,
    int test_candidates, uint64_t seed);

/// Supervised baseline: train on the whole pool, evaluate on test (used for
/// the Figure 9 left sweep over N).
RankingMetrics TrainOnPoolAndEvaluate(const text::SkipgramModel* embeddings,
                                      const text::Vocabulary* vocab,
                                      const ProjectionConfig& model_config,
                                      const HypernymDataset& dataset);

/// Loop configuration.
struct ActiveLearningConfig {
  size_t per_round = 2000;  ///< K: labels bought per iteration
  int max_rounds = 10;
  int patience = 2;         ///< stop after this many non-improving rounds
  ProjectionConfig model;
};

/// Metrics after each round.
struct RoundStats {
  size_t labeled_total = 0;
  RankingMetrics metrics;
};

struct ActiveLearningResult {
  std::vector<RoundStats> rounds;
  double best_map = 0;
  size_t labeled_at_best = 0;

  /// Smallest labeled size whose round reached `target_map` (0 if never).
  size_t LabeledToReach(double target_map) const;
};

/// Runs Algorithm 1 with one strategy over a dataset.
class ActiveLearner {
 public:
  ActiveLearner(const text::SkipgramModel* embeddings,
                const text::Vocabulary* vocab,
                const ActiveLearningConfig& config);

  ActiveLearningResult Run(SamplingStrategy strategy,
                           const HypernymDataset& dataset,
                           uint64_t seed) const;

 private:
  const text::SkipgramModel* embeddings_;
  const text::Vocabulary* vocab_;
  ActiveLearningConfig config_;
};

}  // namespace alicoco::hypernym

#endif  // ALICOCO_HYPERNYM_ACTIVE_LEARNING_H_
