// Projection-learning hypernymy scorer (Section 4.2.2, Eq. 1-2).
//
// Inputs are frozen distributional phrase embeddings (mean of skip-gram
// token vectors); a K-layer bilinear tensor produces per-layer scores
// s_k = p^T T_k h, combined by a sigmoid-activated linear head into the
// probability that h is a hypernym of p.

#ifndef ALICOCO_HYPERNYM_PROJECTION_MODEL_H_
#define ALICOCO_HYPERNYM_PROJECTION_MODEL_H_

#include <string>
#include <vector>

#include "eval/metrics.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "text/skipgram.h"
#include "text/vocabulary.h"

namespace alicoco::hypernym {

/// A (hyponym, candidate-hypernym, is-hypernym) training example.
struct LabeledPair {
  std::string hypo;
  std::string hyper;
  int label = 0;
};

/// Hyperparameters of the projection model.
struct ProjectionConfig {
  int epochs = 4;
  /// Up-weight positive examples by the negative:positive ratio (capped),
  /// so scores are calibrated around 0.5 despite the 1:N sampling — the
  /// uncertainty signal of Algorithm 1 depends on this.
  bool balance_classes = true;
  uint64_t seed = 23;
};

/// Trainable scorer f(p, h) in [0, 1].
class ProjectionModel {
 public:
  /// `embeddings`/`vocab` provide the frozen phrase representations and
  /// must outlive the model.
  ProjectionModel(const text::SkipgramModel* embeddings,
                  const text::Vocabulary* vocab,
                  const ProjectionConfig& config);

  /// Trains from scratch on `data` (may be called once per instance).
  void Train(const std::vector<LabeledPair>& data);

  /// P(h is a hypernym of p).
  double Score(const std::string& hypo, const std::string& hyper) const;

 private:
  nn::Tensor PhraseEmbedding(const std::string& surface) const;
  nn::Graph::Var Logit(nn::Graph* g, const nn::Tensor& p,
                       const nn::Tensor& h) const;

  const text::SkipgramModel* embeddings_;
  const text::Vocabulary* vocab_;
  ProjectionConfig config_;
  Rng init_rng_;
  nn::ParameterStore store_;
  std::vector<nn::Parameter*> tensors_;  // K of dim x dim
  std::unique_ptr<nn::Linear> head_;     // K -> 1
  bool trained_ = false;
};

/// Evaluates a trained scorer over ranked test queries.
struct RankingTestQuery {
  std::string hypo;
  std::vector<std::string> candidates;
  std::vector<int> labels;  ///< 1 = true hypernym
};

struct RankingMetrics {
  double map = 0;
  double mrr = 0;
  double p_at_1 = 0;
};

RankingMetrics EvaluateRanking(const ProjectionModel& model,
                               const std::vector<RankingTestQuery>& queries);

}  // namespace alicoco::hypernym

#endif  // ALICOCO_HYPERNYM_PROJECTION_MODEL_H_
