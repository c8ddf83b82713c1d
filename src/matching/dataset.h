// Concept-item matching dataset and the common matcher interface
// (Section 6 / Section 7.6, Table 6).
//
// Positives are the world's gold e-commerce-concept -> item associations
// (including the semantic-drift ones); negatives are random non-associated
// items. Test concepts are held out entirely so every model is scored on
// unseen needs. P@10 uses per-concept ranking queries.

#ifndef ALICOCO_MATCHING_DATASET_H_
#define ALICOCO_MATCHING_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/world.h"
#include "eval/metrics.h"

namespace alicoco::matching {

/// One (concept, item) pair.
struct MatchingExample {
  std::vector<std::string> concept_tokens;
  std::vector<std::string> item_tokens;
  int64_t item_id = -1;
  int label = 0;
};

/// One ranking query: a concept with candidate items.
struct RankQuery {
  std::vector<std::string> concept_tokens;
  std::vector<std::vector<std::string>> item_tokens;
  std::vector<int64_t> item_ids;
  std::vector<int> labels;
};

struct MatchingDataset {
  std::vector<MatchingExample> train;
  std::vector<MatchingExample> test;
  std::vector<RankQuery> rank_queries;
};

struct MatchingDatasetConfig {
  int rank_candidates = 20;  ///< negatives per ranking query
  size_t max_positives_per_concept = 12;
  uint64_t seed = 71;
};

MatchingDataset BuildMatchingDataset(const datagen::World& world,
                                     const MatchingDatasetConfig& config);

/// Common interface of the Table 6 systems.
class Matcher {
 public:
  virtual ~Matcher() = default;
  virtual std::string name() const = 0;
  /// Trains on the dataset's train split (no-op for BM25 beyond indexing).
  virtual void Train(const MatchingDataset& dataset) = 0;
  /// Relevance score of an item to a concept (higher = more relevant).
  virtual double Score(const std::vector<std::string>& concept_tokens,
                       const std::vector<std::string>& item_tokens,
                       int64_t item_id) const = 0;
};

/// AUC / F1 (threshold `threshold`) over the test split and P@10 over the
/// ranking queries.
struct MatcherMetrics {
  double auc = 0;
  double f1 = 0;
  double p_at_10 = 0;
};

MatcherMetrics EvaluateMatcher(const Matcher& matcher,
                               const MatchingDataset& dataset,
                               double threshold = 0.5);

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_DATASET_H_
