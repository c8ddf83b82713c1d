// Commonsense relation inference — the paper's future work, items 1 and 2
// (Section 10): "mining more unseen relations containing commonsense
// knowledge, for example 'boy's T-shirts' implies the 'Time' should be
// 'Summer', even though the term does not appear", and "bring probabilities
// to relations".
//
// The inference is statistical: if items of a category co-occur with a
// season (or an event, via the items' gold associations) far more often
// than chance, propose a typed relation suitable_when(category, season) /
// used_when(category, event) with a lift-derived confidence. Proposals are
// validated against the schema before entering the net.

#ifndef ALICOCO_MINING_RELATION_INFERENCE_H_
#define ALICOCO_MINING_RELATION_INFERENCE_H_

#include <string>
#include <vector>

#include "datagen/world.h"
#include "kg/concept_net.h"

namespace alicoco::mining {

/// One inferred relation with its evidence.
struct InferredRelation {
  std::string relation;     ///< schema relation name
  kg::ConceptId subject;    ///< e.g. a category head
  kg::ConceptId object;     ///< e.g. a season
  double confidence = 0;    ///< lift-derived probability in (0, 1]
  size_t support = 0;       ///< co-occurring items
};

struct RelationInferenceConfig {
  double min_lift = 1.5;    ///< co-occurrence lift over independence
  size_t min_support = 5;   ///< minimum co-occurring items
};

/// Infers schema-typed relations from item statistics in a net.
class RelationInference {
 public:
  /// Cap on a proposal's lift-derived confidence.
  static constexpr double kMaxConfidence = 0.99;

  /// `net` must outlive the engine and carry the "suitable_when" /
  /// "used_when" schema relations.
  explicit RelationInference(const kg::ConceptNet* net);

  /// suitable_when(category, season): a category concept and a Time-domain
  /// concept co-tagged on the same items beyond chance.
  std::vector<InferredRelation> InferSuitableWhen(
      const RelationInferenceConfig& config) const;

  /// used_when(category, event): a category concept whose items associate
  /// with an event-interpreted e-commerce concept beyond chance.
  std::vector<InferredRelation> InferUsedWhen(
      const RelationInferenceConfig& config) const;

  /// Writes proposals into `target` as typed relations (schema-validated;
  /// invalid or duplicate proposals are skipped). Returns how many landed.
  static size_t Commit(const std::vector<InferredRelation>& proposals,
                       kg::ConceptNet* target);

 private:
  const kg::ConceptNet* net_;
};

/// Gold-relative quality of inferred relations over a generated world:
/// a suitable_when proposal is correct iff the world's compatibility model
/// marks the pair compatible; used_when iff the event's needs contain the
/// category head.
struct RelationInferenceQuality {
  size_t proposed = 0;
  size_t correct = 0;
  double precision = 0;
  double recall = 0;  ///< of gold-compatible pairs with enough catalog
                      ///< evidence to be discoverable
};

/// Proposals must reference the world's GOLD net (ids are compared
/// directly). `min_support` defines which gold pairs count as discoverable
/// for the recall denominator.
RelationInferenceQuality EvaluateSuitableWhen(
    const std::vector<InferredRelation>& proposals,
    const datagen::World& world, size_t min_support);

}  // namespace alicoco::mining

#endif  // ALICOCO_MINING_RELATION_INFERENCE_H_
