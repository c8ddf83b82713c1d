// The synthetic e-commerce world.
//
// Substitutes Alibaba's proprietary assets (Section 1 of DESIGN.md): a
// generative model of a product universe whose gold structure is known, so
// every construction task of the paper has both training text and
// evaluation labels:
//
//   * a gold ConceptNet (taxonomy, primitive concepts with glosses,
//     hypernym edges, e-commerce concepts with interpretations, items with
//     gold associations including semantic-drift ones);
//   * corpora (product titles, queries, reviews, shopping guides) with gold
//     IOB span labels for distant supervision and NER evaluation;
//   * a compatibility model (which functions suit which events, which
//     styles suit which categories, ...) that defines concept plausibility
//     and item relevance — the commonsense the knowledge-enhanced models
//     must recover from glosses.

#ifndef ALICOCO_DATAGEN_WORLD_H_
#define ALICOCO_DATAGEN_WORLD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "datagen/grammar.h"
#include "datagen/vocab_gen.h"
#include "datagen/world_spec.h"
#include "kg/concept_net.h"
#include "text/pos_tagger.h"

namespace alicoco::datagen {

/// Size and randomness knobs. Defaults produce a bench-scale world (a few
/// thousand items) in well under a second.
struct WorldConfig {
  uint64_t seed = 42;
  int heads_per_leaf = 3;      ///< head nouns per leaf category class
  int derived_per_head = 5;    ///< 2-token hyponyms per head
  int per_domain_vocab = 30;   ///< concepts per attribute domain
  int num_events = 28;
  int num_items = 4000;
  int num_good_ec_concepts = 320;
  int num_bad_ec_concepts = 320;
  int titles = 5000;           ///< corpus sizes by source
  int reviews = 2500;
  int guides = 1200;
  int queries = 2000;
  int num_users = 200;
  int num_needs_queries = 600; ///< rewritten queries for the coverage eval
  double ambiguous_fraction = 0.08;        ///< surfaces minted in 2 domains
  double holdout_category_fraction = 0.3;  ///< derived concepts hidden from
                                           ///< the seed dictionary (mining
                                           ///< discovery targets)
};

/// Gold hypernym pair (surfaces, both Category concepts).
struct HypernymGold {
  std::string hypo;
  std::string hyper;
};

/// A labeled candidate e-commerce concept (Section 5.2).
struct ConceptCandidate {
  enum class Flaw {
    kNone,            ///< good concept
    kImplausible,     ///< violates the compatibility model
    kIncoherent,      ///< scrambled word order
    kDuplicateClass,  ///< two mutually exclusive modifiers
    kNonEcommerce,    ///< no shopping meaning ("blue sky")
    kFragment,        ///< two concepts jammed together (Clarity violation,
                      ///< the shape phrase mining produces by accident)
  };
  std::vector<std::string> tokens;
  bool good = false;
  Flaw flaw = Flaw::kNone;
};

/// A gold-tagged e-commerce concept for the tagging task (Section 5.3):
/// per-token primary domain label plus the full set of defensible labels
/// (the fuzzy-CRF supervision).
struct TaggedConcept {
  std::vector<std::string> tokens;
  std::vector<std::string> gold_iob;
  std::vector<std::vector<std::string>> allowed_iob;  ///< >=1 label per token
};

/// Gold structure of one good e-commerce concept.
struct EcGold {
  kg::EcConceptId id;
  std::vector<kg::ConceptId> interpretation;  ///< primitive concepts
  std::vector<kg::ItemId> items;              ///< gold associated items
  bool event_driven = false;  ///< associations exist only through the event
                              ///< profile (semantic drift, Section 6)
};

/// Gold attributes of one item.
struct ItemProfile {
  kg::ItemId id;
  kg::ConceptId category;   ///< its category concept (head or derived)
  kg::ConceptId head;       ///< head concept (== category for heads)
  kg::ClassId leaf_class;
  std::vector<kg::ConceptId> attributes;  ///< brand/color/function/style/...
  std::optional<kg::ConceptId> season;    ///< seasonal constraint if any
};

/// One synthetic user for the recommendation application.
struct UserHistory {
  std::vector<kg::ItemId> clicked;
  std::vector<kg::EcConceptId> needs;  ///< latent gold needs
};

/// The generated world. Immutable after Generate().
class World {
 public:
  static World Generate(const WorldConfig& config);

  const WorldConfig& config() const { return config_; }
  const kg::ConceptNet& net() const { return net_; }
  kg::ConceptNet* mutable_net() { return &net_; }
  const TaxonomyHandles& handles() const { return handles_; }
  const text::PosTagger& pos_tagger() const { return pos_tagger_; }

  const std::vector<Sentence>& sentences() const { return sentences_; }

  /// Gold hyponym->hypernym pairs inside Category (Section 7.3 dataset).
  const std::vector<HypernymGold>& hypernym_gold() const {
    return hypernym_gold_;
  }

  /// All Category concept surfaces (the hypernym search space).
  const std::vector<std::string>& category_vocabulary() const {
    return category_vocabulary_;
  }

  /// Labeled good/bad concept candidates (Section 7.4 dataset).
  const std::vector<ConceptCandidate>& concept_candidates() const {
    return concept_candidates_;
  }

  /// Gold-tagged concepts (Section 7.5 dataset).
  const std::vector<TaggedConcept>& tagged_concepts() const {
    return tagged_concepts_;
  }

  /// Gold e-commerce concept structure (Section 7.6 positives).
  const std::vector<EcGold>& ec_gold() const { return ec_gold_; }

  const std::vector<ItemProfile>& item_profiles() const {
    return item_profiles_;
  }

  const std::vector<UserHistory>& user_histories() const {
    return user_histories_;
  }

  /// Derived Category surfaces excluded from the seed dictionary — the
  /// targets the mining loop of Section 7.2 must discover from text.
  const std::vector<std::string>& holdout_surfaces() const {
    return holdout_surfaces_;
  }

  /// Bootstrap dictionary: (surface, domain label) pairs known before any
  /// mining (everything except the holdout).
  const std::vector<std::pair<std::string, std::string>>& seed_dictionary()
      const {
    return seed_dictionary_;
  }

  /// Rewritten user-needs queries for the coverage evaluation (Section 7.1).
  const std::vector<std::vector<std::string>>& needs_queries() const {
    return needs_queries_;
  }

  /// Domain label (first-level class name) of a primitive concept.
  std::string DomainLabel(kg::ConceptId id) const;

  /// Mid-level "group" concepts — hypernyms of heads with token-disjoint
  /// surfaces (exercised by search relevance, Section 8.1.1).
  const std::vector<kg::ConceptId>& group_concepts() const { return groups_; }

  /// Gold compatibility between two primitive concepts of the gold net
  /// (category concepts are normalized to their head first). This is the
  /// ground truth for inferred commonsense relations.
  bool GoldCompatible(kg::ConceptId a, kg::ConceptId b) const;

  /// Ground-truth goodness of an arbitrary candidate concept: true iff the
  /// tokens parse as one of the generation patterns AND satisfy the world's
  /// compatibility model (the commonsense the classifier must learn). This
  /// is the annotation oracle for audits — membership in the sampled gold
  /// list is NOT required.
  bool IsGoodConcept(const std::vector<std::string>& tokens) const;

 private:
  World() = default;

  // Generation phases (called by Generate in order).
  void MintPrimitiveConcepts(WordMinter* minter, Rng* rng);
  void BuildCompatibility(Rng* rng);
  void WriteGlosses(Rng* rng);
  void GenerateItems(Rng* rng);
  void GenerateEcConcepts(Rng* rng);
  void GenerateCandidates(Rng* rng);
  void GenerateCorpus(Rng* rng);
  void GenerateUsers(Rng* rng);
  void GenerateNeedsQueries(Rng* rng);
  void BuildSeedDictionary(Rng* rng);

  // Helpers.
  const std::vector<std::string>& Tokens(kg::ConceptId id) const;
  bool Compatible(kg::ConceptId a, kg::ConceptId b) const;
  void MarkCompatible(kg::ConceptId a, kg::ConceptId b);
  kg::ConceptId Sample(const std::vector<kg::ConceptId>& pool, Rng* rng) const;

  WorldConfig config_;
  TaxonomyHandles handles_;
  kg::ConceptNet net_;
  text::PosTagger pos_tagger_;

  // Per-domain concept pools.
  std::vector<kg::ConceptId> heads_;      // Category heads
  std::vector<kg::ConceptId> groups_;     // mid-level hypernyms of heads whose
                                          // surfaces share no token with them
                                          // (the "jacket isA top" case)
  std::vector<kg::ConceptId> derived_;    // Category hyponyms
  std::unordered_map<kg::ConceptId, kg::ConceptId> head_of_;  // derived->head
  std::unordered_map<kg::ConceptId, std::vector<kg::ConceptId>>
      derived_of_;                        // head->derived
  std::vector<kg::ConceptId> brands_, colors_, functions_, styles_,
      materials_, audiences_, locations_, events_, seasons_, holidays_,
      ips_, organizations_, patterns_, shapes_, smells_, tastes_, designs_,
      natures_, quantities_, modifiers_;

  // Token cache: concept id -> tokens of its surface.
  std::unordered_map<kg::ConceptId, std::vector<std::string>> tokens_;

  // Compatibility relation (symmetric) between primitive concepts.
  std::unordered_set<uint64_t> compatible_;

  // Event profiles: event -> categories (heads) it needs.
  std::unordered_map<kg::ConceptId, std::vector<kg::ConceptId>>
      event_needs_;

  std::vector<Sentence> sentences_;
  std::vector<HypernymGold> hypernym_gold_;
  std::vector<std::string> category_vocabulary_;
  std::vector<ConceptCandidate> concept_candidates_;
  std::vector<TaggedConcept> tagged_concepts_;
  std::vector<EcGold> ec_gold_;
  std::vector<ItemProfile> item_profiles_;
  std::vector<UserHistory> user_histories_;
  std::vector<std::string> holdout_surfaces_;
  std::unordered_set<std::string> holdout_set_;
  std::vector<std::pair<std::string, std::string>> seed_dictionary_;
  std::vector<std::vector<std::string>> needs_queries_;
};

}  // namespace alicoco::datagen

#endif  // ALICOCO_DATAGEN_WORLD_H_
