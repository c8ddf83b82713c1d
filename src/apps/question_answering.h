// Needs-oriented question answering (Section 8.1.2).
//
// The paper's "ongoing" application: instead of keyword search, the user
// asks "What should I prepare for hosting next week's barbecue?" and the
// engine answers from the concept net — recognize the need (event /
// e-commerce concept) inside the question, surface the knowledge card:
// the interpretation, the isA context, and the associated items.
//
// Recognition ranks from a surface table built once per net: every
// e-commerce and primitive concept surface maps to the concept it names
// and to the concepts its primitive senses interpret. A question span
// costs one hash lookup; the card itself is read from the net.

#ifndef ALICOCO_APPS_QUESTION_ANSWERING_H_
#define ALICOCO_APPS_QUESTION_ANSWERING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kg/concept_net.h"

namespace alicoco::apps {

/// A structured answer — the "knowledge card" of Figure 2(a).
struct NeedsAnswer {
  kg::EcConceptId concept_id;            ///< the recognized need
  std::string concept_surface;
  /// The need's interpretation: (domain, surface) per primitive concept.
  std::vector<std::pair<std::string, std::string>> interpretation;
  std::vector<kg::ItemId> items;         ///< what to prepare
  std::vector<std::string> related_needs;  ///< isA-related concepts
  double score = 0;                      ///< recognition confidence
};

/// Recognizes user needs inside free-form questions and answers from the
/// net. Pure retrieval — no trained model, so it runs on any net.
class NeedsQuestionAnswerer {
 public:
  /// Builds the surface table from `net` once. `net` must outlive the
  /// answerer and must not change after it is built: the table is not
  /// refreshed, and answering on a net that has gained e-commerce
  /// concepts, primitive concepts or interpretation links since fails a
  /// CHECK.
  explicit NeedsQuestionAnswerer(const kg::ConceptNet* net);

  /// Answers a question. Recognition: the longest e-commerce-concept
  /// surface contained in the question wins; otherwise the densest
  /// combination of primitive concepts that interprets some concept.
  /// Returns nullopt when no need is recognizable.
  std::optional<NeedsAnswer> Answer(const std::string& question,
                                    size_t max_items = 8) const;

  /// All needs recognized in the question, best first.
  std::vector<NeedsAnswer> AnswerAll(const std::string& question,
                                     size_t max_items = 8) const;

 private:
  /// What a surface names: the e-commerce concept FindEcConcept returns
  /// for it (kNoConcept if none), and in voters_[voters_begin ..
  /// voters_end) the concepts its senses interpret, FindPrimitive x
  /// EcConceptsForPrimitive in that order.
  struct Surface {
    static constexpr uint32_t kNoConcept = UINT32_MAX;
    uint32_t ec = kNoConcept;
    uint32_t voters_begin = 0;
    uint32_t voters_end = 0;
  };

  /// The best `limit` recognized needs as (score, concept id), best first.
  std::vector<std::pair<double, uint32_t>> Rank(const std::string& question,
                                                size_t limit) const;

  NeedsAnswer BuildAnswer(kg::EcConceptId id, double score,
                          size_t max_items) const;

  const kg::ConceptNet* net_;
  // The surface table, keyed by every e-commerce and primitive concept
  // surface of the net.
  std::unordered_map<std::string, Surface> surfaces_;
  std::vector<uint32_t> voters_;
  size_t num_ec_concepts_ = 0;
  size_t num_primitives_ = 0;
  size_t num_interpretation_links_ = 0;
};

}  // namespace alicoco::apps

#endif  // ALICOCO_APPS_QUESTION_ANSWERING_H_
