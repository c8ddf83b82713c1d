// Needs-oriented question answering (Section 8.1.2).
//
// The paper's "ongoing" application: instead of keyword search, the user
// asks "What should I prepare for hosting next week's barbecue?" and the
// engine answers from the concept net — recognize the need (event /
// e-commerce concept) inside the question, surface the knowledge card:
// the interpretation, the isA context, and the associated items.

#ifndef ALICOCO_APPS_QUESTION_ANSWERING_H_
#define ALICOCO_APPS_QUESTION_ANSWERING_H_

#include <cstdint>
#include <optional>
#include <string>
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
  /// `net` must outlive the answerer and must not change after it is
  /// built.
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
  /// The best `limit` recognized needs as (score, concept id), best first.
  std::vector<std::pair<double, uint32_t>> Rank(const std::string& question,
                                                size_t limit) const;

  NeedsAnswer BuildAnswer(kg::EcConceptId id, double score,
                          size_t max_items) const;

  const kg::ConceptNet* net_;
};

}  // namespace alicoco::apps

#endif  // ALICOCO_APPS_QUESTION_ANSWERING_H_
