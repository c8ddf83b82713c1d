#include "apps/question_answering.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace alicoco::apps {

NeedsQuestionAnswerer::NeedsQuestionAnswerer(const kg::ConceptNet* net)
    : net_(net) {
  ALICOCO_CHECK(net != nullptr);
}

NeedsAnswer NeedsQuestionAnswerer::BuildAnswer(kg::EcConceptId id,
                                               double score,
                                               size_t max_items) const {
  NeedsAnswer answer;
  answer.concept_id = id;
  answer.concept_surface = net_->Get(id).surface;
  answer.score = score;
  const auto& tax = net_->taxonomy();
  for (kg::ConceptId prim : net_->PrimitivesForEc(id)) {
    const auto& concept_info = net_->Get(prim);
    answer.interpretation.emplace_back(
        tax.Get(tax.Domain(concept_info.cls)).name, concept_info.surface);
  }
  for (kg::ItemId item : net_->ItemsForEc(id)) {
    answer.items.push_back(item);
    if (answer.items.size() >= max_items) break;
  }
  for (kg::EcConceptId parent : net_->EcParents(id)) {
    answer.related_needs.push_back(net_->Get(parent).surface);
  }
  for (kg::EcConceptId child : net_->EcChildren(id)) {
    answer.related_needs.push_back(net_->Get(child).surface);
    if (answer.related_needs.size() >= 5) break;
  }
  return answer;
}

std::vector<std::pair<double, uint32_t>> NeedsQuestionAnswerer::Rank(
    const std::string& question, size_t limit) const {
  std::vector<std::string> tokens = text::Tokenize(question);
  std::vector<std::pair<double, uint32_t>> ranked;
  if (tokens.empty()) return ranked;

  // Pass 1: direct surface containment — longest e-commerce-concept
  // surface found as a contiguous token span. Score = matched tokens /
  // concept length (1.0 for exact needs mentions).
  std::map<uint32_t, double> matched;  // ec id -> score
  constexpr size_t kMaxSpan = 6;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string key;
    for (size_t len = 1; len <= kMaxSpan && i + len <= tokens.size(); ++len) {
      if (len > 1) key += ' ';
      key += tokens[i + len - 1];
      auto ec = net_->FindEcConcept(key);
      if (ec.has_value()) {
        double score = 1.0 + 0.1 * static_cast<double>(len);
        auto it = matched.find(ec->value);
        if (it == matched.end() || it->second < score) {
          matched[ec->value] = score;
        }
      }
    }
  }

  // Pass 2: interpretation match — primitive concepts recognized in the
  // question vote for the e-commerce concepts they interpret ("barbecue"
  // alone recalls "outdoor barbecue").
  std::map<uint32_t, double> votes;
  std::map<uint32_t, size_t> interp_size;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string key;
    for (size_t len = 1; len <= kMaxSpan && i + len <= tokens.size(); ++len) {
      if (len > 1) key += ' ';
      key += tokens[i + len - 1];
      for (kg::ConceptId prim : net_->FindPrimitive(key)) {
        for (kg::EcConceptId ec : net_->EcConceptsForPrimitive(prim)) {
          votes[ec.value] += static_cast<double>(len);
          if (!interp_size.count(ec.value)) {
            interp_size[ec.value] = net_->PrimitivesForEc(ec).size();
          }
        }
      }
    }
  }
  for (const auto& [ec, vote] : votes) {
    size_t interp = std::max<size_t>(1, interp_size[ec]);
    double coverage = vote / static_cast<double>(interp);
    double score = std::min(0.99, 0.5 * coverage);  // below direct matches
    auto it = matched.find(ec);
    if (it == matched.end() || it->second < score) {
      matched[ec] = std::max(
          it == matched.end() ? 0.0 : it->second, score);
    }
  }

  ranked.reserve(matched.size());
  for (const auto& [ec, score] : matched) ranked.emplace_back(score, ec);
  // A total order, so the best `limit` are those a full sort puts first.
  limit = std::min(limit, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + limit, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  ranked.resize(limit);
  return ranked;
}

std::vector<NeedsAnswer> NeedsQuestionAnswerer::AnswerAll(
    const std::string& question, size_t max_items) const {
  std::vector<NeedsAnswer> out;
  for (const auto& [score, ec] : Rank(question, 5)) {
    out.push_back(BuildAnswer(kg::EcConceptId(ec), score, max_items));
  }
  return out;
}

std::optional<NeedsAnswer> NeedsQuestionAnswerer::Answer(
    const std::string& question, size_t max_items) const {
  auto best = Rank(question, 1);
  if (best.empty()) return std::nullopt;
  return BuildAnswer(kg::EcConceptId(best[0].second), best[0].first,
                     max_items);
}

}  // namespace alicoco::apps
