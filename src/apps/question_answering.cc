#include "apps/question_answering.h"

#include <algorithm>

#include "common/logging.h"
#include "text/tokenizer.h"

namespace alicoco::apps {

NeedsQuestionAnswerer::NeedsQuestionAnswerer(const kg::ConceptNet* net)
    : net_(net) {
  ALICOCO_CHECK(net != nullptr);
  // Each key is a string a question span can be looked up by, with the
  // answers of the net's own surface lookups for it. Any other span
  // names nothing.
  auto add_surface = [&](const std::string& surface) {
    auto [it, inserted] = surfaces_.try_emplace(surface);
    if (!inserted) return;
    Surface& entry = it->second;
    if (auto ec = net->FindEcConcept(surface)) entry.ec = ec->value;
    entry.voters_begin = static_cast<uint32_t>(voters_.size());
    for (kg::ConceptId prim : net->FindPrimitive(surface)) {
      for (kg::EcConceptId ec : net->EcConceptsForPrimitive(prim)) {
        voters_.push_back(ec.value);
      }
    }
    entry.voters_end = static_cast<uint32_t>(voters_.size());
  };
  for (const kg::EcommerceConcept& ec : net->ec_concepts()) {
    add_surface(ec.surface);
  }
  for (const kg::PrimitiveConcept& prim : net->primitives()) {
    add_surface(prim.surface);
  }
  num_ec_concepts_ = net->num_ec_concepts();
  num_primitives_ = net->num_primitive_concepts();
  num_interpretation_links_ = net->num_ec_primitive_links();
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
  ALICOCO_CHECK_EQ(net_->num_ec_concepts(), num_ec_concepts_)
      << "concept added to the net after the answerer was built";
  ALICOCO_CHECK_EQ(net_->num_primitive_concepts(), num_primitives_)
      << "primitive concept added to the net after the answerer was built";
  ALICOCO_CHECK_EQ(net_->num_ec_primitive_links(), num_interpretation_links_)
      << "interpretation link added to the net after the answerer was built";
  std::vector<std::string> tokens = text::Tokenize(question);
  std::vector<std::pair<double, uint32_t>> ranked;
  if (tokens.empty()) return ranked;

  // Per concept: the best direct-match score and the summed votes, 0.0
  // until the concept is first recognized (both are positive after).
  struct Tally {
    double direct = 0.0;
    double votes = 0.0;
  };
  std::vector<Tally> tally(num_ec_concepts_);
  std::vector<uint32_t> recognized;  // concept ids, in order of first hit
  auto hit = [&](uint32_t ec) -> Tally& {
    Tally& t = tally[ec];
    if (t.direct == 0.0 && t.votes == 0.0) recognized.push_back(ec);
    return t;
  };
  constexpr size_t kMaxSpan = 6;
  std::string key;  // the span's surface, reused across spans
  for (size_t i = 0; i < tokens.size(); ++i) {
    key.clear();
    for (size_t len = 1; len <= kMaxSpan && i + len <= tokens.size(); ++len) {
      if (len > 1) key += ' ';
      key += tokens[i + len - 1];
      auto it = surfaces_.find(key);
      if (it == surfaces_.end()) continue;
      const Surface& surface = it->second;
      // Direct surface containment: the span is an e-commerce concept's
      // surface. Score = 1 + 0.1 x matched tokens, so the longest wins.
      if (surface.ec != Surface::kNoConcept) {
        Tally& t = hit(surface.ec);
        t.direct =
            std::max(t.direct, 1.0 + 0.1 * static_cast<double>(len));
      }
      // Interpretation match: a primitive concept recognized in the
      // question votes for the e-commerce concepts it interprets
      // ("barbecue" alone recalls "outdoor barbecue").
      for (uint32_t k = surface.voters_begin; k < surface.voters_end; ++k) {
        hit(voters_[k]).votes += static_cast<double>(len);
      }
    }
  }

  ranked.reserve(recognized.size());
  for (uint32_t ec : recognized) {
    const Tally& t = tally[ec];
    double score = t.direct;
    if (t.votes > 0.0) {
      size_t interp = std::max<size_t>(
          1, net_->PrimitivesForEc(kg::EcConceptId(ec)).size());
      double coverage = t.votes / static_cast<double>(interp);
      // Below every direct match; the better of the two counts.
      score = std::max(score, std::min(0.99, 0.5 * coverage));
    }
    ranked.emplace_back(score, ec);
  }
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
