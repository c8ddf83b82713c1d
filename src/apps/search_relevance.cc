#include "apps/search_relevance.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/logging.h"
#include "eval/metrics.h"

namespace alicoco::apps {

SearchRelevance::SearchRelevance(const kg::ConceptNet* net,
                                 obs::Registry* metrics)
    : net_(net) {
  ALICOCO_CHECK(net != nullptr);
  num_item_primitive_links_ = net->num_item_primitive_links();
  num_isa_edges_ = net->num_isa_primitive();
  auto intern = [this](const std::string& term) {
    return term_ids_
        .try_emplace(term, static_cast<uint32_t>(term_ids_.size()))
        .first->second;
  };
  // A primitive's closure surfaces, interned once however many items it
  // tags.
  std::vector<std::optional<std::vector<uint32_t>>> closure_terms(
      net->num_primitive_concepts());
  row_begin_.reserve(net->num_items() + 1);
  row_begin_.push_back(0);
  std::vector<uint32_t> row;
  for (const kg::Item& item : net->items()) {
    row.clear();
    for (const std::string& token : item.title) row.push_back(intern(token));
    for (kg::ConceptId prim : net->PrimitivesForItem(item.id)) {
      std::optional<std::vector<uint32_t>>& closure =
          closure_terms[prim.value];
      if (!closure.has_value()) {
        closure.emplace();
        for (kg::ConceptId hyper : net->HypernymClosure(prim)) {
          closure->push_back(intern(net->Get(hyper).surface));
        }
      }
      row.insert(row.end(), closure->begin(), closure->end());
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    expanded_terms_.insert(expanded_terms_.end(), row.begin(), row.end());
    row_begin_.push_back(static_cast<uint32_t>(expanded_terms_.size()));
  }
  if (metrics != nullptr) {
    query_latency_us_ =
        metrics->GetHistogram("serving.search_relevance.query_latency_us");
    queries_served_ = metrics->GetCounter("serving.search_relevance.queries");
    pairs_judged_ =
        metrics->GetCounter("serving.search_relevance.judged_pairs");
  }
}

std::vector<RelevanceQuery> SearchRelevance::BuildQueries(
    const datagen::World& world, size_t max_queries, size_t items_per_query,
    uint64_t seed) const {
  Rng rng(seed);
  std::vector<RelevanceQuery> out;

  // Query concepts: a mix of head surfaces (lexical match already works —
  // most real queries) and group concepts (token-disjoint hypernyms, the
  // paper's "jacket isA top" case that needs the knowledge).
  std::vector<kg::ConceptId> query_concepts = world.group_concepts();
  {
    std::vector<kg::ConceptId> heads;
    for (const auto& item : world.item_profiles()) heads.push_back(item.head);
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    rng.Shuffle(&heads);
    size_t take = std::min(heads.size(), 3 * world.group_concepts().size());
    query_concepts.insert(query_concepts.end(), heads.begin(),
                          heads.begin() + take);
  }
  rng.Shuffle(&query_concepts);
  const auto& items = world.item_profiles();
  ALICOCO_CHECK(!items.empty());

  // Precompute: item -> its category's hypernym closure, once per call.
  std::vector<std::vector<kg::ConceptId>> closures;
  closures.reserve(items.size());
  for (const auto& item : items) {
    closures.push_back(net_->HypernymClosure(item.category));
  }
  auto relevant_to = [&](size_t i, kg::ConceptId query) {
    if (items[i].category == query || items[i].head == query) return true;
    return std::find(closures[i].begin(), closures[i].end(), query) !=
           closures[i].end();
  };

  for (kg::ConceptId qc : query_concepts) {
    if (out.size() >= max_queries) break;
    RelevanceQuery q;
    q.query = net_->Get(qc).surface;
    // Gather relevant items first.
    std::vector<const datagen::ItemProfile*> rel, irrel;
    for (size_t i = 0; i < items.size(); ++i) {
      (relevant_to(i, qc) ? rel : irrel).push_back(&items[i]);
    }
    if (rel.empty() || irrel.empty()) continue;
    rng.Shuffle(&rel);
    rng.Shuffle(&irrel);
    size_t n_rel = std::min(items_per_query / 2, rel.size());
    size_t n_irrel = std::min(items_per_query - n_rel, irrel.size());
    for (size_t i = 0; i < n_rel; ++i) {
      q.items.push_back(rel[i]->id);
      q.relevant.push_back(1);
    }
    for (size_t i = 0; i < n_irrel; ++i) {
      q.items.push_back(irrel[i]->id);
      q.relevant.push_back(0);
    }
    out.push_back(std::move(q));
  }
  return out;
}

double SearchRelevance::Score(const std::string& query, kg::ItemId item,
                              bool expand_isa) const {
  ALICOCO_CHECK_EQ(net_->num_items() + 1, row_begin_.size())
      << "item added to the net after the scorer was built";
  ALICOCO_CHECK_EQ(net_->num_item_primitive_links(), num_item_primitive_links_)
      << "item-primitive link added to the net after the scorer was built";
  ALICOCO_CHECK_EQ(net_->num_isa_primitive(), num_isa_edges_)
      << "isA edge added to the net after the scorer was built";
  ALICOCO_CHECK_LT(size_t{item.value} + 1, row_begin_.size())
      << "item not in the net";
  if (!expand_isa) {
    const auto& title = net_->Get(item).title;
    return std::find(title.begin(), title.end(), query) != title.end() ? 1.0
                                                                       : 0.0;
  }
  // The row already holds the hypernym closure of the item's linked
  // primitive concepts ("jacket" contributes "top").
  auto term = term_ids_.find(query);
  if (term == term_ids_.end()) return 0.0;
  const uint32_t* row = expanded_terms_.data();
  return std::binary_search(row + row_begin_[item.value],
                            row + row_begin_[item.value + 1], term->second)
             ? 1.0
             : 0.0;
}

RelevanceReport SearchRelevance::Evaluate(
    const std::vector<RelevanceQuery>& queries, bool expand_isa) const {
  RelevanceReport report;
  std::vector<double> scores;
  std::vector<int> labels;
  for (const auto& q : queries) {
    std::chrono::steady_clock::time_point start;
    if (query_latency_us_ != nullptr) {
      start = std::chrono::steady_clock::now();
    }
    for (size_t i = 0; i < q.items.size(); ++i) {
      double s = Score(q.query, q.items[i], expand_isa);
      scores.push_back(s);
      labels.push_back(q.relevant[i]);
      ++report.judged_pairs;
      if (q.relevant[i] == 1 && s == 0.0) ++report.bad_cases;
    }
    if (query_latency_us_ != nullptr) {
      query_latency_us_->Observe(std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
    }
    if (queries_served_ != nullptr) queries_served_->Increment();
    if (pairs_judged_ != nullptr) pairs_judged_->Add(q.items.size());
  }
  report.auc = eval::Auc(scores, labels);
  return report;
}

}  // namespace alicoco::apps
