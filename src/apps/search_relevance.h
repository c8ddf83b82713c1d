// Search relevance with isA expansion (Section 8.1.1).
//
// The paper's example: a user searches "top"; items titled only "jacket"
// are wrongly classified irrelevant until the prior knowledge "jacket isA
// top" enters semantic matching. Here queries are hypernym surfaces (head
// and group concepts), gold relevance comes from the taxonomy, and the
// matcher is lexical overlap with or without expanding item terms by their
// hypernym closure. Reported: AUC lift and relevance bad-case reduction.

#ifndef ALICOCO_APPS_SEARCH_RELEVANCE_H_
#define ALICOCO_APPS_SEARCH_RELEVANCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "datagen/world.h"
#include "kg/concept_net.h"
#include "obs/metrics.h"

namespace alicoco::apps {

/// One relevance judgment task: a query with candidate items.
struct RelevanceQuery {
  std::string query;                 ///< a category surface
  std::vector<kg::ItemId> items;
  std::vector<int> relevant;         ///< gold 0/1 per item
};

struct RelevanceReport {
  double auc = 0;
  size_t bad_cases = 0;   ///< relevant items with zero match score
  size_t judged_pairs = 0;
};

/// Lexical relevance scorer over a concept net. Serving-path latency lands
/// in `metrics` under `serving.search_relevance.*` (query latency
/// histogram plus query/pair counters); nullptr, the default, records none.
class SearchRelevance {
 public:
  /// Builds the read table from `net` once. `net` must outlive the scorer
  /// and must not change after the scorer is built: the table is not
  /// refreshed, and scoring after an item, an item–primitive link or an
  /// isA edge was added fails a CHECK.
  explicit SearchRelevance(const kg::ConceptNet* net,
                           obs::Registry* metrics = nullptr);

  /// Builds queries from the world's category concepts: for each query
  /// concept, candidates mix relevant items (category isA-descendant of the
  /// query) and random irrelevant ones.
  std::vector<RelevanceQuery> BuildQueries(const datagen::World& world,
                                           size_t max_queries,
                                           size_t items_per_query,
                                           uint64_t seed) const;

  /// Match score of query vs item title: term overlap; when `expand_isa`,
  /// item terms are expanded with the hypernym closure of the item's
  /// primitive concepts first. With expansion it is one hash lookup of the
  /// query and a binary search in the item's row of the read table.
  double Score(const std::string& query, kg::ItemId item,
               bool expand_isa) const;

  /// Evaluates all queries with or without expansion.
  RelevanceReport Evaluate(const std::vector<RelevanceQuery>& queries,
                           bool expand_isa) const;

 private:
  const kg::ConceptNet* net_;
  // The read table. Every title token and hypernym surface is interned
  // into an id owned here. Item i's row, expanded_terms_[row_begin_[i] ..
  // row_begin_[i + 1]), holds the sorted, deduplicated ids of its title
  // tokens and of the hypernym-closure surfaces of its primitive concepts.
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<uint32_t> row_begin_;
  std::vector<uint32_t> expanded_terms_;
  // What the table read beyond the items: Score checks these against the
  // net.
  size_t num_item_primitive_links_ = 0;
  size_t num_isa_edges_ = 0;
  obs::Histogram* query_latency_us_ = nullptr;
  obs::Counter* queries_served_ = nullptr;
  obs::Counter* pairs_judged_ = nullptr;
};

}  // namespace alicoco::apps

#endif  // ALICOCO_APPS_SEARCH_RELEVANCE_H_
