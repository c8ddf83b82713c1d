// The AliCoCo concept net: four node layers plus their relations (Section 2).
//
//   e-commerce concepts  --interprets-->  primitive concepts
//          |    \                               |
//        isA     \--associated-->  items  --tagged--> primitive concepts
//                                   |
//   primitive concepts: isA hierarchy + schema-typed relations
//
// The store owns the taxonomy and schema and allocates dense ids per layer.
// Each relation direction that something queries is stored as rows indexed
// by the source node's dense id, in edge insertion order:
//
//   primitive isA   hyponym -> hypernyms
//   e-commerce isA  child -> parents, parent -> children
//   interpretation  ec -> primitives, primitive -> ecs
//   item tag        item -> primitives
//   association     item -> ecs, ec -> items
//
// plus class -> primitives and subject -> typed relations. A row is added
// on its node's first edge; an id past the last row reads as an empty row.
// Multiple primitive concepts may share a surface form (senses); the
// surface index returns all of them, which is what gives AliCoCo its
// disambiguation power.
//
// Lending: every adjacency getter returns a std::span into the net's own
// row, valid until the next write to the net (any non-const call). Copy
// the span into a vector to keep it across a write.

#ifndef ALICOCO_KG_CONCEPT_NET_H_
#define ALICOCO_KG_CONCEPT_NET_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kg/ids.h"
#include "kg/schema.h"
#include "kg/taxonomy.h"

namespace alicoco::kg {

/// One sense of a surface form, typed by a taxonomy class.
struct PrimitiveConcept {
  ConceptId id;
  std::string surface;             ///< space-joined tokens
  ClassId cls;
  std::vector<std::string> gloss;  ///< short definition (external knowledge)
};

/// A user need ("outdoor barbecue").
struct EcommerceConcept {
  EcConceptId id;
  std::vector<std::string> tokens;
  std::string surface;  ///< space-joined tokens (unique)
};

/// Smallest selling unit.
struct Item {
  ItemId id;
  std::vector<std::string> title;
  ClassId category;
};

/// A schema-typed edge between primitive concepts.
struct TypedRelation {
  std::string relation;
  ConceptId subject;
  ConceptId object;
};

/// The net. Not thread-safe for writes.
class ConceptNet {
 public:
  ConceptNet() = default;

  Taxonomy& taxonomy() { return taxonomy_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }
  const Schema& schema() const { return schema_; }

  /// Registers a typed-relation signature against this net's taxonomy.
  Status AddRelation(const std::string& name, ClassId domain, ClassId range) {
    return schema_.AddRelation(taxonomy_, name, domain, range);
  }

  // ---- node creation ----

  /// Interns a primitive concept (surface, class); returns the existing id
  /// when that exact sense is already present. Fails on an unknown class.
  Result<ConceptId> GetOrAddPrimitiveConcept(const std::string& surface,
                                             ClassId cls);

  /// Attaches/replaces the gloss of a primitive concept.
  Status SetGloss(ConceptId id, std::vector<std::string> gloss);

  /// Interns an e-commerce concept by its token sequence.
  Result<EcConceptId> GetOrAddEcConcept(
      const std::vector<std::string>& tokens);

  /// Adds an item; items are never deduplicated (two identical listings are
  /// distinct items, as in the paper).
  Result<ItemId> AddItem(std::vector<std::string> title, ClassId category);

  // ---- relations ----

  /// isA between primitive concepts (hyponym -> hypernym). Rejects self
  /// loops and cycles.
  Status AddIsA(ConceptId hyponym, ConceptId hypernym);

  /// isA between e-commerce concepts (child -> parent). Rejects cycles.
  Status AddEcIsA(EcConceptId child, EcConceptId parent);

  /// Links an e-commerce concept to a primitive concept interpreting it.
  Status LinkEcToPrimitive(EcConceptId ec, ConceptId primitive);

  /// Tags an item with a primitive concept (property-like association).
  Status LinkItemToPrimitive(ItemId item, ConceptId primitive);

  /// Associates an item with an e-commerce concept (needed-under-scenario).
  /// `probability` realizes the paper's future-work item 2 ("bring
  /// probabilities to relations between concepts and items"); the default
  /// 1.0 is a hard edge.
  Status LinkItemToEc(ItemId item, EcConceptId ec, double probability = 1.0);

  /// The probability of an item-concept edge (0 when no edge exists).
  double ItemEcProbability(ItemId item, EcConceptId ec) const;

  /// Items of a concept ordered by descending edge probability.
  std::vector<std::pair<ItemId, double>> ItemsForEcRanked(
      EcConceptId ec) const;

  /// Schema-validated typed relation between primitive concepts.
  Status AddTypedRelation(const std::string& relation, ConceptId subject,
                          ConceptId object);

  // ---- node access ----

  bool Contains(ConceptId id) const { return id.value < primitives_.size(); }
  bool Contains(EcConceptId id) const { return id.value < ec_concepts_.size(); }
  bool Contains(ItemId id) const { return id.value < items_.size(); }

  const PrimitiveConcept& Get(ConceptId id) const;
  const EcommerceConcept& Get(EcConceptId id) const;
  const Item& Get(ItemId id) const;

  /// All senses of a surface form (empty if unknown).
  std::span<const ConceptId> FindPrimitive(const std::string& surface) const;

  /// The sense of `surface` within class `cls`, if any.
  std::optional<ConceptId> FindPrimitive(const std::string& surface,
                                         ClassId cls) const;

  /// The e-commerce concept with this exact surface, if any.
  std::optional<EcConceptId> FindEcConcept(const std::string& surface) const;

  /// All primitive concepts of a class (exact class, not subtree).
  std::span<const ConceptId> PrimitivesOfClass(ClassId cls) const {
    return RowOf(primitive_by_class_, cls);
  }

  // ---- graph queries ----

  std::span<const ConceptId> Hypernyms(ConceptId id) const {
    return RowOf(hypernyms_, id);
  }

  /// Transitive hypernym closure (excluding `id` itself), BFS order.
  std::vector<ConceptId> HypernymClosure(ConceptId id) const;

  /// Surfaces of `surface` plus all hypernym surfaces of each of its senses
  /// — the isA expansion used by search relevance (Section 8.1.1).
  std::vector<std::string> ExpandWithHypernyms(
      const std::string& surface) const;

  std::span<const ConceptId> PrimitivesForEc(EcConceptId ec) const {
    return RowOf(ec_to_prim_, ec);
  }
  std::span<const EcConceptId> EcConceptsForPrimitive(
      ConceptId primitive) const {
    return RowOf(prim_to_ec_, primitive);
  }
  std::span<const ItemId> ItemsForEc(EcConceptId ec) const {
    return RowOf(ec_to_item_, ec);
  }
  std::span<const EcConceptId> EcConceptsForItem(ItemId item) const {
    return RowOf(item_to_ec_, item);
  }
  std::span<const ConceptId> PrimitivesForItem(ItemId item) const {
    return RowOf(item_to_prim_, item);
  }
  std::span<const EcConceptId> EcParents(EcConceptId id) const {
    return RowOf(ec_parents_, id);
  }
  std::span<const EcConceptId> EcChildren(EcConceptId id) const {
    return RowOf(ec_children_, id);
  }

  const std::vector<TypedRelation>& typed_relations() const {
    return typed_relations_;
  }
  /// Typed relations with `subject` as subject.
  std::vector<TypedRelation> TypedRelationsFrom(ConceptId subject) const;

  // ---- counts ----
  size_t num_primitive_concepts() const { return primitives_.size(); }
  size_t num_ec_concepts() const { return ec_concepts_.size(); }
  size_t num_items() const { return items_.size(); }
  size_t num_isa_primitive() const { return isa_edge_count_; }
  size_t num_isa_ec() const { return ec_isa_edge_count_; }
  size_t num_ec_primitive_links() const { return ec_prim_edge_count_; }
  size_t num_item_primitive_links() const { return item_prim_edge_count_; }
  size_t num_item_ec_links() const { return item_ec_edge_count_; }

  /// All primitive / ec / item nodes (by reference, index = id).
  const std::vector<PrimitiveConcept>& primitives() const {
    return primitives_;
  }
  const std::vector<EcommerceConcept>& ec_concepts() const {
    return ec_concepts_;
  }
  const std::vector<Item>& items() const { return items_; }

 private:
  // The validator audits the rows for invariants unreachable through the
  // public API (rows past the last node, one-sided edges); the test peer
  // injects exactly those corruptions to prove the audit catches them.
  friend class Validator;
  friend class ValidatorTestPeer;

  // Row i holds the targets of the node with dense id i.
  template <typename V>
  using Rows = std::vector<std::vector<V>>;

  template <typename V, typename K>
  static std::span<const V> RowOf(const Rows<V>& rows, K id) {
    if (id.value >= rows.size()) return {};
    return rows[id.value];
  }

  // Returns true if adding hypo->hyper creates a cycle in the isA DAG.
  bool WouldCreateIsACycle(ConceptId hyponym, ConceptId hypernym) const;
  bool WouldCreateEcIsACycle(EcConceptId child, EcConceptId parent) const;

  Taxonomy taxonomy_;
  Schema schema_;

  std::vector<PrimitiveConcept> primitives_;
  std::vector<EcommerceConcept> ec_concepts_;
  std::vector<Item> items_;

  std::unordered_map<std::string, std::vector<ConceptId>> primitive_by_surface_;
  std::unordered_map<std::string, EcConceptId> ec_by_surface_;
  Rows<ConceptId> primitive_by_class_;  // by ClassId

  Rows<ConceptId> hypernyms_;                   // by hyponym
  Rows<EcConceptId> ec_parents_, ec_children_;  // by child, by parent
  Rows<ConceptId> ec_to_prim_;                  // by EcConceptId
  Rows<EcConceptId> prim_to_ec_;                // by ConceptId
  Rows<ConceptId> item_to_prim_;                // by ItemId
  Rows<EcConceptId> item_to_ec_;                // by ItemId
  Rows<ItemId> ec_to_item_;                     // by EcConceptId
  // (item << 32 | ec) -> probability of the dynamic edge.
  std::unordered_map<uint64_t, double> item_ec_probability_;
  std::vector<TypedRelation> typed_relations_;
  Rows<size_t> typed_by_subject_;  // by ConceptId: typed_relations_ indices

  size_t isa_edge_count_ = 0;
  size_t ec_isa_edge_count_ = 0;
  size_t ec_prim_edge_count_ = 0;
  size_t item_prim_edge_count_ = 0;
  size_t item_ec_edge_count_ = 0;
};

}  // namespace alicoco::kg

#endif  // ALICOCO_KG_CONCEPT_NET_H_
