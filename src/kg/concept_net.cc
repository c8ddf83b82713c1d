#include "kg/concept_net.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"

namespace alicoco::kg {
namespace {

/// The row of node `id`, added (with empty rows for every lower id that has
/// none yet) on the node's first edge.
template <typename V, typename K>
std::vector<V>& RowFor(std::vector<std::vector<V>>& rows, K id) {
  if (id.value >= rows.size()) rows.resize(id.value + 1);
  return rows[id.value];
}

template <typename V>
bool InRow(std::span<const V> row, V value) {
  return std::find(row.begin(), row.end(), value) != row.end();
}

}  // namespace

Result<ConceptId> ConceptNet::GetOrAddPrimitiveConcept(
    const std::string& surface, ClassId cls) {
  if (!taxonomy_.Contains(cls)) {
    return Status::NotFound("unknown class for concept " + surface);
  }
  if (surface.empty()) {
    return Status::InvalidArgument("empty concept surface");
  }
  auto it = primitive_by_surface_.find(surface);
  if (it != primitive_by_surface_.end()) {
    for (ConceptId id : it->second) {
      if (primitives_[id.value].cls == cls) return id;
    }
  }
  ConceptId id(static_cast<uint32_t>(primitives_.size()));
  primitives_.push_back(PrimitiveConcept{id, surface, cls, {}});
  primitive_by_surface_[surface].push_back(id);
  RowFor(primitive_by_class_, cls).push_back(id);
  return id;
}

Status ConceptNet::SetGloss(ConceptId id, std::vector<std::string> gloss) {
  if (!Contains(id)) return Status::NotFound("no such concept");
  primitives_[id.value].gloss = std::move(gloss);
  return Status::OK();
}

Result<EcConceptId> ConceptNet::GetOrAddEcConcept(
    const std::vector<std::string>& tokens) {
  if (tokens.empty()) {
    return Status::InvalidArgument("empty e-commerce concept");
  }
  std::string surface = JoinStrings(tokens, " ");
  auto it = ec_by_surface_.find(surface);
  if (it != ec_by_surface_.end()) return it->second;
  EcConceptId id(static_cast<uint32_t>(ec_concepts_.size()));
  ec_concepts_.push_back(EcommerceConcept{id, tokens, surface});
  ec_by_surface_[surface] = id;
  return id;
}

Result<ItemId> ConceptNet::AddItem(std::vector<std::string> title,
                                   ClassId category) {
  if (!taxonomy_.Contains(category)) {
    return Status::NotFound("unknown category class for item");
  }
  if (title.empty()) return Status::InvalidArgument("empty item title");
  ItemId id(static_cast<uint32_t>(items_.size()));
  items_.push_back(Item{id, std::move(title), category});
  return id;
}

bool ConceptNet::WouldCreateIsACycle(ConceptId hyponym,
                                     ConceptId hypernym) const {
  // Cycle iff hyponym is reachable from hypernym via hypernym edges.
  std::deque<ConceptId> queue = {hypernym};
  std::unordered_set<ConceptId> seen = {hypernym};
  while (!queue.empty()) {
    ConceptId cur = queue.front();
    queue.pop_front();
    if (cur == hyponym) return true;
    for (ConceptId next : Hypernyms(cur)) {
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

bool ConceptNet::WouldCreateEcIsACycle(EcConceptId child,
                                       EcConceptId parent) const {
  std::deque<EcConceptId> queue = {parent};
  std::unordered_set<EcConceptId> seen = {parent};
  while (!queue.empty()) {
    EcConceptId cur = queue.front();
    queue.pop_front();
    if (cur == child) return true;
    for (EcConceptId next : EcParents(cur)) {
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

Status ConceptNet::AddIsA(ConceptId hyponym, ConceptId hypernym) {
  if (!Contains(hyponym) || !Contains(hypernym)) {
    return Status::NotFound("unknown concept in isA");
  }
  if (hyponym == hypernym) {
    return Status::InvalidArgument("self isA rejected");
  }
  if (InRow(Hypernyms(hyponym), hypernym)) {
    return Status::AlreadyExists("isA edge exists");
  }
  if (WouldCreateIsACycle(hyponym, hypernym)) {
    return Status::FailedPrecondition(
        "isA cycle rejected: " + primitives_[hyponym.value].surface + " -> " +
        primitives_[hypernym.value].surface);
  }
  RowFor(hypernyms_, hyponym).push_back(hypernym);
  ++isa_edge_count_;
  return Status::OK();
}

Status ConceptNet::AddEcIsA(EcConceptId child, EcConceptId parent) {
  if (!Contains(child) || !Contains(parent)) {
    return Status::NotFound("unknown e-commerce concept in isA");
  }
  if (child == parent) return Status::InvalidArgument("self isA rejected");
  if (InRow(EcParents(child), parent)) {
    return Status::AlreadyExists("ec isA edge exists");
  }
  if (WouldCreateEcIsACycle(child, parent)) {
    return Status::FailedPrecondition("ec isA cycle rejected");
  }
  RowFor(ec_parents_, child).push_back(parent);
  RowFor(ec_children_, parent).push_back(child);
  ++ec_isa_edge_count_;
  return Status::OK();
}

Status ConceptNet::LinkEcToPrimitive(EcConceptId ec, ConceptId primitive) {
  if (!Contains(ec) || !Contains(primitive)) {
    return Status::NotFound("unknown node in ec->primitive link");
  }
  if (InRow(PrimitivesForEc(ec), primitive)) {
    return Status::AlreadyExists("link exists");
  }
  RowFor(ec_to_prim_, ec).push_back(primitive);
  RowFor(prim_to_ec_, primitive).push_back(ec);
  ++ec_prim_edge_count_;
  return Status::OK();
}

Status ConceptNet::LinkItemToPrimitive(ItemId item, ConceptId primitive) {
  if (!Contains(item) || !Contains(primitive)) {
    return Status::NotFound("unknown node in item->primitive link");
  }
  if (InRow(PrimitivesForItem(item), primitive)) {
    return Status::AlreadyExists("link exists");
  }
  RowFor(item_to_prim_, item).push_back(primitive);
  ++item_prim_edge_count_;
  return Status::OK();
}

Status ConceptNet::LinkItemToEc(ItemId item, EcConceptId ec,
                                double probability) {
  if (!Contains(item) || !Contains(ec)) {
    return Status::NotFound("unknown node in item->ec link");
  }
  if (probability <= 0.0 || probability > 1.0) {
    return Status::InvalidArgument("edge probability must be in (0, 1]");
  }
  if (InRow(EcConceptsForItem(item), ec)) {
    return Status::AlreadyExists("link exists");
  }
  RowFor(item_to_ec_, item).push_back(ec);
  RowFor(ec_to_item_, ec).push_back(item);
  item_ec_probability_[(static_cast<uint64_t>(item.value) << 32) |
                       ec.value] = probability;
  ++item_ec_edge_count_;
  return Status::OK();
}

double ConceptNet::ItemEcProbability(ItemId item, EcConceptId ec) const {
  auto it = item_ec_probability_.find(
      (static_cast<uint64_t>(item.value) << 32) | ec.value);
  return it == item_ec_probability_.end() ? 0.0 : it->second;
}

std::vector<std::pair<ItemId, double>> ConceptNet::ItemsForEcRanked(
    EcConceptId ec) const {
  std::vector<std::pair<ItemId, double>> out;
  for (ItemId item : ItemsForEc(ec)) {
    out.emplace_back(item, ItemEcProbability(item, ec));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first.value < b.first.value;
  });
  return out;
}

Status ConceptNet::AddTypedRelation(const std::string& relation,
                                    ConceptId subject, ConceptId object) {
  if (!Contains(subject) || !Contains(object)) {
    return Status::NotFound("unknown concept in typed relation");
  }
  ALICOCO_RETURN_NOT_OK(schema_.Validate(taxonomy_, relation,
                                         primitives_[subject.value].cls,
                                         primitives_[object.value].cls));
  RowFor(typed_by_subject_, subject).push_back(typed_relations_.size());
  typed_relations_.push_back(TypedRelation{relation, subject, object});
  return Status::OK();
}

const PrimitiveConcept& ConceptNet::Get(ConceptId id) const {
  ALICOCO_CHECK(Contains(id));
  return primitives_[id.value];
}

const EcommerceConcept& ConceptNet::Get(EcConceptId id) const {
  ALICOCO_CHECK(Contains(id));
  return ec_concepts_[id.value];
}

const Item& ConceptNet::Get(ItemId id) const {
  ALICOCO_CHECK(Contains(id));
  return items_[id.value];
}

std::span<const ConceptId> ConceptNet::FindPrimitive(
    const std::string& surface) const {
  auto it = primitive_by_surface_.find(surface);
  if (it == primitive_by_surface_.end()) return {};
  return it->second;
}

std::optional<ConceptId> ConceptNet::FindPrimitive(const std::string& surface,
                                                   ClassId cls) const {
  for (ConceptId id : FindPrimitive(surface)) {
    if (primitives_[id.value].cls == cls) return id;
  }
  return std::nullopt;
}

std::optional<EcConceptId> ConceptNet::FindEcConcept(
    const std::string& surface) const {
  auto it = ec_by_surface_.find(surface);
  if (it == ec_by_surface_.end()) return std::nullopt;
  return it->second;
}

std::vector<ConceptId> ConceptNet::HypernymClosure(ConceptId id) const {
  ALICOCO_DCHECK(Contains(id)) << "closure of unknown concept " << id.value;
  std::vector<ConceptId> out;
  std::deque<ConceptId> queue = {id};
  std::unordered_set<ConceptId> seen = {id};
  while (!queue.empty()) {
    ConceptId cur = queue.front();
    queue.pop_front();
    for (ConceptId next : Hypernyms(cur)) {
      ALICOCO_DCHECK(Contains(next))
          << "dangling isA endpoint " << next.value << " reachable from "
          << id.value;
      if (seen.insert(next).second) {
        out.push_back(next);
        queue.push_back(next);
      }
    }
  }
  return out;
}

std::vector<std::string> ConceptNet::ExpandWithHypernyms(
    const std::string& surface) const {
  std::vector<std::string> out = {surface};
  std::unordered_set<std::string> seen = {surface};
  for (ConceptId sense : FindPrimitive(surface)) {
    for (ConceptId hyper : HypernymClosure(sense)) {
      const std::string& s = primitives_[hyper.value].surface;
      if (seen.insert(s).second) out.push_back(s);
    }
  }
  return out;
}

std::vector<TypedRelation> ConceptNet::TypedRelationsFrom(
    ConceptId subject) const {
  std::vector<TypedRelation> out;
  for (size_t idx : RowOf(typed_by_subject_, subject)) {
    out.push_back(typed_relations_[idx]);
  }
  return out;
}

}  // namespace alicoco::kg
