// Strongly-typed identifiers for the four node layers of AliCoCo.
//
// Mixing a ClassId with an ItemId is a type error, not a runtime bug.

#ifndef ALICOCO_KG_IDS_H_
#define ALICOCO_KG_IDS_H_

#include <cstdint>
#include <functional>

namespace alicoco::kg {

namespace internal {
/// CRTP strong typedef over a dense uint32 index.
template <typename Tag>
struct StrongId {
  uint32_t value = kInvalid;
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;

  StrongId() = default;
  explicit StrongId(uint32_t v) : value(v) {}

  bool valid() const { return value != kInvalid; }
  bool operator==(const StrongId& o) const { return value == o.value; }
  bool operator!=(const StrongId& o) const { return value != o.value; }
  bool operator<(const StrongId& o) const { return value < o.value; }
};
}  // namespace internal

/// Taxonomy class ("Category->Clothing->Dress").
struct ClassId : internal::StrongId<ClassId> {
  using StrongId::StrongId;
};
/// Primitive concept (one sense of a surface form).
struct ConceptId : internal::StrongId<ConceptId> {
  using StrongId::StrongId;
};
/// E-commerce concept (a user need, e.g. "outdoor barbecue").
struct EcConceptId : internal::StrongId<EcConceptId> {
  using StrongId::StrongId;
};
/// Item (smallest selling unit).
struct ItemId : internal::StrongId<ItemId> {
  using StrongId::StrongId;
};

}  // namespace alicoco::kg

namespace std {
template <>
struct hash<alicoco::kg::ClassId> {
  size_t operator()(alicoco::kg::ClassId id) const {
    return hash<uint32_t>()(id.value);
  }
};
template <>
struct hash<alicoco::kg::ConceptId> {
  size_t operator()(alicoco::kg::ConceptId id) const {
    return hash<uint32_t>()(id.value);
  }
};
template <>
struct hash<alicoco::kg::EcConceptId> {
  size_t operator()(alicoco::kg::EcConceptId id) const {
    return hash<uint32_t>()(id.value);
  }
};
template <>
struct hash<alicoco::kg::ItemId> {
  size_t operator()(alicoco::kg::ItemId id) const {
    return hash<uint32_t>()(id.value);
  }
};
}  // namespace std

#endif  // ALICOCO_KG_IDS_H_
