// The class taxonomy of AliCoCo (Section 3, Figure 3).
//
// A rooted tree of classes. The 20 first-level classes are the "domains"
// (Category, Brand, Color, ..., Time, Location, IP); Category carries the
// deepest subtree since the categorization of items is the backbone of the
// platform. Primitive concepts are typed by a class in this tree.

#ifndef ALICOCO_KG_TAXONOMY_H_
#define ALICOCO_KG_TAXONOMY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kg/ids.h"

namespace alicoco::kg {

/// One taxonomy class.
struct ClassInfo {
  ClassId id;
  std::string name;   ///< globally unique ("Dress")
  ClassId parent;     ///< invalid for the root
  int depth = 0;      ///< root = 0, domains = 1
  std::vector<ClassId> children;
};

/// Rooted class tree with name lookup and ancestry queries.
class Taxonomy {
 public:
  /// Creates the tree with its implicit root class "Root".
  Taxonomy();

  /// Adds a class under `parent`. Fails with AlreadyExists on a duplicate
  /// name and NotFound on an unknown parent.
  Result<ClassId> AddClass(const std::string& name, ClassId parent);

  /// Adds a first-level class (domain) under the root.
  Result<ClassId> AddDomain(const std::string& name);

  /// Id for a class name, or NotFound.
  Result<ClassId> Find(const std::string& name) const;

  bool Contains(ClassId id) const {
    return id.value < classes_.size();
  }

  const ClassInfo& Get(ClassId id) const;
  ClassId root() const { return ClassId(0); }

  /// True if `ancestor` lies on the path from `descendant` to the root
  /// (inclusive: a class is its own ancestor).
  bool IsAncestor(ClassId ancestor, ClassId descendant) const;

  /// The first-level class above `id` (id itself if first-level; invalid
  /// for the root).
  ClassId Domain(ClassId id) const;

  /// All classes in the subtree rooted at `id` (including `id`).
  std::vector<ClassId> Subtree(ClassId id) const;

  /// First-level classes.
  std::vector<ClassId> Domains() const;

  /// Total class count including the root.
  size_t size() const { return classes_.size(); }

 private:
  std::vector<ClassInfo> classes_;
  std::unordered_map<std::string, ClassId> by_name_;
};

}  // namespace alicoco::kg

#endif  // ALICOCO_KG_TAXONOMY_H_
