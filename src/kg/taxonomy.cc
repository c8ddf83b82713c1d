#include "kg/taxonomy.h"

#include "common/logging.h"

namespace alicoco::kg {

Taxonomy::Taxonomy() {
  ClassInfo root;
  root.id = ClassId(0);
  root.name = "Root";
  root.depth = 0;
  classes_.push_back(root);
  by_name_["Root"] = root.id;
}

Result<ClassId> Taxonomy::AddClass(const std::string& name, ClassId parent) {
  if (by_name_.count(name)) {
    return Status::AlreadyExists("class exists: " + name);
  }
  if (!Contains(parent)) {
    return Status::NotFound("unknown parent class for " + name);
  }
  ClassId id(static_cast<uint32_t>(classes_.size()));
  ClassInfo info;
  info.id = id;
  info.name = name;
  info.parent = parent;
  info.depth = classes_[parent.value].depth + 1;
  classes_.push_back(info);
  classes_[parent.value].children.push_back(id);
  by_name_[name] = id;
  return id;
}

Result<ClassId> Taxonomy::AddDomain(const std::string& name) {
  return AddClass(name, root());
}

Result<ClassId> Taxonomy::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("no class named " + name);
  return it->second;
}

const ClassInfo& Taxonomy::Get(ClassId id) const {
  ALICOCO_CHECK(Contains(id)) << "invalid class id " << id.value;
  return classes_[id.value];
}

bool Taxonomy::IsAncestor(ClassId ancestor, ClassId descendant) const {
  if (!Contains(ancestor) || !Contains(descendant)) return false;
  ClassId cur = descendant;
  for (;;) {
    if (cur == ancestor) return true;
    if (cur == root()) return false;
    cur = classes_[cur.value].parent;
  }
}

ClassId Taxonomy::Domain(ClassId id) const {
  if (!Contains(id) || id == root()) return ClassId();
  ClassId cur = id;
  while (classes_[cur.value].depth > 1) cur = classes_[cur.value].parent;
  return cur;
}

std::vector<ClassId> Taxonomy::Subtree(ClassId id) const {
  std::vector<ClassId> out;
  if (!Contains(id)) return out;
  std::vector<ClassId> stack = {id};
  while (!stack.empty()) {
    ClassId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (ClassId child : classes_[cur.value].children) stack.push_back(child);
  }
  return out;
}

std::vector<ClassId> Taxonomy::Domains() const {
  return classes_[0].children;
}

}  // namespace alicoco::kg
