#include "kg/validator.h"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"

namespace alicoco::kg {
namespace {

template <typename V>
size_t EdgeCount(const std::vector<std::vector<V>>& rows) {
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  return total;
}

// Iterative three-color DFS cycle detection over rows indexed by dense ids
// in [0, n).
template <typename Id>
bool HasCycle(size_t n, const std::vector<std::vector<Id>>& edges,
              uint32_t* cycle_node) {
  enum : uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<uint8_t> color(n, kWhite);
  std::vector<std::pair<uint32_t, size_t>> stack;
  for (uint32_t start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    stack.emplace_back(start, 0);
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [node, next_edge] = stack.back();
      if (node >= edges.size() || next_edge >= edges[node].size()) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      uint32_t target = edges[node][next_edge++].value;
      if (target >= n) continue;  // dangling, reported separately
      if (color[target] == kGray) {
        *cycle_node = target;
        return true;
      }
      if (color[target] == kWhite) {
        color[target] = kGray;
        stack.emplace_back(target, 0);
      }
    }
  }
  return false;
}

}  // namespace

const char* ValidationCodeToString(ValidationCode code) {
  switch (code) {
    case ValidationCode::kIdMismatch:
      return "IdMismatch";
    case ValidationCode::kTaxonomyBroken:
      return "TaxonomyBroken";
    case ValidationCode::kDeadClassReference:
      return "DeadClassReference";
    case ValidationCode::kBadSurface:
      return "BadSurface";
    case ValidationCode::kDuplicateNode:
      return "DuplicateNode";
    case ValidationCode::kDanglingEdge:
      return "DanglingEdge";
    case ValidationCode::kAsymmetricEdge:
      return "AsymmetricEdge";
    case ValidationCode::kIsACycle:
      return "IsACycle";
    case ValidationCode::kCountMismatch:
      return "CountMismatch";
    case ValidationCode::kBadProbability:
      return "BadProbability";
    case ValidationCode::kSchemaViolation:
      return "SchemaViolation";
  }
  return "?";
}

std::string ValidationReport::Summary() const {
  if (ok()) {
    return StringPrintf("concept net valid: %zu checks passed", checks_run);
  }
  std::string out = StringPrintf("concept net INVALID: %zu issue(s), %zu checks run\n",
                                 issues.size(), checks_run);
  for (const auto& issue : issues) {
    out += StringPrintf("  [%s] %s\n", ValidationCodeToString(issue.code),
                        issue.message.c_str());
  }
  if (truncated) out += "  ... issue limit reached, audit truncated\n";
  return out;
}

ValidationReport Validator::Validate(const ConceptNet& net) const {
  ValidationReport report;
  auto add = [&](ValidationCode code, std::string msg) {
    if (report.issues.size() >= options_.max_issues) {
      report.truncated = true;
      return;
    }
    report.issues.push_back(ValidationIssue{code, std::move(msg)});
  };
  // `make_msg` is only invoked on failure so passing checks cost nothing.
  auto check = [&](bool ok, ValidationCode code, auto&& make_msg) {
    ++report.checks_run;
    if (!ok) add(code, make_msg());
  };

  const Taxonomy& tax = net.taxonomy_;
  const size_t num_classes = tax.size();
  const size_t num_prims = net.primitives_.size();
  const size_t num_ec = net.ec_concepts_.size();
  const size_t num_items = net.items_.size();

  // ---- taxonomy: dense ids, rooted tree, mirrored parent/children ----
  for (uint32_t i = 0; i < num_classes; ++i) {
    const ClassInfo& info = tax.Get(ClassId(i));
    check(info.id.value == i, ValidationCode::kIdMismatch, [&] {
      return StringPrintf("taxonomy slot %u holds class id %u", i,
                          info.id.value);
    });
    if (i == 0) {
      check(info.depth == 0, ValidationCode::kTaxonomyBroken, [&] {
        return StringPrintf("root class has depth %d", info.depth);
      });
    } else {
      bool parent_ok = tax.Contains(info.parent);
      check(parent_ok, ValidationCode::kTaxonomyBroken, [&] {
        return StringPrintf("class %s (%u) has unknown parent %u",
                            info.name.c_str(), i, info.parent.value);
      });
      if (parent_ok) {
        const ClassInfo& parent = tax.Get(info.parent);
        check(info.depth == parent.depth + 1,
              ValidationCode::kTaxonomyBroken, [&] {
                return StringPrintf(
                    "class %s depth %d but parent %s depth %d",
                    info.name.c_str(), info.depth, parent.name.c_str(),
                    parent.depth);
              });
        check(std::find(parent.children.begin(), parent.children.end(),
                        info.id) != parent.children.end(),
              ValidationCode::kTaxonomyBroken, [&] {
                return StringPrintf(
                    "class %s missing from children of its parent %s",
                    info.name.c_str(), parent.name.c_str());
              });
      }
    }
    for (ClassId child : info.children) {
      bool child_ok = tax.Contains(child);
      check(child_ok, ValidationCode::kTaxonomyBroken, [&] {
        return StringPrintf("class %s lists unknown child %u",
                            info.name.c_str(), child.value);
      });
      if (child_ok) {
        check(tax.Get(child).parent == info.id,
              ValidationCode::kTaxonomyBroken, [&] {
                return StringPrintf(
                    "class %s lists child %s whose parent is %u",
                    info.name.c_str(), tax.Get(child).name.c_str(),
                    tax.Get(child).parent.value);
              });
      }
    }
    // Parent-chain walk bounded by the class count detects cycles even when
    // depths were forged consistently.
    size_t steps = 0;
    ClassId cur = ClassId(i);
    while (cur.value != 0 && tax.Contains(cur) && steps <= num_classes) {
      cur = tax.Get(cur).parent;
      ++steps;
    }
    check(steps <= num_classes, ValidationCode::kTaxonomyBroken, [&] {
      return StringPrintf("parent chain from class %s never reaches root",
                          info.name.c_str());
    });
  }

  // ---- primitive concepts: ids, surfaces, classes, sense uniqueness ----
  std::unordered_set<std::string> seen_senses;
  for (uint32_t i = 0; i < num_prims; ++i) {
    const PrimitiveConcept& p = net.primitives_[i];
    check(p.id.value == i, ValidationCode::kIdMismatch, [&] {
      return StringPrintf("primitive slot %u holds id %u", i, p.id.value);
    });
    check(!p.surface.empty(), ValidationCode::kBadSurface, [&] {
      return StringPrintf("primitive %u has an empty surface", i);
    });
    check(tax.Contains(p.cls), ValidationCode::kDeadClassReference, [&] {
      return StringPrintf("primitive '%s' (%u) typed by unknown class %u",
                          p.surface.c_str(), i, p.cls.value);
    });
    std::string sense_key = p.surface + "\x1f" + std::to_string(p.cls.value);
    check(seen_senses.insert(sense_key).second,
          ValidationCode::kDuplicateNode, [&] {
            return StringPrintf("duplicate sense ('%s', class %u)",
                                p.surface.c_str(), p.cls.value);
          });
    auto it = net.primitive_by_surface_.find(p.surface);
    check(it != net.primitive_by_surface_.end() &&
              std::find(it->second.begin(), it->second.end(), p.id) !=
                  it->second.end(),
          ValidationCode::kBadSurface, [&] {
            return StringPrintf(
                "primitive '%s' (%u) missing from the surface index",
                p.surface.c_str(), i);
          });
  }
  for (const auto& [surface, ids] : net.primitive_by_surface_) {
    for (ConceptId id : ids) {
      check(id.value < num_prims &&
                net.primitives_[id.value].surface == surface,
            ValidationCode::kBadSurface, [&] {
              return StringPrintf(
                  "surface index entry '%s' -> %u does not match storage",
                  surface.c_str(), id.value);
            });
    }
  }
  check(net.primitive_by_class_.size() <= num_classes,
        ValidationCode::kDanglingEdge, [&] {
          return StringPrintf("class index has %zu rows for %zu classes",
                              net.primitive_by_class_.size(), num_classes);
        });
  for (uint32_t cls = 0; cls < net.primitive_by_class_.size(); ++cls) {
    for (ConceptId id : net.primitive_by_class_[cls]) {
      check(id.value < num_prims && net.primitives_[id.value].cls.value == cls,
            ValidationCode::kBadSurface, [&] {
              return StringPrintf(
                  "class index entry %u -> concept %u does not match storage",
                  cls, id.value);
            });
    }
  }

  // ---- e-commerce concepts ----
  for (uint32_t i = 0; i < num_ec; ++i) {
    const EcommerceConcept& ec = net.ec_concepts_[i];
    check(ec.id.value == i, ValidationCode::kIdMismatch, [&] {
      return StringPrintf("ec concept slot %u holds id %u", i, ec.id.value);
    });
    check(!ec.tokens.empty(), ValidationCode::kBadSurface, [&] {
      return StringPrintf("ec concept %u has no tokens", i);
    });
    check(ec.surface == JoinStrings(ec.tokens, " "),
          ValidationCode::kBadSurface, [&] {
            return StringPrintf(
                "ec concept %u surface '%s' disagrees with its tokens", i,
                ec.surface.c_str());
          });
    auto it = net.ec_by_surface_.find(ec.surface);
    check(it != net.ec_by_surface_.end() && it->second == ec.id,
          ValidationCode::kDuplicateNode, [&] {
            return StringPrintf(
                "ec concept '%s' (%u) missing from or shadowed in the "
                "surface index",
                ec.surface.c_str(), i);
          });
  }

  // ---- items ----
  for (uint32_t i = 0; i < num_items; ++i) {
    const Item& item = net.items_[i];
    check(item.id.value == i, ValidationCode::kIdMismatch, [&] {
      return StringPrintf("item slot %u holds id %u", i, item.id.value);
    });
    check(!item.title.empty(), ValidationCode::kBadSurface, [&] {
      return StringPrintf("item %u has an empty title", i);
    });
    check(tax.Contains(item.category), ValidationCode::kDeadClassReference,
          [&] {
            return StringPrintf("item %u categorized by unknown class %u", i,
                                item.category.value);
          });
  }

  // ---- adjacency: no row past the last node, live endpoints, mirrors ----
  auto audit_rows = [&](const auto& rows, size_t row_limit,
                        size_t value_limit, const char* name) {
    check(rows.size() <= row_limit, ValidationCode::kDanglingEdge, [&] {
      return StringPrintf("%s has %zu rows for %zu source nodes", name,
                          rows.size(), row_limit);
    });
    for (uint32_t from = 0; from < rows.size(); ++from) {
      for (const auto& to : rows[from]) {
        check(to.value < value_limit, ValidationCode::kDanglingEdge, [&] {
          return StringPrintf("%s edge %u -> unknown node %u", name, from,
                              to.value);
        });
      }
    }
  };
  audit_rows(net.hypernyms_, num_prims, num_prims, "isA");
  audit_rows(net.ec_parents_, num_ec, num_ec, "ec isA");
  audit_rows(net.ec_children_, num_ec, num_ec, "reverse ec isA");
  audit_rows(net.ec_to_prim_, num_ec, num_prims, "interpretation");
  audit_rows(net.prim_to_ec_, num_prims, num_ec, "reverse interpretation");
  audit_rows(net.item_to_prim_, num_items, num_prims, "item tag");
  audit_rows(net.item_to_ec_, num_items, num_ec, "association");
  audit_rows(net.ec_to_item_, num_ec, num_items, "reverse association");

  // Each edge of a relation stored both ways has its twin in the reverse
  // rows. Edges to unknown nodes were reported above.
  auto audit_mirror = [&](const auto& fwd, const auto& rev,
                          size_t value_limit, const char* name) {
    for (uint32_t from = 0; from < fwd.size(); ++from) {
      for (const auto& to : fwd[from]) {
        if (to.value >= value_limit) continue;
        check(to.value < rev.size() &&
                  std::any_of(rev[to.value].begin(), rev[to.value].end(),
                              [&](const auto& back) {
                                return back.value == from;
                              }),
              ValidationCode::kAsymmetricEdge, [&] {
                return StringPrintf("%s edge %u -> %u has no reverse twin",
                                    name, from, to.value);
              });
      }
    }
  };
  audit_mirror(net.ec_parents_, net.ec_children_, num_ec, "ec isA");
  audit_mirror(net.ec_children_, net.ec_parents_, num_ec, "reverse ec isA");
  audit_mirror(net.ec_to_prim_, net.prim_to_ec_, num_prims, "interpretation");
  audit_mirror(net.prim_to_ec_, net.ec_to_prim_, num_ec,
               "reverse interpretation");
  audit_mirror(net.item_to_ec_, net.ec_to_item_, num_ec, "association");
  audit_mirror(net.ec_to_item_, net.item_to_ec_, num_items,
               "reverse association");

  // ---- isA acyclicity ----
  uint32_t cycle_node = 0;
  check(!HasCycle(num_prims, net.hypernyms_, &cycle_node),
        ValidationCode::kIsACycle, [&] {
          return StringPrintf("primitive isA cycle through concept %u ('%s')",
                              cycle_node,
                              cycle_node < num_prims
                                  ? net.primitives_[cycle_node].surface.c_str()
                                  : "?");
        });
  check(!HasCycle(num_ec, net.ec_parents_, &cycle_node),
        ValidationCode::kIsACycle, [&] {
          return StringPrintf("ec isA cycle through concept %u", cycle_node);
        });

  // ---- edge counters ----
  auto check_count = [&](size_t counter, size_t stored, const char* name) {
    check(counter == stored, ValidationCode::kCountMismatch, [&] {
      return StringPrintf("%s counter says %zu edges but storage holds %zu",
                          name, counter, stored);
    });
  };
  check_count(net.isa_edge_count_, EdgeCount(net.hypernyms_), "isA");
  check_count(net.ec_isa_edge_count_, EdgeCount(net.ec_parents_), "ec isA");
  check_count(net.ec_prim_edge_count_, EdgeCount(net.ec_to_prim_),
              "interpretation");
  check_count(net.item_prim_edge_count_, EdgeCount(net.item_to_prim_),
              "item tag");
  check_count(net.item_ec_edge_count_, EdgeCount(net.item_to_ec_),
              "association");

  // ---- association probabilities ----
  size_t prob_edges = 0;
  for (uint32_t item = 0; item < net.item_to_ec_.size(); ++item) {
    for (EcConceptId ec : net.item_to_ec_[item]) {
      ++prob_edges;
      uint64_t key = (static_cast<uint64_t>(item) << 32) | ec.value;
      auto it = net.item_ec_probability_.find(key);
      bool found = it != net.item_ec_probability_.end();
      check(found, ValidationCode::kBadProbability, [&] {
        return StringPrintf("association %u -> %u has no probability", item,
                            ec.value);
      });
      if (found) {
        check(it->second > 0.0 && it->second <= 1.0,
              ValidationCode::kBadProbability, [&] {
                return StringPrintf(
                    "association %u -> %u has probability %g outside (0, 1]",
                    item, ec.value, it->second);
              });
      }
    }
  }
  check(net.item_ec_probability_.size() == prob_edges,
        ValidationCode::kBadProbability, [&] {
          return StringPrintf(
              "%zu stray probability entries without a matching edge",
              net.item_ec_probability_.size() - prob_edges);
        });

  // ---- typed relations ----
  for (size_t r = 0; r < net.typed_relations_.size(); ++r) {
    const TypedRelation& rel = net.typed_relations_[r];
    bool subject_ok = rel.subject.value < num_prims;
    bool object_ok = rel.object.value < num_prims;
    check(subject_ok, ValidationCode::kDanglingEdge, [&] {
      return StringPrintf("typed relation %zu (%s) has unknown subject %u", r,
                          rel.relation.c_str(), rel.subject.value);
    });
    check(object_ok, ValidationCode::kDanglingEdge, [&] {
      return StringPrintf("typed relation %zu (%s) has unknown object %u", r,
                          rel.relation.c_str(), rel.object.value);
    });
    if (subject_ok && object_ok) {
      Status st = net.schema_.Validate(net.taxonomy_, rel.relation,
                                       net.primitives_[rel.subject.value].cls,
                                       net.primitives_[rel.object.value].cls);
      check(st.ok(), ValidationCode::kSchemaViolation, [&] {
        return StringPrintf("typed relation %zu: %s", r,
                            st.ToString().c_str());
      });
      std::span<const size_t> indices =
          ConceptNet::RowOf(net.typed_by_subject_, rel.subject);
      check(std::find(indices.begin(), indices.end(), r) != indices.end(),
            ValidationCode::kAsymmetricEdge, [&] {
              return StringPrintf(
                  "typed relation %zu missing from its subject index", r);
            });
    }
  }
  check(net.typed_by_subject_.size() <= num_prims,
        ValidationCode::kDanglingEdge, [&] {
          return StringPrintf("subject index has %zu rows for %zu concepts",
                              net.typed_by_subject_.size(), num_prims);
        });
  for (uint32_t subject = 0; subject < net.typed_by_subject_.size();
       ++subject) {
    for (size_t idx : net.typed_by_subject_[subject]) {
      check(idx < net.typed_relations_.size() &&
                net.typed_relations_[idx].subject.value == subject,
            ValidationCode::kDanglingEdge, [&] {
              return StringPrintf(
                  "subject index for concept %u references bad relation %zu",
                  subject, idx);
            });
    }
  }

  return report;
}

}  // namespace alicoco::kg
