// Static analysis over a built ConceptNet (the data counterpart of the
// code-level sanitizers): audits the structural invariants the paper
// assumes before a net is allowed to serve traffic.
//
// Invariants checked:
//   - dense, unique node ids (index i holds the node with id i) for
//     primitive concepts, e-commerce concepts, items, and taxonomy classes
//   - taxonomy is a rooted tree: valid parents, depth = parent depth + 1,
//     parent/children lists mirrored, no cycles
//   - every primitive concept and item references a live taxonomy class
//   - surface indexes agree with node storage (every sense findable, no
//     duplicate (surface, class) pair, no empty surfaces)
//   - no relation holds a row past its last source node, and no edge
//     points at an unknown node
//   - the relations stored both ways (e-commerce isA, interpretation,
//     association) are mirrored: every forward edge has its reverse twin
//     and vice versa
//   - primitive and e-commerce isA graphs are acyclic
//   - edge counters match the stored adjacency
//   - every item-concept association carries a probability in (0, 1], with
//     no stray probability entries
//   - typed relations connect live concepts and satisfy the schema
//
// The validator has read-only friend access to ConceptNet so it can see
// corruption (e.g. a row for a node id that does not exist) that the public
// API masks.

#ifndef ALICOCO_KG_VALIDATOR_H_
#define ALICOCO_KG_VALIDATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "kg/concept_net.h"

namespace alicoco::kg {

/// Machine-readable classification of a structural defect.
enum class ValidationCode {
  kIdMismatch,          ///< node at index i does not carry id i
  kTaxonomyBroken,      ///< bad parent/depth/children or tree cycle
  kDeadClassReference,  ///< node typed by a class the taxonomy lacks
  kBadSurface,          ///< empty surface or index/storage disagreement
  kDuplicateNode,       ///< two senses share (surface, class) or surface
  kDanglingEdge,        ///< edge endpoint or row outside the node tables
  kAsymmetricEdge,      ///< forward edge without its reverse twin
  kIsACycle,            ///< primitive or ec isA graph has a cycle
  kCountMismatch,       ///< edge counter disagrees with stored adjacency
  kBadProbability,      ///< item-ec edge with probability outside (0, 1]
  kSchemaViolation,     ///< typed relation fails its schema signature
};

/// Stable name for a validation code ("DanglingEdge").
const char* ValidationCodeToString(ValidationCode code);

/// One defect found by the audit.
struct ValidationIssue {
  ValidationCode code;
  std::string message;
};

/// Outcome of a full audit.
struct ValidationReport {
  std::vector<ValidationIssue> issues;
  size_t checks_run = 0;  ///< individual invariant evaluations performed
  bool truncated = false;  ///< true when max_issues stopped the audit early

  bool ok() const { return issues.empty(); }
  /// Human-readable listing ("concept net valid: n checks" when clean).
  std::string Summary() const;
};

/// The audit pass. Stateless; cheap to construct.
class Validator {
 public:
  struct Options {
    size_t max_issues = 100;  ///< stop collecting beyond this many defects
  };

  Validator() = default;
  explicit Validator(Options options) : options_(options) {}

  /// Runs every invariant check against `net`.
  ValidationReport Validate(const ConceptNet& net) const;

 private:
  Options options_;
};

}  // namespace alicoco::kg

#endif  // ALICOCO_KG_VALIDATOR_H_
