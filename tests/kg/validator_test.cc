#include "kg/validator.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace alicoco::kg {

// Friend of ConceptNet: injects the internal corruptions the public API
// refuses to produce, proving the validator actually detects them.
class ValidatorTestPeer {
 public:
  // Completes an isA 2-cycle on top of an existing hyponym->hypernym edge.
  // The counter is kept consistent so only the cycle is wrong.
  static void InjectIsACycle(ConceptNet* net, ConceptId hyponym,
                             ConceptId hypernym) {
    Row(&net->hypernyms_, hypernym.value).push_back(hyponym);
    ++net->isa_edge_count_;
  }

  // Forward edge to a concept id outside the node table.
  static void InjectDanglingEdge(ConceptNet* net, ConceptId from) {
    Row(&net->hypernyms_, from.value).push_back(ConceptId(0x7fffffff));
    ++net->isa_edge_count_;
  }

  // Interpretation edge between live nodes with no reverse twin (counter
  // kept in sync so the asymmetry is the only defect on that relation).
  static void InjectAsymmetricEdge(ConceptNet* net, EcConceptId from,
                                   ConceptId to) {
    Row(&net->ec_to_prim_, from.value).push_back(to);
    ++net->ec_prim_edge_count_;
  }

  // An empty association row for an e-commerce concept id the net does not
  // hold: the layout's form of an edge list keyed by a dangling id.
  static void InjectRowPastTheLastNode(ConceptNet* net) {
    Row(&net->ec_to_item_, static_cast<uint32_t>(net->ec_concepts_.size()));
  }

  // Second node with the same (surface, class) sense, registered in the
  // indexes like a real node.
  static void InjectDuplicateSense(ConceptNet* net, ConceptId original) {
    PrimitiveConcept copy = net->primitives_[original.value];
    copy.id = ConceptId(static_cast<uint32_t>(net->primitives_.size()));
    net->primitives_.push_back(copy);
    net->primitive_by_surface_[copy.surface].push_back(copy.id);
    Row(&net->primitive_by_class_, copy.cls.value).push_back(copy.id);
  }

  // Breaks the dense-id invariant: node at index i no longer carries id i.
  static void InjectIdMismatch(ConceptNet* net, ConceptId victim) {
    net->primitives_[victim.value].id =
        ConceptId(victim.value + 1000);
  }

  static void InjectBadProbability(ConceptNet* net, ItemId item,
                                   EcConceptId ec) {
    uint64_t key = (static_cast<uint64_t>(item.value) << 32) | ec.value;
    net->item_ec_probability_[key] = 1.5;
  }

  static void CorruptIsACounter(ConceptNet* net) { ++net->isa_edge_count_; }

 private:
  template <typename V>
  static std::vector<V>& Row(std::vector<std::vector<V>>* rows,
                             uint32_t index) {
    if (index >= rows->size()) rows->resize(index + 1);
    return (*rows)[index];
  }
};

namespace {

struct Net {
  ConceptNet net;
  ClassId category, pants, time, season;
  ConceptId jeans, denim, winter;
  EcConceptId ec;
  ItemId item;
};

// Small but fully-populated net: every node layer, every relation kind.
Net MakeValidNet() {
  Net n;
  n.category = *n.net.taxonomy().AddDomain("Category");
  n.pants = *n.net.taxonomy().AddClass("Pants", n.category);
  n.time = *n.net.taxonomy().AddDomain("Time");
  n.season = *n.net.taxonomy().AddClass("Season", n.time);

  n.jeans = *n.net.GetOrAddPrimitiveConcept("jeans", n.pants);
  n.denim = *n.net.GetOrAddPrimitiveConcept("denim pants", n.pants);
  n.winter = *n.net.GetOrAddPrimitiveConcept("winter", n.season);
  EXPECT_TRUE(n.net.AddIsA(n.denim, n.jeans).ok());

  n.ec = *n.net.GetOrAddEcConcept({"warm", "jeans"});
  EXPECT_TRUE(n.net.LinkEcToPrimitive(n.ec, n.jeans).ok());

  n.item = *n.net.AddItem({"blue", "jeans"}, n.pants);
  EXPECT_TRUE(n.net.LinkItemToPrimitive(n.item, n.jeans).ok());
  EXPECT_TRUE(n.net.LinkItemToEc(n.item, n.ec, 0.8).ok());

  EXPECT_TRUE(n.net.AddRelation("suitable_when", n.category, n.season).ok());
  EXPECT_TRUE(
      n.net.AddTypedRelation("suitable_when", n.jeans, n.winter).ok());
  return n;
}

bool HasCode(const ValidationReport& report, ValidationCode code) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [code](const ValidationIssue& i) {
                       return i.code == code;
                     });
}

TEST(ValidatorTest, ValidNetPasses) {
  Net n = MakeValidNet();
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks_run, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_NE(report.Summary().find("valid"), std::string::npos);
}

TEST(ValidatorTest, CopiedNetStillValidates) {
  // The net must be a correct value type: a copy has to pass the same
  // audit, including schema checks (a stale internal pointer would not).
  Net n = MakeValidNet();
  ConceptNet copy = n.net;
  ValidationReport report = Validator().Validate(copy);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ValidatorTest, DetectsInjectedIsACycle) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectIsACycle(&n.net, n.denim, n.jeans);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kIsACycle)) << report.Summary();
}

TEST(ValidatorTest, DetectsDanglingEdge) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectDanglingEdge(&n.net, n.jeans);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kDanglingEdge))
      << report.Summary();
}

TEST(ValidatorTest, DetectsAsymmetricEdge) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectAsymmetricEdge(&n.net, n.ec, n.winter);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kAsymmetricEdge))
      << report.Summary();
}

TEST(ValidatorTest, DetectsRowPastTheLastNode) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectRowPastTheLastNode(&n.net);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kDanglingEdge))
      << report.Summary();
}

TEST(ValidatorTest, DetectsDuplicateSense) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectDuplicateSense(&n.net, n.jeans);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kDuplicateNode))
      << report.Summary();
}

TEST(ValidatorTest, DetectsIdMismatch) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectIdMismatch(&n.net, n.winter);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kIdMismatch))
      << report.Summary();
}

TEST(ValidatorTest, DetectsBadProbability) {
  Net n = MakeValidNet();
  ValidatorTestPeer::InjectBadProbability(&n.net, n.item, n.ec);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kBadProbability))
      << report.Summary();
}

TEST(ValidatorTest, DetectsCounterMismatch) {
  Net n = MakeValidNet();
  ValidatorTestPeer::CorruptIsACounter(&n.net);
  ValidationReport report = Validator().Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasCode(report, ValidationCode::kCountMismatch))
      << report.Summary();
}

TEST(ValidatorTest, MaxIssuesTruncatesReport) {
  Net n = MakeValidNet();
  // Several independent defects, budget for one.
  ValidatorTestPeer::InjectDanglingEdge(&n.net, n.jeans);
  ValidatorTestPeer::InjectBadProbability(&n.net, n.item, n.ec);
  ValidatorTestPeer::CorruptIsACounter(&n.net);
  Validator::Options opts;
  opts.max_issues = 1;
  ValidationReport report = Validator(opts).Validate(n.net);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.issues.size(), 1u);
  EXPECT_TRUE(report.truncated);
}

TEST(ValidatorTest, CodesHaveStableNames) {
  EXPECT_STREQ(ValidationCodeToString(ValidationCode::kDanglingEdge),
               "DanglingEdge");
  EXPECT_STREQ(ValidationCodeToString(ValidationCode::kIsACycle), "IsACycle");
}

}  // namespace
}  // namespace alicoco::kg
