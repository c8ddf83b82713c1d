#include "mining/relation_inference.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/logging.h"

namespace alicoco::mining {
namespace {

// Per-domain item tag counts and joint counts between two domains.
struct CoStats {
  std::unordered_map<uint32_t, size_t> subject_counts;
  std::unordered_map<uint32_t, size_t> object_counts;
  std::map<std::pair<uint32_t, uint32_t>, size_t> joint;
  size_t num_items = 0;
};

std::vector<InferredRelation> ProposalsFromStats(
    const CoStats& stats, const std::string& relation,
    const RelationInferenceConfig& config) {
  std::vector<InferredRelation> out;
  if (stats.num_items == 0) return out;
  double n = static_cast<double>(stats.num_items);
  for (const auto& [pair, joint] : stats.joint) {
    if (joint < config.min_support) continue;
    double expected = static_cast<double>(stats.subject_counts.at(pair.first)) *
                      static_cast<double>(stats.object_counts.at(pair.second)) /
                      n;
    if (expected <= 0) continue;
    double lift = static_cast<double>(joint) / expected;
    if (lift < config.min_lift) continue;
    InferredRelation rel;
    rel.relation = relation;
    rel.subject = kg::ConceptId(pair.first);
    rel.object = kg::ConceptId(pair.second);
    rel.support = joint;
    rel.confidence =
        std::min(RelationInference::kMaxConfidence, 1.0 - 1.0 / lift);
    out.push_back(rel);
  }
  std::sort(out.begin(), out.end(),
            [](const InferredRelation& a, const InferredRelation& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.support > b.support;
            });
  return out;
}

}  // namespace

RelationInference::RelationInference(const kg::ConceptNet* net) : net_(net) {
  ALICOCO_CHECK(net != nullptr);
}

std::vector<InferredRelation> RelationInference::InferSuitableWhen(
    const RelationInferenceConfig& config) const {
  const auto& tax = net_->taxonomy();
  auto category = tax.Find("Category");
  auto time = tax.Find("Time");
  if (!category.ok() || !time.ok()) return {};

  CoStats stats;
  stats.num_items = net_->num_items();
  for (const auto& item : net_->items()) {
    std::vector<uint32_t> cats, seasons;
    for (kg::ConceptId prim : net_->PrimitivesForItem(item.id)) {
      kg::ClassId domain = tax.Domain(net_->Get(prim).cls);
      if (domain == *category) cats.push_back(prim.value);
      if (domain == *time) seasons.push_back(prim.value);
    }
    for (uint32_t c : cats) ++stats.subject_counts[c];
    for (uint32_t s : seasons) ++stats.object_counts[s];
    for (uint32_t c : cats) {
      for (uint32_t s : seasons) ++stats.joint[{c, s}];
    }
  }
  return ProposalsFromStats(stats, "suitable_when", config);
}

std::vector<InferredRelation> RelationInference::InferUsedWhen(
    const RelationInferenceConfig& config) const {
  const auto& tax = net_->taxonomy();
  auto category = tax.Find("Category");
  auto event = tax.Find("Event");
  if (!category.ok() || !event.ok()) return {};

  CoStats stats;
  stats.num_items = net_->num_items();
  for (const auto& item : net_->items()) {
    std::vector<uint32_t> cats, events;
    for (kg::ConceptId prim : net_->PrimitivesForItem(item.id)) {
      if (tax.Domain(net_->Get(prim).cls) == *category) {
        cats.push_back(prim.value);
      }
    }
    // Events arrive indirectly: via the e-commerce concepts the item is
    // associated with and their event-domain interpretations.
    for (kg::EcConceptId ec : net_->EcConceptsForItem(item.id)) {
      for (kg::ConceptId prim : net_->PrimitivesForEc(ec)) {
        if (tax.Domain(net_->Get(prim).cls) == *event) {
          events.push_back(prim.value);
        }
      }
    }
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());
    for (uint32_t c : cats) ++stats.subject_counts[c];
    for (uint32_t e : events) ++stats.object_counts[e];
    for (uint32_t c : cats) {
      for (uint32_t e : events) ++stats.joint[{c, e}];
    }
  }
  return ProposalsFromStats(stats, "used_when", config);
}

size_t RelationInference::Commit(
    const std::vector<InferredRelation>& proposals, kg::ConceptNet* target) {
  ALICOCO_CHECK(target != nullptr);
  size_t committed = 0;
  for (const auto& rel : proposals) {
    if (target->AddTypedRelation(rel.relation, rel.subject, rel.object)
            .ok()) {
      ++committed;
    }
  }
  return committed;
}

RelationInferenceQuality EvaluateSuitableWhen(
    const std::vector<InferredRelation>& proposals,
    const datagen::World& world, size_t min_support) {
  RelationInferenceQuality q;
  q.proposed = proposals.size();
  for (const auto& rel : proposals) {
    if (world.GoldCompatible(rel.subject, rel.object)) ++q.correct;
  }
  q.precision = q.proposed > 0
                    ? static_cast<double>(q.correct) / q.proposed
                    : 0.0;

  // Recall denominator: gold-compatible (category, season) pairs with
  // enough catalog evidence to be discoverable.
  const auto& net = world.net();
  const auto& tax = net.taxonomy();
  auto category = *tax.Find("Category");
  auto time = *tax.Find("Time");
  std::map<std::pair<uint32_t, uint32_t>, size_t> joint;
  for (const auto& item : net.items()) {
    std::vector<uint32_t> cats, seasons;
    for (kg::ConceptId prim : net.PrimitivesForItem(item.id)) {
      kg::ClassId domain = tax.Domain(net.Get(prim).cls);
      if (domain == category) cats.push_back(prim.value);
      if (domain == time) seasons.push_back(prim.value);
    }
    for (uint32_t c : cats) {
      for (uint32_t s : seasons) ++joint[{c, s}];
    }
  }
  size_t discoverable = 0, recalled = 0;
  std::set<std::pair<uint32_t, uint32_t>> proposed_pairs;
  for (const auto& rel : proposals) {
    proposed_pairs.insert({rel.subject.value, rel.object.value});
  }
  for (const auto& [pair, support] : joint) {
    if (support < min_support) continue;
    if (!world.GoldCompatible(kg::ConceptId(pair.first),
                              kg::ConceptId(pair.second))) {
      continue;
    }
    ++discoverable;
    if (proposed_pairs.count(pair)) ++recalled;
  }
  q.recall = discoverable > 0
                 ? static_cast<double>(recalled) / discoverable
                 : 0.0;
  return q;
}

}  // namespace alicoco::mining
