// End-to-end semi-automatic construction of AliCoCo (the whole paper).
//
// Input: the raw side of a World — corpora, the seed dictionary (the
// "existing knowledge sources" of Section 4.1), gold labels standing in for
// the paper's human annotators. Output: a freshly built ConceptNet, in
// nine stages (each one `pipeline.<stage>` span when traced):
//
//   1. taxonomy + schema        (expert-defined, Section 3)
//   2. seed primitive concepts  (ontology matching, Section 4.1)
//   3. mining loop              (BiLSTM-CRF + distant supervision, 7.2)
//   4. hypernym discovery       (patterns + projection learning, 4.2)
//   5. e-commerce concepts      (generation + classification + audit, 5.2)
//   6. concept tagging          (fuzzy-CRF NER -> interpretation links, 5.3)
//   7. item association         (knowledge-aware matching, Section 6;
//                                sub-spans train, calibrate, score)
//   8. relation inference       (commonsense relations, Section 10)
//   9. validation               (kg::Validator structural audit)
//
// Every stage reports counts; quality control follows the paper: mined
// batches are sample-audited against the oracle and only added above an
// accuracy threshold.

#ifndef ALICOCO_PIPELINE_BUILDER_H_
#define ALICOCO_PIPELINE_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "concepts/classifier.h"
#include "datagen/resources.h"
#include "datagen/world.h"
#include "hypernym/projection_model.h"
#include "kg/concept_net.h"
#include "matching/knowledge_matcher.h"
#include "mining/concept_miner.h"
#include "mining/sequence_labeler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tagging/concept_tagger.h"

namespace alicoco::pipeline {

struct PipelineConfig {
  // Stage 3: mining.
  mining::SequenceLabelerConfig labeler;
  int mining_epochs = 2;
  // Stage 4: hypernyms.
  hypernym::ProjectionConfig projection;
  // Stage 5: concept classification.
  concepts::ConceptClassifierConfig classifier;
  // Stage 6: tagging.
  tagging::ConceptTaggerConfig tagger;
  // Stage 7: association.
  matching::KnowledgeMatcherConfig matcher;
  size_t association_candidates = 150;  ///< random items scored per concept
  uint64_t seed = 2020;
  /// Observability (src/obs). When `tracer` is set, Build() runs inside a
  /// root span `pipeline.build` with one child span per stage
  /// (`pipeline.<stage>`). When `metrics` is set, stages publish domain
  /// counters/gauges under `pipeline.<stage>.<name>`, Build's one worker
  /// pool (training shards and stage-7 scoring) reports queue metrics under
  /// `pipeline.worker_pool`, and the knowledge matcher records score
  /// latency. Both may be null (the default): instrumentation is then a
  /// no-op. Neither is owned; both must outlive Build().
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Per-stage accounting.
struct BuildReport {
  size_t seed_concepts = 0;
  std::vector<mining::MiningEpochStats> mining_epochs;
  size_t mined_concepts = 0;
  size_t isa_from_patterns = 0;
  size_t isa_from_projection = 0;
  size_t ec_candidates = 0;
  size_t ec_accepted = 0;
  double audit_accuracy = 0;
  bool audit_passed = false;
  size_t interpretation_links = 0;
  size_t items_added = 0;
  size_t item_primitive_links = 0;
  size_t item_ec_links = 0;
  size_t inferred_relations = 0;

  std::string Summary() const;
};

/// Gold-relative quality of a constructed net.
struct GoldComparison {
  double primitive_precision = 0;  ///< built concepts that exist in gold
  double primitive_recall = 0;     ///< gold concepts present in built net
  double isa_precision = 0;
  double isa_recall = 0;
  double ec_precision = 0;
  double item_link_precision = 0;  ///< built item-ec links that are gold
  double item_link_recall = 0;
};

/// Stage 7's acceptance threshold, calibrated on held-out (score, label)
/// pairs. These are ~50% positive, but a random (concept, item) pair is
/// positive with probability `deploy_prior`, so positives are reweighted
/// to it. Returns the lowest score at which the running precision over at
/// least 20 top-scored pairs reaches 0.8, clamped to the 0.6 floor; the
/// floor if 0.8 is never reached (the top-k cap then bounds the damage).
double CalibrateAssociationThreshold(
    const std::vector<std::pair<double, int>>& scored, double deploy_prior);

/// Drives the construction. The world acts as data source and annotation
/// oracle; `resources` supplies the corpus-derived models.
class AliCoCoBuilder {
 public:
  AliCoCoBuilder(const datagen::World* world,
                 const datagen::WorldResources* resources,
                 const PipelineConfig& config);

  /// Runs all stages; returns the constructed net.
  Result<kg::ConceptNet> Build(BuildReport* report);

  /// Compares a built net against the world's gold net.
  static GoldComparison CompareToGold(const kg::ConceptNet& built,
                                      const datagen::World& world);

 private:
  const datagen::World* world_;
  const datagen::WorldResources* resources_;
  PipelineConfig config_;
};

}  // namespace alicoco::pipeline

#endif  // ALICOCO_PIPELINE_BUILDER_H_
