#include "pipeline/builder.h"

#include "mining/relation_inference.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "concepts/candidate_generation.h"
#include "concepts/criteria.h"
#include "datagen/grammar.h"
#include "datagen/world_spec.h"
#include "hypernym/patterns.h"
#include "kg/validator.h"
#include "matching/dataset.h"
#include "mining/concept_miner.h"
#include "mining/distant_supervision.h"
#include "obs/pool_metrics.h"
#include "text/tokenizer.h"

namespace alicoco::pipeline {
namespace {

// Settings no caller varies, in stage order.
constexpr size_t kMiningMinSupport = 2;
constexpr double kHypernymAcceptThreshold = 0.7;
constexpr double kConceptAcceptThreshold = 0.6;
constexpr size_t kAuditSample = 50;
constexpr double kAuditAccuracyThreshold = 0.7;
/// Target precision for dynamic item-concept edges; the acceptance
/// threshold is calibrated on held-out pairs, reweighted to the
/// deployment prior (the paper monitors dynamic-edge quality regularly).
constexpr double kAssociationTargetPrecision = 0.8;
constexpr double kAssociationMinThreshold = 0.6;
/// Concept pages are ranked lists: at most this many top-scoring items
/// link to each concept even when more clear the threshold.
constexpr size_t kAssociationTopK = 12;

kg::ClassId DomainClass(const kg::ConceptNet& net, const std::string& domain) {
  auto res = net.taxonomy().Find(domain);
  ALICOCO_CHECK(res.ok()) << "unknown domain " << domain;
  return *res;
}

// A stage's `pipeline.<stage>` span, open while the Stage lives. Each fact
// goes to the registry as `pipeline.<stage>.<fact>` and onto the span as an
// attribute of the same name; a null tracer or registry skips that half.
class Stage {
 public:
  Stage(const PipelineConfig& config, const char* name)
      : metrics_(config.metrics),
        prefix_(std::string("pipeline.") + name + "."),
        span_(config.tracer, std::string("pipeline.") + name) {}

  void Count(const char* fact, size_t n) {
    if (metrics_ != nullptr) metrics_->GetCounter(prefix_ + fact)->Add(n);
    span_.AddAttribute(fact, static_cast<uint64_t>(n));
  }
  void Gauge(const char* fact, double x) {
    if (metrics_ != nullptr) metrics_->GetGauge(prefix_ + fact)->Set(x);
    span_.AddAttribute(fact, x);
  }

 private:
  obs::Registry* metrics_;
  std::string prefix_;  ///< "pipeline.<stage>."
  obs::ScopedSpan span_;
};

// What the stages share: inputs, pool, report and net, plus exactly the
// values a later stage reads. Everything else stays local to its stage.
struct BuildState {
  const datagen::World& world;
  const datagen::WorldResources& resources;
  const PipelineConfig& config;
  ThreadPool& worker_pool;
  BuildReport& report;
  kg::ConceptNet net{};
  /// Stage 3 -> 4: the corpus, one token list per sentence.
  std::vector<std::vector<std::string>> raw_corpus{};
  /// Stage 3 -> 6, 7: the seed dictionary as mining grew it.
  std::optional<mining::DistantSupervisor> dictionary{};
  /// Stage 5 -> 6: the accepted e-commerce concept phrases.
  std::vector<std::vector<std::string>> accepted_phrases{};

  Status DeclareTaxonomy(Stage& stage);
  Status SeedConcepts(Stage& stage);
  Status MineConcepts(Stage& stage);
  Status DiscoverHypernyms(Stage& stage);
  Status GenerateEcConcepts(Stage& stage);
  Status TagConcepts(Stage& stage);
  Status AssociateItems(Stage& stage);
  Status InferRelations(Stage& stage);
  Status ValidateNet(Stage& stage);
};

// ---- Stage 1: taxonomy + schema (expert-defined) ----
Status BuildState::DeclareTaxonomy(Stage& stage) {
  datagen::TaxonomyHandles handles = datagen::BuildTaxonomy(&net.taxonomy());
  ALICOCO_RETURN_NOT_OK(net.AddRelation("suitable_when", handles.category,
                                        handles.time_season));
  ALICOCO_RETURN_NOT_OK(
      net.AddRelation("used_when", handles.category, handles.event));
  stage.Count("classes", net.taxonomy().size());
  stage.Count("relations_declared", 2);
  return Status::OK();
}

// ---- Stage 2: seed primitive concepts (ontology matching) ----
// The external knowledge base also supplies glosses where it has entries.
Status BuildState::SeedConcepts(Stage& stage) {
  for (const auto& [surface, domain] : world.seed_dictionary()) {
    ALICOCO_ASSIGN_OR_RETURN(
        kg::ConceptId id,
        net.GetOrAddPrimitiveConcept(surface, DomainClass(net, domain)));
    for (kg::ConceptId gold : world.net().FindPrimitive(surface)) {
      const auto& gloss = world.net().Get(gold).gloss;
      if (!gloss.empty()) {
        ALICOCO_RETURN_NOT_OK(net.SetGloss(id, gloss));
        break;
      }
    }
  }
  report.seed_concepts = net.num_primitive_concepts();
  stage.Count("seed_concepts", report.seed_concepts);
  return Status::OK();
}

// ---- Stage 3: mining loop ----
Status BuildState::MineConcepts(Stage& stage) {
  mining::DistantSupervisor& supervisor = dictionary.emplace(
      world.seed_dictionary(), datagen::CarrierVocabulary());
  raw_corpus.reserve(world.sentences().size());
  for (const auto& s : world.sentences()) raw_corpus.push_back(s.tokens);
  auto labeled = supervisor.Label(raw_corpus);
  if (labeled.empty()) {
    return Status::FailedPrecondition("distant supervision produced no data");
  }
  mining::SequenceLabelerConfig labeler_cfg = config.labeler;
  labeler_cfg.pool = &worker_pool;
  mining::SequenceLabeler labeler(labeler_cfg);
  labeler.Train(labeled);

  // Surfaces of gold primitive concepts keyed by "surface\tdomain".
  std::unordered_set<std::string> gold_keys;
  for (const auto& p : world.net().primitives()) {
    gold_keys.insert(p.surface + "\t" + world.DomainLabel(p.id));
  }
  mining::ConceptMiner miner(
      &supervisor, &labeler,
      [&](const std::string& surface, const std::string& domain) {
        return gold_keys.count(surface + "\t" + domain) > 0;
      });
  for (int epoch = 0; epoch < config.mining_epochs; ++epoch) {
    obs::ScopedSpan epoch_span(config.tracer, "pipeline.mining.epoch");
    epoch_span.AddAttribute("epoch", static_cast<uint64_t>(epoch + 1));
    report.mining_epochs.push_back(
        miner.RunEpoch(raw_corpus, kMiningMinSupport));
    epoch_span.AddAttribute(
        "accepted",
        static_cast<uint64_t>(report.mining_epochs.back().accepted));
  }
  for (const auto& mined : miner.accepted()) {
    ALICOCO_RETURN_NOT_OK(net.GetOrAddPrimitiveConcept(
        mined.surface, DomainClass(net, mined.domain)).status());
    ++report.mined_concepts;
  }
  size_t mining_candidates = 0, mining_accepted = 0;
  for (const auto& epoch : report.mining_epochs) {
    mining_candidates += epoch.candidates;
    mining_accepted += epoch.accepted;
  }
  stage.Count("candidates", mining_candidates);
  stage.Count("accepted", mining_accepted);
  stage.Count("mined_concepts", report.mined_concepts);
  return Status::OK();
}

// ---- Stage 4: hypernym discovery inside Category ----
Status BuildState::DiscoverHypernyms(Stage& stage) {
  std::vector<std::string> category_vocab;
  category_vocab.reserve(net.num_primitive_concepts());  // upper bound
  for (kg::ClassId cls : net.taxonomy().Subtree(DomainClass(net, "Category"))) {
    for (kg::ConceptId c : net.PrimitivesOfClass(cls)) {
      category_vocab.push_back(net.Get(c).surface);
    }
  }
  hypernym::PatternHypernymMiner pattern_miner(category_vocab);
  auto add_isa = [&](const std::string& hypo, const std::string& hyper,
                     size_t* counter) {
    auto hypo_ids = net.FindPrimitive(hypo);
    auto hyper_ids = net.FindPrimitive(hyper);
    if (hypo_ids.empty() || hyper_ids.empty()) return;
    if (net.AddIsA(hypo_ids[0], hyper_ids[0]).ok()) ++(*counter);
  };
  std::unordered_set<std::string> has_hypernym;
  const auto suffix_pairs = pattern_miner.MineSuffix();
  for (const auto& pair : suffix_pairs) {
    add_isa(pair.hypo, pair.hyper, &report.isa_from_patterns);
    has_hypernym.insert(pair.hypo);
  }
  for (const auto& pair : pattern_miner.MineHearst(raw_corpus)) {
    if (pair.support < 2) continue;
    add_isa(pair.hypo, pair.hyper, &report.isa_from_patterns);
    has_hypernym.insert(pair.hypo);
  }

  // Projection learning, distantly supervised by the pattern pairs, then
  // applied to concepts the patterns could not attach.
  std::vector<hypernym::LabeledPair> proj_train;
  proj_train.reserve(suffix_pairs.size() * 9);  // 1 positive + 8 negatives
  Rng neg_rng(config.seed ^ 0x517);
  for (const auto& pair : suffix_pairs) {
    proj_train.push_back(hypernym::LabeledPair{pair.hypo, pair.hyper, 1});
    for (int n = 0; n < 8; ++n) {
      proj_train.push_back(hypernym::LabeledPair{
          pair.hypo, category_vocab[neg_rng.Uniform(category_vocab.size())],
          0});
    }
  }
  if (!proj_train.empty()) {
    hypernym::ProjectionModel projection(&resources.embeddings(),
                                         &resources.vocab(), config.projection);
    projection.Train(proj_train);
    // Candidate hypernyms: single-token category surfaces.
    std::vector<std::string> candidates;
    candidates.reserve(category_vocab.size());
    for (const auto& surface : category_vocab) {
      if (text::Tokenize(surface).size() == 1) candidates.push_back(surface);
    }
    std::string best_hyper;  // reused across surfaces
    for (const auto& surface : category_vocab) {
      if (has_hypernym.count(surface)) continue;
      double best = 0;
      best_hyper.clear();
      for (const auto& cand : candidates) {
        if (cand == surface) continue;
        double s = projection.Score(surface, cand);
        if (s > best) {
          best = s;
          best_hyper = cand;
        }
      }
      if (best >= kHypernymAcceptThreshold && !best_hyper.empty()) {
        add_isa(surface, best_hyper, &report.isa_from_projection);
      }
    }
  }

  stage.Count("isa_from_patterns", report.isa_from_patterns);
  stage.Count("isa_from_projection", report.isa_from_projection);
  return Status::OK();
}

// ---- Stage 5: e-commerce concept generation + classification ----
Status BuildState::GenerateEcConcepts(Stage& stage) {
  // Sub-stage spans: generate (phrase mining, pattern combination and the
  // criteria filter), then per audit round the classifier's own train span,
  // score and audit.
  std::optional<obs::ScopedSpan> generate_span(
      std::in_place, config.tracer, "pipeline.ec_concepts.generate");
  concepts::PhraseMiner phrase_miner(/*min_count=*/3, /*max_len=*/4);
  std::vector<std::vector<std::string>> query_guides;
  query_guides.reserve(world.sentences().size());  // upper bound
  for (const auto& s : world.sentences()) {
    if (s.source == datagen::Sentence::Source::kQuery ||
        s.source == datagen::Sentence::Source::kGuide) {
      query_guides.push_back(s.tokens);
    }
  }
  std::vector<std::vector<std::string>> candidates;
  auto mined_phrases =
      phrase_miner.Mine(query_guides, datagen::CarrierVocabulary());
  // Mined phrases now, pattern-combined concepts (5 specs x 200) later.
  candidates.reserve(mined_phrases.size() + 5 * 200);
  for (const auto& phrase : mined_phrases) {
    candidates.push_back(phrase.tokens);
  }
  concepts::PatternCombiner combiner(&net);
  Rng rng(config.seed);
  for (const char* spec :
       {"Function Category for:lit Event", "Style Season Category",
        "Location Event", "Function for:lit Audience",
        "Holiday gifts:lit for:lit Audience"}) {
    for (auto& tokens : combiner.Generate(
             concepts::ConceptPattern::Parse(spec), 200, &rng)) {
      candidates.push_back(std::move(tokens));
    }
  }
  report.ec_candidates = candidates.size();

  // Train the classifier on the annotated candidate set (the paper's
  // months-long labeling campaign).
  concepts::ClassifierResources cls_res;
  cls_res.embeddings = &resources.embeddings();
  cls_res.corpus_vocab = &resources.vocab();
  cls_res.lm = &resources.lm();
  cls_res.gloss_encoder = &resources.gloss_encoder();
  cls_res.gloss_lookup = [this](const std::string& w) {
    return resources.GlossOf(w);
  };
  std::vector<concepts::LabeledConcept> annotated;
  // Seed labels now, plus up to kAuditSample audited labels per iteration
  // of the quality-control loop below.
  annotated.reserve(world.concept_candidates().size() + 5 * kAuditSample);
  for (const auto& c : world.concept_candidates()) {
    annotated.push_back(concepts::LabeledConcept{c.tokens, c.good ? 1 : 0});
  }

  // Carrier words other than the pattern literals disqualify a candidate
  // (coherence criterion: "for kids keep warm" style fragments).
  std::unordered_set<std::string> carrier(
      datagen::CarrierVocabulary().begin(),
      datagen::CarrierVocabulary().end());
  carrier.erase("for");
  carrier.erase("gifts");
  std::vector<const std::vector<std::string>*> pool;
  pool.reserve(candidates.size());
  for (const auto& tokens : candidates) {
    if (!concepts::PassesBasicCriteria(tokens)) continue;
    bool has_carrier = false;
    for (const auto& t : tokens) has_carrier |= carrier.count(t) > 0;
    if (has_carrier) continue;
    pool.push_back(&tokens);
  }
  generate_span.reset();

  // Quality-control loop (Section 5.2.2): audit a random sample of each
  // candidate batch; audited labels join the training data and the model
  // retrains ("the annotated samples will be added to training data to
  // iteratively improve the model"). The threshold tightens as a last
  // resort; nothing enters the net until a batch passes.
  std::vector<const std::vector<std::string>*> accepted;
  std::vector<const std::vector<std::string>*> audited_good;
  audited_good.reserve(5 * kAuditSample);  // per-iteration cap
  double threshold = kConceptAcceptThreshold;
  std::unordered_set<const std::vector<std::string>*> audited;
  // The candidate batch is rebuilt every quality-control iteration; keep
  // the buffer (and its capacity) across iterations.
  std::vector<const std::vector<std::string>*> batch;
  batch.reserve(pool.size());
  for (int iteration = 0; iteration < 5 && !report.audit_passed; ++iteration) {
    concepts::ConceptClassifierConfig cls_cfg = config.classifier;
    cls_cfg.seed = config.classifier.seed + static_cast<uint64_t>(iteration);
    cls_cfg.pool = &worker_pool;
    concepts::ConceptClassifier classifier(cls_cfg, cls_res);
    classifier.Train(annotated);

    {
      obs::ScopedSpan score_span(config.tracer, "pipeline.ec_concepts.score");
      batch.clear();
      for (const auto* tokens : pool) {
        if (audited.count(tokens)) continue;
        if (classifier.Score(*tokens) >= threshold) batch.push_back(tokens);
      }
    }
    if (batch.empty()) break;
    obs::ScopedSpan audit_span(config.tracer, "pipeline.ec_concepts.audit");
    Rng shuffle_rng(config.seed + static_cast<uint64_t>(iteration));
    shuffle_rng.Shuffle(&batch);
    size_t audit_n = std::min(kAuditSample, batch.size());
    size_t audit_ok = 0;
    for (size_t i = 0; i < audit_n; ++i) {
      bool good = world.IsGoodConcept(*batch[i]);
      audit_ok += good;
      // Human-labeled samples enter the training set either way; the good
      // ones are concepts regardless of the batch's fate.
      annotated.push_back(concepts::LabeledConcept{*batch[i], good ? 1 : 0});
      audited.insert(batch[i]);
      if (good) audited_good.push_back(batch[i]);
    }
    report.audit_accuracy =
        static_cast<double>(audit_ok) / static_cast<double>(audit_n);
    if (report.audit_accuracy >= kAuditAccuracyThreshold) {
      report.audit_passed = true;
      accepted.assign(batch.begin() + static_cast<long>(audit_n),
                      batch.end());
    } else if (iteration >= 2) {
      threshold = std::min(0.95, threshold + 0.15);
    }
  }
  if (report.audit_passed) {
    accepted.insert(accepted.end(), audited_good.begin(), audited_good.end());
    accepted_phrases.reserve(accepted.size());
    std::string key;  // reused across accepted concepts
    for (const auto* tokens : accepted) {
      accepted_phrases.push_back(*tokens);
      key = JoinStrings(*tokens, " ");
      if (net.FindEcConcept(key).has_value()) continue;
      auto res = net.GetOrAddEcConcept(*tokens);
      if (res.ok()) ++report.ec_accepted;
    }
  }
  stage.Count("candidates", report.ec_candidates);
  stage.Count("audited", audited.size());
  stage.Count("audit_rejected", audited.size() - audited_good.size());
  stage.Count("accepted", report.ec_accepted);
  stage.Gauge("audit_accuracy", report.audit_accuracy);
  return Status::OK();
}

// ---- Stage 6: concept tagging -> interpretation links ----
Status BuildState::TagConcepts(Stage& stage) {
  tagging::TaggerResources tag_res;
  tag_res.pos_tagger = &world.pos_tagger();
  tag_res.context_matrix = &resources.context_matrix();
  tag_res.corpus_vocab = &resources.vocab();
  tagging::ConceptTagger tagger(config.tagger, tag_res);
  std::vector<tagging::TaggedExample> tag_train;
  tag_train.reserve(world.tagged_concepts().size());
  for (const auto& t : world.tagged_concepts()) {
    tag_train.push_back(tagging::TaggedExample{t.tokens, t.allowed_iob});
  }
  // Distant-supervision augmentation from the accepted candidates, labeled
  // by the (grown) mining dictionary (Section 7.5).
  auto distant = tagging::BuildDistantExamples(
      dictionary->segmenter(), accepted_phrases, datagen::CarrierVocabulary());
  tag_train.insert(tag_train.end(), distant.begin(), distant.end());
  tagger.Train(tag_train);
  // Scratch reused across every decoded span of every concept.
  std::vector<std::string> piece;
  std::string surface;
  for (const auto& ec : net.ec_concepts()) {
    auto tags = tagger.Predict(ec.tokens);
    for (const auto& span : eval::DecodeIob(tags)) {
      piece.assign(ec.tokens.begin() + span.begin,
                   ec.tokens.begin() + span.end);
      surface = JoinStrings(piece, " ");
      auto cls = net.taxonomy().Find(span.type);
      if (!cls.ok()) continue;
      std::optional<kg::ConceptId> prim = net.FindPrimitive(surface, *cls);
      if (!prim.has_value()) {
        // Fall back to any sense within the predicted domain subtree.
        for (kg::ConceptId sense : net.FindPrimitive(surface)) {
          if (net.taxonomy().IsAncestor(*cls, net.Get(sense).cls)) {
            prim = sense;
            break;
          }
        }
      }
      if (prim.has_value() &&
          net.LinkEcToPrimitive(ec.id, *prim).ok()) {
        ++report.interpretation_links;
      }
    }
  }

  stage.Count("interpretation_links", report.interpretation_links);
  return Status::OK();
}

// ---- Stage 7: items + association ----
// Items enter from the catalog; primitive tags via max-matching; ec-item
// association via the trained knowledge-aware matcher.
Status BuildState::AssociateItems(Stage& stage) {
  std::vector<kg::ItemId> net_items;
  net_items.reserve(world.net().items().size());
  for (const auto& item : world.net().items()) {
    ALICOCO_ASSIGN_OR_RETURN(
        kg::ItemId id, net.AddItem(item.title, DomainClass(net, "Category")));
    net_items.push_back(id);
    ++report.items_added;
    auto seg = dictionary->segmenter().Match(item.title);
    for (const auto& match : seg.matches) {
      auto cls = net.taxonomy().Find(match.label);
      if (!cls.ok()) continue;
      auto prim = net.FindPrimitive(match.phrase, *cls);
      if (prim.has_value() &&
          net.LinkItemToPrimitive(id, *prim).ok()) {
        ++report.item_primitive_links;
      }
    }
  }

  // Sub-stage spans: train (dataset and training), calibrate, score
  // (candidate scoring and link writes).
  std::optional<obs::ScopedSpan> train_span(
      std::in_place, config.tracer, "pipeline.item_association.train");
  matching::KnowledgeMatcher matcher(config.matcher,
                                     matching::NetKnowledge(world, resources,
                                                            net),
                                     &resources.embeddings(),
                                     &resources.vocab());
  if (config.metrics != nullptr) {
    matcher.set_score_latency_histogram(config.metrics->GetHistogram(
        "matching.knowledge_matcher.score_latency_us"));
  }
  matching::MatchingDatasetConfig md_cfg;
  md_cfg.seed = config.seed ^ 0xAA;
  matching::MatchingDataset md = matching::BuildMatchingDataset(world, md_cfg);
  matcher.Train(md);
  train_span.reset();

  const double assoc_threshold = [&] {
    obs::ScopedSpan calibrate_span(config.tracer,
                                   "pipeline.item_association.calibrate");
    std::vector<std::pair<double, int>> scored;
    scored.reserve(md.test.size());
    for (const auto& ex : md.test) {
      scored.emplace_back(
          matcher.Score(ex.concept_tokens, ex.item_tokens, ex.item_id),
          ex.label);
    }
    // Deployment prior: average gold-link density over the world's items.
    double deploy_prior = 0.1;
    if (!world.ec_gold().empty() && !world.net().items().empty()) {
      double acc = 0;
      for (const auto& g : world.ec_gold()) {
        acc += static_cast<double>(g.items.size()) /
               static_cast<double>(world.net().items().size());
      }
      deploy_prior = std::min(0.5, acc / world.ec_gold().size());
    }
    return CalibrateAssociationThreshold(scored, deploy_prior);
  }();

  // Keep the top-k scored candidates per concept above the threshold.
  // Scoring is read-only on the matcher and the net, so concepts fan out
  // over the pool; links are written sequentially afterwards.
  {
    obs::ScopedSpan score_span(config.tracer,
                               "pipeline.item_association.score");
    size_t num_concepts = net.ec_concepts().size();
    std::vector<std::vector<std::pair<double, kg::ItemId>>> per_concept(
        num_concepts);
    // Per-shard tallies; summed after the barrier so workers never share a
    // counter.
    std::vector<size_t> above_threshold(num_concepts, 0);
    worker_pool.ParallelFor(num_concepts, [&](size_t idx) {
      const auto& ec = net.ec_concepts()[idx];
      Rng local_rng(config.seed ^ (0x9E3779B9ull * (idx + 1)));
      auto& ranked = per_concept[idx];
      for (size_t n = 0; n < config.association_candidates; ++n) {
        kg::ItemId item = net_items[local_rng.Uniform(net_items.size())];
        double s = matcher.Score(ec.tokens, net.Get(item).title,
                                 static_cast<int64_t>(item.value));
        if (s >= assoc_threshold) {
          ranked.emplace_back(s, item);
          ++above_threshold[idx];
        }
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second.value < b.second.value;
                });
      if (ranked.size() > kAssociationTopK) ranked.resize(kAssociationTopK);
    });
    size_t edges_above = 0;
    for (size_t idx = 0; idx < num_concepts; ++idx) {
      const auto& ec = net.ec_concepts()[idx];
      for (const auto& [score, item] : per_concept[idx]) {
        // The matcher score becomes the edge probability (future work 2).
        if (net.LinkItemToEc(item, ec.id, score).ok()) {
          ++report.item_ec_links;
        }
      }
      edges_above += above_threshold[idx];
    }
    stage.Count("edges_above_threshold", edges_above);
    stage.Count("edges_below_threshold",
                num_concepts * config.association_candidates - edges_above);
    // The distinct titles the calibration and the scoring above encoded.
    stage.Count("items_encoded", matcher.items_encoded());
  }
  stage.Count("items_added", report.items_added);
  stage.Count("item_primitive_links", report.item_primitive_links);
  stage.Count("item_ec_links", report.item_ec_links);
  stage.Gauge("assoc_threshold", assoc_threshold);
  return Status::OK();
}

// ---- Stage 8: commonsense relation inference (Section 10) ----
// Typed relations inferred over the built catalog (future work items 1-2)
// enter the net with lift-derived confidences.
Status BuildState::InferRelations(Stage& stage) {
  mining::RelationInference inference(&net);
  const mining::RelationInferenceConfig rel_cfg;
  report.inferred_relations += mining::RelationInference::Commit(
      inference.InferSuitableWhen(rel_cfg), &net);
  report.inferred_relations += mining::RelationInference::Commit(
      inference.InferUsedWhen(rel_cfg), &net);
  stage.Count("inferred_relations", report.inferred_relations);
  return Status::OK();
}

// ---- Stage 9: structural audit (kg_validate hook) ----
// A net that violates the paper's invariants is a build failure, not a
// deliverable: it never leaves the pipeline.
Status BuildState::ValidateNet(Stage& stage) {
  kg::ValidationReport audit = kg::Validator().Validate(net);
  stage.Count("issues", audit.issues.size());
  if (!audit.ok()) {
    ALICOCO_LOG(Error) << audit.Summary();
    return Status::Internal(
        "built concept net failed validation: " +
        std::to_string(audit.issues.size()) + " issue(s), first: [" +
        kg::ValidationCodeToString(audit.issues.front().code) + "] " +
        audit.issues.front().message);
  }
  ALICOCO_LOG(Info) << audit.Summary();
  return Status::OK();
}

// The stages in execution order, each under its span name.
constexpr std::pair<const char*, Status (BuildState::*)(Stage&)> kStages[] = {
    {"taxonomy_schema", &BuildState::DeclareTaxonomy},
    {"seed_concepts", &BuildState::SeedConcepts},
    {"mining", &BuildState::MineConcepts},
    {"hypernym_discovery", &BuildState::DiscoverHypernyms},
    {"ec_concepts", &BuildState::GenerateEcConcepts},
    {"concept_tagging", &BuildState::TagConcepts},
    {"item_association", &BuildState::AssociateItems},
    {"relation_inference", &BuildState::InferRelations},
    {"validation", &BuildState::ValidateNet},
};

}  // namespace

std::string BuildReport::Summary() const {
  std::string out;
  out += StringPrintf("seed concepts:            %zu\n", seed_concepts);
  for (size_t e = 0; e < mining_epochs.size(); ++e) {
    out += StringPrintf(
        "mining epoch %zu:           %zu candidates, %zu accepted "
        "(precision %.2f)\n",
        e + 1, mining_epochs[e].candidates, mining_epochs[e].accepted,
        mining_epochs[e].precision);
  }
  out += StringPrintf("mined concepts:           %zu\n", mined_concepts);
  out += StringPrintf("isA from patterns:        %zu\n", isa_from_patterns);
  out += StringPrintf("isA from projection:      %zu\n", isa_from_projection);
  out += StringPrintf("ec candidates:            %zu\n", ec_candidates);
  out += StringPrintf("ec accepted:              %zu (audit %.2f, %s)\n",
                      ec_accepted, audit_accuracy,
                      audit_passed ? "passed" : "FAILED");
  out += StringPrintf("interpretation links:     %zu\n",
                      interpretation_links);
  out += StringPrintf("items added:              %zu\n", items_added);
  out += StringPrintf("item-primitive links:     %zu\n",
                      item_primitive_links);
  out += StringPrintf("item-ec links:            %zu\n", item_ec_links);
  out += StringPrintf("inferred typed relations: %zu\n", inferred_relations);
  return out;
}

double CalibrateAssociationThreshold(
    const std::vector<std::pair<double, int>>& scored, double deploy_prior) {
  size_t positives = 0;
  for (const auto& [score, label] : scored) positives += label;
  double calib_prior = scored.empty()
                           ? 0.5
                           : static_cast<double>(positives) / scored.size();
  double w = (deploy_prior / (1.0 - deploy_prior)) /
             std::max(1e-6, calib_prior / (1.0 - calib_prior));
  std::vector<std::pair<double, int>> ranked = scored;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double tp = 0, fp = 0;
  size_t taken = 0;
  double best = 1.0;
  for (const auto& [score, label] : ranked) {
    ++taken;
    if (label) {
      tp += w;
    } else {
      fp += 1;
    }
    double precision = tp / std::max(1e-9, tp + fp);
    if (precision >= kAssociationTargetPrecision && taken >= 20) {
      best = score;
    }
  }
  return best < 1.0 ? std::max(kAssociationMinThreshold, best)
                    : kAssociationMinThreshold;
}

AliCoCoBuilder::AliCoCoBuilder(const datagen::World* world,
                               const datagen::WorldResources* resources,
                               const PipelineConfig& config)
    : world_(world), resources_(resources), config_(config) {
  ALICOCO_CHECK(world != nullptr && resources != nullptr);
}

Result<kg::ConceptNet> AliCoCoBuilder::Build(BuildReport* report) {
  ALICOCO_CHECK(report != nullptr);
  obs::ScopedSpan build_span(config_.tracer, "pipeline.build");
  // One worker pool serves the whole build: data-parallel minibatches in
  // the mining and ec_concepts trainers, and the item-association scorer
  // fan-out. Declared after the metrics adapter so the pool (and its
  // workers) wind down before the observer they report to.
  std::optional<obs::ThreadPoolMetrics> pool_metrics;
  if (config_.metrics != nullptr) {
    pool_metrics.emplace(config_.metrics, "pipeline.worker_pool");
  }
  ThreadPool worker_pool(std::max(1u, std::thread::hardware_concurrency()));
  if (pool_metrics.has_value()) worker_pool.SetObserver(&*pool_metrics);

  BuildState state{*world_, *resources_, config_, worker_pool, *report};
  for (const auto& [name, run] : kStages) {
    Stage stage(config_, name);
    ALICOCO_RETURN_NOT_OK((state.*run)(stage));
  }
  return std::move(state.net);
}

GoldComparison AliCoCoBuilder::CompareToGold(const kg::ConceptNet& built,
                                             const datagen::World& world) {
  GoldComparison cmp;
  const auto& gold = world.net();

  // Primitive surfaces (domain-insensitive to tolerate class granularity).
  std::unordered_set<std::string> gold_surfaces, built_surfaces;
  for (const auto& p : gold.primitives()) gold_surfaces.insert(p.surface);
  for (const auto& p : built.primitives()) built_surfaces.insert(p.surface);
  size_t inter = 0;
  for (const auto& s : built_surfaces) inter += gold_surfaces.count(s);
  if (!built_surfaces.empty()) {
    cmp.primitive_precision =
        static_cast<double>(inter) / built_surfaces.size();
  }
  if (!gold_surfaces.empty()) {
    cmp.primitive_recall = static_cast<double>(inter) / gold_surfaces.size();
  }

  // isA edges by surface pair.
  auto edge_set = [](const kg::ConceptNet& net) {
    std::unordered_set<std::string> edges;
    for (const auto& p : net.primitives()) {
      for (kg::ConceptId h : net.Hypernyms(p.id)) {
        edges.insert(p.surface + "\t" + net.Get(h).surface);
      }
    }
    return edges;
  };
  auto gold_edges = edge_set(gold);
  auto built_edges = edge_set(built);
  size_t edge_inter = 0;
  for (const auto& e : built_edges) edge_inter += gold_edges.count(e);
  if (!built_edges.empty()) {
    cmp.isa_precision = static_cast<double>(edge_inter) / built_edges.size();
  }
  if (!gold_edges.empty()) {
    cmp.isa_recall = static_cast<double>(edge_inter) / gold_edges.size();
  }

  // E-commerce concepts judged by the world's goodness oracle (the sampled
  // gold list is not exhaustive).
  size_t ec_good = 0;
  for (const auto& ec : built.ec_concepts()) {
    ec_good += world.IsGoodConcept(ec.tokens);
  }
  if (built.num_ec_concepts() > 0) {
    cmp.ec_precision = static_cast<double>(ec_good) / built.num_ec_concepts();
  }
  std::unordered_set<std::string> gold_ec;
  for (const auto& ec : gold.ec_concepts()) gold_ec.insert(ec.surface);

  // Item-EC links: built item ids equal world item ids by construction
  // order; compare via (item index, ec surface).
  std::unordered_set<std::string> gold_links;
  for (const auto& item : gold.items()) {
    for (kg::EcConceptId ec : gold.EcConceptsForItem(item.id)) {
      gold_links.insert(std::to_string(item.id.value) + "\t" +
                        gold.Get(ec).surface);
    }
  }
  // Only links whose concept exists in gold can be judged.
  size_t link_inter = 0, built_links = 0;
  for (const auto& item : built.items()) {
    for (kg::EcConceptId ec : built.EcConceptsForItem(item.id)) {
      if (!gold_ec.count(built.Get(ec).surface)) continue;
      ++built_links;
      link_inter += gold_links.count(std::to_string(item.id.value) + "\t" +
                                     built.Get(ec).surface);
    }
  }
  if (built_links > 0) {
    cmp.item_link_precision = static_cast<double>(link_inter) / built_links;
  }
  if (!gold_links.empty()) {
    cmp.item_link_recall =
        static_cast<double>(link_inter) / gold_links.size();
  }
  return cmp;
}

}  // namespace alicoco::pipeline
