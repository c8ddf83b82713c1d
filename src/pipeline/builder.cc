#include "pipeline/builder.h"

#include "mining/relation_inference.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_map>
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

// Surfaces of gold primitive concepts keyed by "surface\tdomain".
std::unordered_set<std::string> GoldConceptKeys(const datagen::World& world) {
  std::unordered_set<std::string> keys;
  for (const auto& p : world.net().primitives()) {
    keys.insert(p.surface + "\t" + world.DomainLabel(p.id));
  }
  return keys;
}

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

AliCoCoBuilder::AliCoCoBuilder(const datagen::World* world,
                               const datagen::WorldResources* resources,
                               const PipelineConfig& config)
    : world_(world), resources_(resources), config_(config) {
  ALICOCO_CHECK(world != nullptr && resources != nullptr);
}

Result<kg::ConceptNet> AliCoCoBuilder::Build(BuildReport* report) {
  ALICOCO_CHECK(report != nullptr);
  Rng rng(config_.seed);
  kg::ConceptNet net;

  // Stage instrumentation: one root span for the whole build, one child
  // span per stage (sequential, so a single re-emplaced slot suffices),
  // and counters/gauges published under `pipeline.<stage>.<name>`. With
  // null tracer/metrics every helper is a no-op.
  obs::Tracer* tracer = config_.tracer;
  obs::Registry* metrics = config_.metrics;
  obs::ScopedSpan build_span(tracer, "pipeline.build");
  std::optional<obs::ScopedSpan> stage_span;
  auto begin_stage = [&](const char* stage) {
    stage_span.emplace(tracer, std::string("pipeline.") + stage);
  };
  auto stage_count = [&](const char* stage, const char* name, size_t value) {
    if (metrics != nullptr) {
      metrics->GetCounter(std::string("pipeline.") + stage + "." + name)
          ->Add(value);
    }
    if (stage_span.has_value()) {
      stage_span->AddAttribute(name, static_cast<uint64_t>(value));
    }
  };
  auto stage_gauge = [&](const char* stage, const char* name, double value) {
    if (metrics != nullptr) {
      metrics->GetGauge(std::string("pipeline.") + stage + "." + name)
          ->Set(value);
    }
    if (stage_span.has_value()) stage_span->AddAttribute(name, value);
  };

  // One worker pool serves the whole build: data-parallel minibatches in
  // the mining and ec_concepts trainers, and the item-association scorer
  // fan-out below. Declared after the metrics adapter so the pool (and its
  // workers) wind down before the observer they report to.
  std::optional<obs::ThreadPoolMetrics> pool_metrics;
  if (metrics != nullptr) {
    pool_metrics.emplace(metrics, "pipeline.worker_pool");
  }
  ThreadPool worker_pool(std::max(1u, std::thread::hardware_concurrency()));
  if (pool_metrics.has_value()) worker_pool.SetObserver(&*pool_metrics);

  // ---- Stage 1: taxonomy + schema (expert-defined) ----
  begin_stage("taxonomy_schema");
  datagen::TaxonomyHandles handles = datagen::BuildTaxonomy(&net.taxonomy());
  ALICOCO_RETURN_NOT_OK(net.AddRelation("suitable_when", handles.category,
                                        handles.time_season));
  ALICOCO_RETURN_NOT_OK(
      net.AddRelation("used_when", handles.category, handles.event));
  stage_count("taxonomy_schema", "classes", net.taxonomy().size());
  stage_count("taxonomy_schema", "relations_declared", 2);

  auto domain_class = [&](const std::string& domain) -> kg::ClassId {
    auto res = net.taxonomy().Find(domain);
    ALICOCO_CHECK(res.ok()) << "unknown domain " << domain;
    return *res;
  };

  // ---- Stage 2: seed primitive concepts (ontology matching) ----
  // The external knowledge base also supplies glosses where it has entries.
  begin_stage("seed_concepts");
  for (const auto& [surface, domain] : world_->seed_dictionary()) {
    ALICOCO_ASSIGN_OR_RETURN(
        kg::ConceptId id,
        net.GetOrAddPrimitiveConcept(surface, domain_class(domain)));
    for (kg::ConceptId gold : world_->net().FindPrimitive(surface)) {
      const auto& gloss = world_->net().Get(gold).gloss;
      if (!gloss.empty()) {
        ALICOCO_RETURN_NOT_OK(net.SetGloss(id, gloss));
        break;
      }
    }
  }
  report->seed_concepts = net.num_primitive_concepts();
  stage_count("seed_concepts", "seed_concepts", report->seed_concepts);

  // ---- Stage 3: mining loop ----
  begin_stage("mining");
  mining::DistantSupervisor supervisor(world_->seed_dictionary(),
                                       datagen::CarrierVocabulary());
  std::vector<std::vector<std::string>> raw_corpus;
  raw_corpus.reserve(world_->sentences().size());
  for (const auto& s : world_->sentences()) raw_corpus.push_back(s.tokens);
  auto labeled = supervisor.Label(raw_corpus);
  if (labeled.empty()) {
    return Status::FailedPrecondition("distant supervision produced no data");
  }
  mining::SequenceLabelerConfig labeler_cfg = config_.labeler;
  labeler_cfg.pool = &worker_pool;
  mining::SequenceLabeler labeler(labeler_cfg);
  labeler.Train(labeled);

  auto gold_keys = GoldConceptKeys(*world_);
  mining::ConceptMiner miner(
      &supervisor, &labeler,
      [&](const std::string& surface, const std::string& domain) {
        return gold_keys.count(surface + "\t" + domain) > 0;
      });
  for (int epoch = 0; epoch < config_.mining_epochs; ++epoch) {
    obs::ScopedSpan epoch_span(tracer, "pipeline.mining.epoch");
    epoch_span.AddAttribute("epoch", static_cast<uint64_t>(epoch + 1));
    report->mining_epochs.push_back(
        miner.RunEpoch(raw_corpus, config_.mining_min_support));
    epoch_span.AddAttribute(
        "accepted",
        static_cast<uint64_t>(report->mining_epochs.back().accepted));
  }
  for (const auto& mined : miner.accepted()) {
    ALICOCO_ASSIGN_OR_RETURN(
        kg::ConceptId id,
        net.GetOrAddPrimitiveConcept(mined.surface,
                                     domain_class(mined.domain)));
    (void)id;
    ++report->mined_concepts;
  }
  {
    size_t mining_candidates = 0, mining_accepted = 0;
    for (const auto& epoch : report->mining_epochs) {
      mining_candidates += epoch.candidates;
      mining_accepted += epoch.accepted;
    }
    stage_count("mining", "candidates", mining_candidates);
    stage_count("mining", "accepted", mining_accepted);
    stage_count("mining", "mined_concepts", report->mined_concepts);
  }

  // ---- Stage 4: hypernym discovery inside Category ----
  begin_stage("hypernym_discovery");
  std::vector<std::string> category_vocab;
  category_vocab.reserve(net.num_primitive_concepts());  // upper bound
  for (kg::ClassId cls :
       net.taxonomy().Subtree(domain_class("Category"))) {
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
  for (const auto& pair : pattern_miner.MineSuffix()) {
    add_isa(pair.hypo, pair.hyper, &report->isa_from_patterns);
    has_hypernym.insert(pair.hypo);
  }
  for (const auto& pair : pattern_miner.MineHearst(raw_corpus)) {
    if (pair.support < 2) continue;
    add_isa(pair.hypo, pair.hyper, &report->isa_from_patterns);
    has_hypernym.insert(pair.hypo);
  }

  // Projection learning, distantly supervised by the pattern pairs, then
  // applied to concepts the patterns could not attach.
  std::vector<hypernym::LabeledPair> proj_train;
  {
    Rng neg_rng(config_.seed ^ 0x517);
    auto suffix_pairs = pattern_miner.MineSuffix();
    proj_train.reserve(suffix_pairs.size() * 9);  // 1 positive + 8 negatives
    for (const auto& pair : suffix_pairs) {
      proj_train.push_back(hypernym::LabeledPair{pair.hypo, pair.hyper, 1});
      for (int n = 0; n < 8; ++n) {
        proj_train.push_back(hypernym::LabeledPair{
            pair.hypo, category_vocab[neg_rng.Uniform(category_vocab.size())],
            0});
      }
    }
  }
  if (!proj_train.empty()) {
    hypernym::ProjectionModel projection(&resources_->embeddings(),
                                         &resources_->vocab(),
                                         config_.projection);
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
      if (best >= config_.hypernym_accept_threshold && !best_hyper.empty()) {
        add_isa(surface, best_hyper, &report->isa_from_projection);
      }
    }
  }

  stage_count("hypernym_discovery", "isa_from_patterns",
              report->isa_from_patterns);
  stage_count("hypernym_discovery", "isa_from_projection",
              report->isa_from_projection);

  // ---- Stage 5: e-commerce concept generation + classification ----
  begin_stage("ec_concepts");
  concepts::PhraseMiner phrase_miner(/*min_count=*/3, /*max_len=*/4);
  std::vector<std::vector<std::string>> query_guides;
  query_guides.reserve(world_->sentences().size());  // upper bound
  for (const auto& s : world_->sentences()) {
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
  for (const char* spec :
       {"Function Category for:lit Event", "Style Season Category",
        "Location Event", "Function for:lit Audience",
        "Holiday gifts:lit for:lit Audience"}) {
    for (auto& tokens : combiner.Generate(
             concepts::ConceptPattern::Parse(spec), 200, &rng)) {
      candidates.push_back(std::move(tokens));
    }
  }
  report->ec_candidates = candidates.size();

  // Train the classifier on the annotated candidate set (the paper's
  // months-long labeling campaign).
  concepts::ClassifierResources cls_res;
  cls_res.embeddings = &resources_->embeddings();
  cls_res.corpus_vocab = &resources_->vocab();
  cls_res.lm = &resources_->lm();
  cls_res.gloss_encoder = &resources_->gloss_encoder();
  cls_res.gloss_lookup = [this](const std::string& w) {
    return resources_->GlossOf(w);
  };
  std::vector<concepts::LabeledConcept> annotated;
  // Seed labels now, plus up to audit_sample audited labels per iteration
  // of the quality-control loop below.
  annotated.reserve(world_->concept_candidates().size() +
                    5 * config_.audit_sample);
  for (const auto& c : world_->concept_candidates()) {
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

  // Quality-control loop (Section 5.2.2): audit a random sample of each
  // candidate batch; audited labels join the training data and the model
  // retrains ("the annotated samples will be added to training data to
  // iteratively improve the model"). The threshold tightens as a last
  // resort; nothing enters the net until a batch passes.
  std::vector<const std::vector<std::string>*> accepted;
  std::vector<const std::vector<std::string>*> audited_good;
  audited_good.reserve(5 * config_.audit_sample);  // per-iteration cap
  double threshold = config_.concept_accept_threshold;
  std::unordered_set<const std::vector<std::string>*> audited;
  // The candidate batch is rebuilt every quality-control iteration; keep
  // the buffer (and its capacity) across iterations.
  std::vector<const std::vector<std::string>*> batch;
  batch.reserve(pool.size());
  for (int iteration = 0; iteration < 5 && !report->audit_passed;
       ++iteration) {
    concepts::ConceptClassifierConfig cls_cfg = config_.classifier;
    cls_cfg.seed = config_.classifier.seed + static_cast<uint64_t>(iteration);
    cls_cfg.pool = &worker_pool;
    concepts::ConceptClassifier classifier(cls_cfg, cls_res);
    classifier.Train(annotated);

    batch.clear();
    for (const auto* tokens : pool) {
      if (audited.count(tokens)) continue;
      if (classifier.Score(*tokens) >= threshold) batch.push_back(tokens);
    }
    if (batch.empty()) break;
    Rng shuffle_rng(config_.seed + static_cast<uint64_t>(iteration));
    shuffle_rng.Shuffle(&batch);
    size_t audit_n = std::min(config_.audit_sample, batch.size());
    size_t audit_ok = 0;
    for (size_t i = 0; i < audit_n; ++i) {
      bool good = world_->IsGoodConcept(*batch[i]);
      audit_ok += good;
      // Human-labeled samples enter the training set either way; the good
      // ones are concepts regardless of the batch's fate.
      annotated.push_back(concepts::LabeledConcept{*batch[i], good ? 1 : 0});
      audited.insert(batch[i]);
      if (good) audited_good.push_back(batch[i]);
    }
    report->audit_accuracy =
        static_cast<double>(audit_ok) / static_cast<double>(audit_n);
    if (report->audit_accuracy >= config_.audit_accuracy_threshold) {
      report->audit_passed = true;
      accepted.assign(batch.begin() + static_cast<long>(audit_n),
                      batch.end());
    } else if (iteration >= 2) {
      threshold = std::min(0.95, threshold + 0.15);
    }
  }
  if (report->audit_passed) {
    accepted.insert(accepted.end(), audited_good.begin(), audited_good.end());
    std::string key;  // reused across accepted concepts
    for (const auto* tokens : accepted) {
      key = JoinStrings(*tokens, " ");
      if (net.FindEcConcept(key).has_value()) continue;
      auto res = net.GetOrAddEcConcept(*tokens);
      if (res.ok()) ++report->ec_accepted;
    }
  }
  stage_count("ec_concepts", "candidates", report->ec_candidates);
  stage_count("ec_concepts", "audited", audited.size());
  stage_count("ec_concepts", "audit_rejected",
              audited.size() - audited_good.size());
  stage_count("ec_concepts", "accepted", report->ec_accepted);
  stage_gauge("ec_concepts", "audit_accuracy", report->audit_accuracy);

  // ---- Stage 6: concept tagging -> interpretation links ----
  begin_stage("concept_tagging");
  tagging::TaggerResources tag_res;
  tag_res.pos_tagger = &world_->pos_tagger();
  tag_res.context_matrix = &resources_->context_matrix();
  tag_res.corpus_vocab = &resources_->vocab();
  tagging::ConceptTagger tagger(config_.tagger, tag_res);
  std::vector<tagging::TaggedExample> tag_train;
  tag_train.reserve(world_->tagged_concepts().size());
  for (const auto& t : world_->tagged_concepts()) {
    tag_train.push_back(tagging::TaggedExample{t.tokens, t.allowed_iob});
  }
  // Distant-supervision augmentation from the accepted candidates, labeled
  // by the (grown) mining dictionary (Section 7.5).
  {
    std::vector<std::vector<std::string>> accepted_phrases;
    accepted_phrases.reserve(accepted.size());
    for (const auto* tokens : accepted) accepted_phrases.push_back(*tokens);
    auto distant = tagging::BuildDistantExamples(
        supervisor.segmenter(), accepted_phrases,
        datagen::CarrierVocabulary());
    tag_train.insert(tag_train.end(), distant.begin(), distant.end());
  }
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
        ++report->interpretation_links;
      }
    }
  }

  stage_count("concept_tagging", "interpretation_links",
              report->interpretation_links);

  // ---- Stage 7: items + association ----
  // Items enter from the catalog; primitive tags via max-matching; ec-item
  // association via the trained knowledge-aware matcher.
  begin_stage("item_association");
  mining::DistantSupervisor item_tagger_dict(world_->seed_dictionary(),
                                             datagen::CarrierVocabulary());
  for (const auto& mined : miner.accepted()) {
    item_tagger_dict.AddEntry(mined.surface, mined.domain);
  }
  std::vector<kg::ItemId> net_items;
  net_items.reserve(world_->net().items().size());
  for (const auto& item : world_->net().items()) {
    ALICOCO_ASSIGN_OR_RETURN(
        kg::ItemId id, net.AddItem(item.title, domain_class("Category")));
    net_items.push_back(id);
    ++report->items_added;
    auto seg = item_tagger_dict.segmenter().Match(item.title);
    for (const auto& match : seg.matches) {
      auto cls = net.taxonomy().Find(match.label);
      if (!cls.ok()) continue;
      auto prim = net.FindPrimitive(match.phrase, *cls);
      if (prim.has_value() &&
          net.LinkItemToPrimitive(id, *prim).ok()) {
        ++report->item_primitive_links;
      }
    }
  }

  matching::KnowledgeResources know_res;
  know_res.pos_tagger = &world_->pos_tagger();
  know_res.gloss_encoder = &resources_->gloss_encoder();
  know_res.gloss_lookup = [this](const std::string& w) {
    return resources_->GlossOf(w);
  };
  know_res.concept_classes =
      [&net](const std::vector<std::string>& tokens) {
        std::vector<int> out;
        auto ec = net.FindEcConcept(JoinStrings(tokens, " "));
        if (ec.has_value()) {
          for (kg::ConceptId p : net.PrimitivesForEc(*ec)) {
            out.push_back(static_cast<int>(net.Get(p).cls.value));
          }
        }
        return out;
      };
  know_res.num_classes = static_cast<int>(net.taxonomy().size());
  matching::KnowledgeMatcher matcher(config_.matcher, know_res,
                                     &resources_->embeddings(),
                                     &resources_->vocab());
  if (metrics != nullptr) {
    matcher.set_score_latency_histogram(
        metrics->GetHistogram("matching.knowledge_matcher.score_latency_us"));
  }
  matching::MatchingDatasetConfig md_cfg;
  md_cfg.seed = config_.seed ^ 0xAA;
  matching::MatchingDataset md = matching::BuildMatchingDataset(*world_,
                                                                md_cfg);
  matcher.Train(md);
  // Quantized association scoring: calibration below and the concurrent
  // candidate scoring both run through the quantized kernels, so the
  // calibrated threshold matches the scores actually deployed.
  if (config_.association_quant != nn::quant::QuantMode::kNone) {
    matcher.EnableQuantizedInference(config_.association_quant);
  }

  // Calibrate the acceptance threshold on the held-out split so dynamic
  // edges meet the target precision AT DEPLOYMENT PRIOR: the calibration
  // pairs are ~50% positive, but a random (concept, item) pair is positive
  // far more rarely, so positives are down-weighted accordingly.
  double assoc_threshold = 1.0;
  {
    std::vector<std::pair<double, int>> scored;
    scored.reserve(md.test.size());
    size_t positives = 0;
    for (const auto& ex : md.test) {
      scored.emplace_back(
          matcher.Score(ex.concept_tokens, ex.item_tokens, ex.item_id),
          ex.label);
      positives += ex.label;
    }
    // Deployment prior: average gold-link density over the world's items.
    double deploy_prior = 0.1;
    if (!world_->ec_gold().empty() && !world_->net().items().empty()) {
      double acc = 0;
      for (const auto& g : world_->ec_gold()) {
        acc += static_cast<double>(g.items.size()) /
               static_cast<double>(world_->net().items().size());
      }
      deploy_prior = std::min(0.5, acc / world_->ec_gold().size());
    }
    double calib_prior = scored.empty()
                             ? 0.5
                             : static_cast<double>(positives) / scored.size();
    double w = (deploy_prior / (1.0 - deploy_prior)) /
               std::max(1e-6, calib_prior / (1.0 - calib_prior));
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    double tp = 0, fp = 0;
    size_t taken = 0;
    double best = 1.0;
    for (const auto& [score, label] : scored) {
      ++taken;
      if (label) {
        tp += w;
      } else {
        fp += 1;
      }
      double precision = tp / std::max(1e-9, tp + fp);
      if (precision >= config_.association_target_precision && taken >= 20) {
        best = score;
      }
    }
    // If the target precision is unreachable, fall back to the configured
    // floor; the top-k cap below bounds the damage.
    assoc_threshold = best < 1.0
                          ? std::max(config_.association_min_threshold, best)
                          : config_.association_min_threshold;
  }

  // Concept pages are ranked item lists: keep only the top-k scored
  // candidates per concept above the calibrated threshold. Scoring is
  // read-only on the matcher and the net, so concepts fan out over a
  // thread pool; links are written sequentially afterwards.
  {
    size_t num_concepts = net.ec_concepts().size();
    std::vector<std::vector<std::pair<double, kg::ItemId>>> per_concept(
        num_concepts);
    // Per-shard tallies; summed after the barrier so workers never share a
    // counter.
    std::vector<size_t> above_threshold(num_concepts, 0);
    std::vector<size_t> below_threshold(num_concepts, 0);
    worker_pool.ParallelFor(num_concepts, [&](size_t idx) {
      const auto& ec = net.ec_concepts()[idx];
      Rng local_rng(config_.seed ^ (0x9E3779B9ull * (idx + 1)));
      auto& ranked = per_concept[idx];
      for (size_t n = 0; n < config_.association_candidates; ++n) {
        kg::ItemId item = net_items[local_rng.Uniform(net_items.size())];
        double s = matcher.Score(ec.tokens, net.Get(item).title,
                                 static_cast<int64_t>(item.value));
        if (s >= assoc_threshold) {
          ranked.emplace_back(s, item);
          ++above_threshold[idx];
        } else {
          ++below_threshold[idx];
        }
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second.value < b.second.value;
                });
      if (ranked.size() > config_.association_top_k) {
        ranked.resize(config_.association_top_k);
      }
    });
    for (size_t idx = 0; idx < num_concepts; ++idx) {
      const auto& ec = net.ec_concepts()[idx];
      for (const auto& [score, item] : per_concept[idx]) {
        // The matcher score becomes the edge probability (future work 2).
        if (net.LinkItemToEc(item, ec.id, score).ok()) {
          ++report->item_ec_links;
        }
      }
    }
    size_t edges_above = 0, edges_below = 0;
    for (size_t idx = 0; idx < num_concepts; ++idx) {
      edges_above += above_threshold[idx];
      edges_below += below_threshold[idx];
    }
    stage_count("item_association", "edges_above_threshold", edges_above);
    stage_count("item_association", "edges_below_threshold", edges_below);
  }
  stage_count("item_association", "items_added", report->items_added);
  stage_count("item_association", "item_primitive_links",
              report->item_primitive_links);
  stage_count("item_association", "item_ec_links", report->item_ec_links);
  stage_gauge("item_association", "assoc_threshold", assoc_threshold);

  // ---- Stage 8: commonsense relation inference (Section 10) ----
  begin_stage("relation_inference");
  if (config_.infer_relations) {
    mining::RelationInference inference(&net);
    mining::RelationInferenceConfig rel_cfg;
    rel_cfg.min_lift = config_.relation_min_lift;
    rel_cfg.min_support = config_.relation_min_support;
    report->inferred_relations +=
        mining::RelationInference::Commit(inference.InferSuitableWhen(rel_cfg),
                                        &net);
    report->inferred_relations +=
        mining::RelationInference::Commit(inference.InferUsedWhen(rel_cfg),
                                        &net);
  }
  stage_count("relation_inference", "inferred_relations",
              report->inferred_relations);

  // ---- Stage 9: structural audit (kg_validate hook) ----
  // Every generated world is checked against the invariants the paper
  // assumes; a net that fails the audit never leaves the pipeline.
  begin_stage("validation");
  if (config_.validate_output) {
    kg::ValidationReport audit = kg::Validator().Validate(net);
    stage_count("validation", "issues", audit.issues.size());
    if (!audit.ok()) {
      ALICOCO_LOG(Error) << audit.Summary();
      return Status::Internal("built concept net failed validation: " +
                              std::to_string(audit.issues.size()) +
                              " issue(s), first: [" +
                              kg::ValidationCodeToString(
                                  audit.issues.front().code) +
                              "] " + audit.issues.front().message);
    }
    ALICOCO_LOG(Info) << audit.Summary();
  }

  return net;
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
