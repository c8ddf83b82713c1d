// Design-choice ablations beyond the paper's tables, plus the Section-10
// future-work extension (commonsense relation inference with
// probabilities):
//   1. the matcher's two channels (attention c/i vs matching pyramid),
//   2. relation-inference lift threshold sweep (precision/recall trade).

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "matching/knowledge_matcher.h"
#include "mining/relation_inference.h"

int main() {
  using namespace alicoco;
  std::printf("== Design ablations + future-work extension ==\n\n");

  datagen::World world = [] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();
  auto resources = [&] {
    bench::StageTimer t("train embeddings + LM");
    return std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
  }();

  // ---- 1. matcher channel ablation ----
  matching::MatchingDatasetConfig mdc;
  mdc.max_positives_per_concept = 8;
  mdc.rank_candidates = 20;
  auto dataset = matching::BuildMatchingDataset(world, mdc);

  const matching::KnowledgeResources know =
      matching::NetKnowledge(world, *resources, world.net());
  matching::KnowledgeResources plain;
  plain.pos_tagger = &world.pos_tagger();

  TablePrinter matcher_table(
      "Matcher channel ablation (attention c/i x knowledge)");
  matcher_table.SetHeader({"attention", "knowledge", "AUC", "F1", "P@10"});
  for (bool attention : {false, true}) {
    for (bool knowledge : {false, true}) {
      bench::StageTimer t("matcher variant");
      matching::KnowledgeMatcherConfig cfg;
      cfg.base.epochs = 5;
      cfg.use_attention_channel = attention;
      cfg.use_knowledge = knowledge;
      matching::KnowledgeMatcher model(cfg, knowledge ? know : plain,
                                       &resources->embeddings(),
                                       &resources->vocab());
      model.Train(dataset);
      auto m = matching::EvaluateMatcher(model, dataset);
      matcher_table.AddRow({attention ? "on" : "off",
                            knowledge ? "on" : "off",
                            TablePrinter::Num(m.auc, 4),
                            TablePrinter::Num(m.f1, 4),
                            TablePrinter::Num(m.p_at_10, 4)});
    }
  }
  matcher_table.Print();

  // ---- 2. relation inference (future work items 1-2) ----
  mining::RelationInference engine(&world.net());
  TablePrinter rel_table(
      "\nCommonsense relation inference: lift-threshold sweep "
      "(suitable_when)");
  rel_table.SetHeader({"min lift", "proposed", "precision", "recall",
                       "top confidence"});
  for (double lift : {1.1, 1.5, 2.0, 3.0}) {
    mining::RelationInferenceConfig cfg;
    cfg.min_lift = lift;
    auto proposals = engine.InferSuitableWhen(cfg);
    auto quality =
        mining::EvaluateSuitableWhen(proposals, world, cfg.min_support);
    rel_table.AddRow({TablePrinter::Num(lift, 1),
                      std::to_string(quality.proposed),
                      TablePrinter::Num(quality.precision, 3),
                      TablePrinter::Num(quality.recall, 3),
                      proposals.empty()
                          ? "-"
                          : TablePrinter::Num(proposals[0].confidence, 3)});
  }
  rel_table.Print();

  mining::RelationInferenceConfig cfg;
  auto used_when = engine.InferUsedWhen(cfg);
  size_t correct = 0;
  for (const auto& rel : used_when) {
    correct += world.GoldCompatible(rel.subject, rel.object);
  }
  std::printf(
      "\nused_when(category, event) from item associations: %zu proposals, "
      "precision %.3f\n(the 'boy's T-shirt implies Summer' inference of "
      "Section 10, with confidences per future-work item 2)\n",
      used_when.size(),
      used_when.empty() ? 0.0
                        : static_cast<double>(correct) / used_when.size());
  std::printf(
      "\nShape check: the pyramid channel should carry most of the matcher; "
      "knowledge should help in every configuration; relation-inference "
      "precision should rise with the lift threshold while recall falls.\n");
  return 0;
}
