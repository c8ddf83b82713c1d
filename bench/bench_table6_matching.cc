// Reproduces Table 6: concept-item semantic matching (Section 7.6).
//
// Paper: BM25 P@10 0.7681 (AUC/F1 not reported); DSSM 0.7885/0.6937/0.7971;
// MatchPyramid 0.8127/0.7352/0.7813; RE2 0.8664/0.7052/0.8977; Ours
// 0.8610/0.7532/0.9015; Ours+Knowledge 0.8713/0.7769/0.9048.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "matching/bm25_matcher.h"
#include "matching/dssm.h"
#include "matching/knowledge_matcher.h"
#include "matching/match_pyramid.h"
#include "matching/re2_matcher.h"

int main() {
  using namespace alicoco;
  std::printf(
      "== Table 6: semantic matching between e-commerce concepts and "
      "items ==\n"
      "Paper AUC/F1/P@10 in the right-most column.\n\n");

  datagen::World world = [] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();
  auto resources = [&] {
    bench::StageTimer t("train embeddings + LM");
    return std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
  }();

  matching::MatchingDataset dataset;
  {
    bench::StageTimer t("build matching dataset");
    matching::MatchingDatasetConfig cfg;
    cfg.max_positives_per_concept = 8;
    cfg.rank_candidates = 20;
    dataset = matching::BuildMatchingDataset(world, cfg);
    std::printf("  %zu train pairs, %zu test pairs, %zu rank queries\n",
                dataset.train.size(), dataset.test.size(),
                dataset.rank_queries.size());
  }

  const matching::KnowledgeResources know =
      matching::NetKnowledge(world, *resources, world.net());

  matching::NeuralMatcherConfig base;
  base.epochs = 7;
  matching::KnowledgeMatcherConfig ours_cfg;
  ours_cfg.base = base;
  ours_cfg.use_knowledge = false;
  matching::KnowledgeMatcherConfig ours_k_cfg;
  ours_k_cfg.base = base;
  matching::KnowledgeResources ours_res;  // no knowledge plumbing needed
  ours_res.pos_tagger = &world.pos_tagger();

  struct Row {
    std::unique_ptr<matching::Matcher> model;
    const char* paper;
  };
  std::vector<Row> rows;
  rows.push_back({std::make_unique<matching::Bm25Matcher>(),
                  "-/-/0.7681"});
  rows.push_back({std::make_unique<matching::DssmMatcher>(
                      base, &resources->embeddings(), &resources->vocab()),
                  "0.7885/0.6937/0.7971"});
  rows.push_back({std::make_unique<matching::MatchPyramidMatcher>(
                      base, &resources->embeddings(), &resources->vocab()),
                  "0.8127/0.7352/0.7813"});
  rows.push_back({std::make_unique<matching::Re2Matcher>(
                      base, &resources->embeddings(), &resources->vocab()),
                  "0.8664/0.7052/0.8977"});
  rows.push_back({std::make_unique<matching::KnowledgeMatcher>(
                      ours_cfg, ours_res, &resources->embeddings(),
                      &resources->vocab()),
                  "0.8610/0.7532/0.9015"});
  rows.push_back({std::make_unique<matching::KnowledgeMatcher>(
                      ours_k_cfg, know, &resources->embeddings(),
                      &resources->vocab()),
                  "0.8713/0.7769/0.9048"});

  TablePrinter table("Table 6 (measured)");
  table.SetHeader({"Model", "AUC", "F1", "P@10", "Paper AUC/F1/P@10"});
  for (auto& row : rows) {
    bench::StageTimer t(row.model->name().c_str());
    row.model->Train(dataset);
    auto m = matching::EvaluateMatcher(*row.model, dataset);
    bool is_bm25 = row.model->name() == "BM25";
    table.AddRow({row.model->name(),
                  is_bm25 ? "-" : TablePrinter::Num(m.auc, 4),
                  is_bm25 ? "-" : TablePrinter::Num(m.f1, 4),
                  TablePrinter::Num(m.p_at_10, 4), row.paper});
  }
  table.Print();
  std::printf(
      "\nShape check: knowledge should improve Ours on every metric; the "
      "strong learned models (MatchPyramid/RE2/Ours) should beat BM25 and "
      "DSSM; RE2 is the strongest baseline on AUC, as in the paper.\n");
  return 0;
}
