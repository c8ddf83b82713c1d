// Reproduces Section 8.2.1: cognitive recommendation (concept cards) vs
// item-based CF, and Section 8.2.2's recommendation reasons: how many
// recommended items a concept-grounded reason can explain.
//
// Paper: concept cards ran in production for over a year with high CTR and
// GMV; a user survey found they bring more novelty and satisfaction than
// behavior-lookalike recommendation. E-commerce concepts are short and
// clear, so they serve as recommendation reasons.

#include <cstdio>

#include "apps/recommender.h"
#include "bench_util.h"
#include "common/table_printer.h"

int main() {
  using namespace alicoco;
  std::printf(
      "== Section 8.2.1: cognitive recommendation vs item-CF ==\n"
      "Paper: concept cards add novelty and satisfy latent needs that "
      "item-CF cannot reach.\n\n");

  datagen::World world = [] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();

  apps::RecommendationReport report;
  {
    bench::StageTimer t("fit CF + run both recommenders");
    report = apps::CompareRecommenders(world, /*k_items=*/12,
                                       /*num_cards=*/3);
  }

  TablePrinter table("Recommendation comparison (measured)");
  table.SetHeader({"metric", "item-CF", "concept cards"});
  table.AddRow({"need-satisfying item rate",
                TablePrinter::Num(report.cf_need_item_rate, 3),
                TablePrinter::Num(report.cog_need_item_rate, 3)});
  table.AddRow({"category novelty", TablePrinter::Num(report.cf_novelty, 3),
                TablePrinter::Num(report.cognitive_novelty, 3)});
  table.AddRow({"latent-need hit rate (per user)", "-",
                TablePrinter::Num(report.needs_hit_rate, 3)});
  table.AddRow({"explainable item rate (8.2.2)",
                TablePrinter::Num(report.cf_explainable_rate, 3),
                TablePrinter::Num(report.cog_explainable_rate, 3)});
  table.Print();
  std::printf(
      "\nShape check: concept cards should satisfy gold needs at a much "
      "higher rate than item-CF while still surfacing novel categories, and "
      "most users should see at least one of their true needs as a card. "
      "A card's items come from a concept the user's history supports, so "
      "they should get a concept-grounded reason more often than item-CF's "
      "lookalike items.\n");
  return 0;
}
