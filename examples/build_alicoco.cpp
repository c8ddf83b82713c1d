// End-to-end construction demo: run the full semi-automatic pipeline on a
// synthetic world (corpora + seed knowledge + simulated annotators) and
// save the constructed AliCoCo to disk.
//
//   build/examples/build_alicoco [output_path]
//
// The net goes to /tmp/alicoco_net.txt unless a path is given. The program
// takes no flags: an argument that starts with '-', or a second path, is
// rejected before anything is built or written.

#include <cstdio>

#include "kg/persistence.h"
#include "kg/stats.h"
#include "pipeline/builder.h"

using namespace alicoco;

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [output_path]\n", argv[0]);
    return 2;
  }
  const char* out_path = argc == 2 ? argv[1] : "/tmp/alicoco_net.txt";

  datagen::WorldConfig wc;
  wc.seed = 2020;
  wc.num_items = 1000;
  wc.num_good_ec_concepts = 200;
  wc.num_bad_ec_concepts = 200;
  std::printf("generating the raw world (corpora, catalog, annotators)...\n");
  datagen::World world = datagen::World::Generate(wc);
  datagen::WorldResources resources(world, datagen::ResourcesConfig{});

  pipeline::PipelineConfig cfg;
  cfg.labeler.epochs = 3;
  cfg.classifier.epochs = 3;
  cfg.tagger.epochs = 4;
  cfg.matcher.base.epochs = 4;
  pipeline::AliCoCoBuilder builder(&world, &resources, cfg);
  pipeline::BuildReport report;
  std::printf("running the nine-stage construction pipeline...\n\n");
  auto net = builder.Build(&report);
  if (!net.ok()) {
    std::printf("pipeline failed: %s\n", net.status().ToString().c_str());
    return 1;
  }

  std::printf("%s\n", report.Summary().c_str());
  std::printf("%s", kg::StatisticsToTable(kg::ComputeStatistics(*net)).c_str());

  auto cmp = pipeline::AliCoCoBuilder::CompareToGold(*net, world);
  std::printf(
      "\nquality vs gold: primitives %.2f/%.2f (P/R), isA %.2f/%.2f, "
      "ec precision %.2f\n",
      cmp.primitive_precision, cmp.primitive_recall, cmp.isa_precision,
      cmp.isa_recall, cmp.ec_precision);

  Status st = kg::SaveConceptNet(*net, out_path);
  std::printf("\nsaved constructed net to %s: %s\n", out_path,
              st.ToString().c_str());
  return st.ok() ? 0 : 1;
}
