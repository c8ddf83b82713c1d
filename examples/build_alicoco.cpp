// End-to-end construction demo: run the full semi-automatic pipeline on a
// synthetic world (corpora + seed knowledge + simulated annotators) and
// save the constructed AliCoCo to disk.
//
//   build/examples/build_alicoco [output_path] [--quant=int8|fp16]
//
// --quant routes the stage-7 item-association scoring (the hottest
// inference loop of the build) through quantized weights; see DESIGN.md §5
// for the accuracy-tolerance policy.

#include <cstdio>
#include <cstring>

#include "kg/persistence.h"
#include "kg/stats.h"
#include "pipeline/builder.h"

using namespace alicoco;

int main(int argc, char** argv) {
  const char* out_path = "/tmp/alicoco_net.txt";
  nn::quant::QuantMode quant = nn::quant::QuantMode::kNone;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quant=int8") == 0) {
      quant = nn::quant::QuantMode::kInt8;
    } else if (std::strcmp(argv[i], "--quant=fp16") == 0) {
      quant = nn::quant::QuantMode::kFp16;
    } else if (std::strncmp(argv[i], "--quant=", 8) == 0) {
      std::printf("unknown quant mode %s (want int8 or fp16)\n", argv[i] + 8);
      return 1;
    } else {
      out_path = argv[i];
    }
  }

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
  cfg.association_quant = quant;
  if (quant != nn::quant::QuantMode::kNone) {
    std::printf("association scoring will run %s-quantized\n",
                nn::quant::QuantModeName(quant));
  }
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
