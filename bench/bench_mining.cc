// Reproduces the Section 7.2 mining numbers: distant-supervision yield, the
// tagger's quality, and the per-epoch discover/accept loop (paper: ~64K
// candidates and ~10K accepted per 5M-sentence epoch, continuously).

#include <cstdio>

#include <unordered_set>

#include "bench_util.h"
#include "common/table_printer.h"
#include "datagen/grammar.h"
#include "mining/concept_miner.h"

int main() {
  using namespace alicoco;
  std::printf(
      "== Section 7.2: primitive concept mining ==\n"
      "Paper: 6M distant-supervised sentences; ~64K candidates / ~10K "
      "accepted per epoch; the loop runs continuously.\n\n");

  datagen::World world = [] {
    bench::StageTimer t("generate world");
    return datagen::World::Generate(bench::BenchWorldConfig());
  }();

  mining::DistantSupervisor supervisor(world.seed_dictionary(),
                                       datagen::CarrierVocabulary());
  std::vector<std::vector<std::string>> corpus;
  for (const auto& s : world.sentences()) corpus.push_back(s.tokens);

  mining::DistantSupervisor::Stats ds;
  std::vector<mining::LabeledSentence> labeled;
  {
    bench::StageTimer t("distant supervision");
    labeled = supervisor.Label(corpus, &ds);
  }
  TablePrinter ds_table("Distant supervision over the corpus");
  ds_table.SetHeader({"metric", "value"});
  ds_table.AddRow({"sentences", std::to_string(ds.total)});
  ds_table.AddRow({"kept (perfectly matched)", std::to_string(ds.kept)});
  ds_table.AddRow({"dropped: ambiguous", std::to_string(ds.ambiguous)});
  ds_table.AddRow({"dropped: imperfect", std::to_string(ds.imperfect)});
  ds_table.AddRow({"dropped: no match", std::to_string(ds.unmatched)});
  ds_table.AddRow({"seed dictionary entries",
                   std::to_string(world.seed_dictionary().size())});
  ds_table.Print();

  mining::SequenceLabelerConfig cfg;
  cfg.epochs = 3;
  mining::SequenceLabeler labeler(cfg);
  {
    bench::StageTimer t("train BiLSTM-CRF");
    labeler.Train(labeled);
  }
  // Tagger quality on gold-labeled corpus sentences.
  {
    std::vector<mining::LabeledSentence> gold;
    for (size_t i = 0; i < world.sentences().size(); i += 7) {
      const auto& s = world.sentences()[i];
      gold.push_back(mining::LabeledSentence{s.tokens, s.gold_iob});
    }
    auto m = labeler.Evaluate(gold);
    TablePrinter q("Tagger quality on gold spans");
    q.SetHeader({"precision", "recall", "F1"});
    q.AddRow({TablePrinter::Num(m.precision, 4),
              TablePrinter::Num(m.recall, 4), TablePrinter::Num(m.f1, 4)});
    q.Print();
  }

  std::unordered_set<std::string> gold_keys;
  for (const auto& p : world.net().primitives()) {
    gold_keys.insert(p.surface + "\t" + world.DomainLabel(p.id));
  }
  mining::ConceptMiner miner(
      &supervisor, &labeler,
      [&](const std::string& surface, const std::string& domain) {
        return gold_keys.count(surface + "\t" + domain) > 0;
      });

  TablePrinter epochs("Mining loop (measured per epoch)");
  epochs.SetHeader({"epoch", "candidates", "accepted", "precision",
                    "holdout targets left"});
  std::unordered_set<std::string> holdout(world.holdout_surfaces().begin(),
                                          world.holdout_surfaces().end());
  for (int epoch = 1; epoch <= 3; ++epoch) {
    bench::StageTimer t("mining epoch");
    auto stats = miner.RunEpoch(corpus);
    for (const auto& c : miner.accepted()) holdout.erase(c.surface);
    epochs.AddRow({std::to_string(epoch), std::to_string(stats.candidates),
                   std::to_string(stats.accepted),
                   TablePrinter::Num(stats.precision, 3),
                   std::to_string(holdout.size())});
  }
  epochs.Print();
  std::printf(
      "\nShape check: epoch 1 discovers the bulk; later epochs replay epoch "
      "1's rejections (the labeler is trained once and every epoch reads the "
      "same corpus, so they re-propose what epoch 1 rejected and accept "
      "none; the paper's loop reads new text every epoch).\n"
      "Initial holdout targets: %zu\n",
      world.holdout_surfaces().size());
  return 0;
}
