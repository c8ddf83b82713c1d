// Checkpointing a trained sequence labeler: a reloaded model must predict
// exactly like the original.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "mining/sequence_labeler.h"

namespace alicoco::mining {
namespace {

std::vector<LabeledSentence> MakeData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> brands = {"velkor", "tramix"};
  std::vector<std::string> cats = {"boot", "dress", "grill"};
  std::vector<LabeledSentence> data;
  for (int i = 0; i < n; ++i) {
    LabeledSentence s;
    s.tokens = {"the", brands[rng.Uniform(2)], cats[rng.Uniform(3)]};
    s.iob = {"O", "B-Brand", "B-Category"};
    data.push_back(std::move(s));
  }
  return data;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(LabelerCheckpointTest, RoundTripPredictionsIdentical) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 4;
  SequenceLabeler original(cfg);
  original.Train(MakeData(150, 1));
  std::string path = TempPath("labeler.ckpt");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded = SequenceLabeler::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->labels(), original.labels());
  EXPECT_EQ(loaded->vocab_size(), original.vocab_size());

  for (const auto& s : MakeData(40, 2)) {
    EXPECT_EQ(original.Predict(s.tokens), loaded->Predict(s.tokens));
  }
  // OOV handling survives the round trip.
  EXPECT_EQ(original.Predict({"zzz", "qqq"}), loaded->Predict({"zzz", "qqq"}));
}

TEST(LabelerCheckpointTest, SaveBeforeTrainFails) {
  SequenceLabelerConfig cfg;
  SequenceLabeler untrained(cfg);
  EXPECT_TRUE(
      untrained.Save(TempPath("untrained.ckpt")).IsFailedPrecondition());
}

TEST(LabelerCheckpointTest, MissingOrCorruptFilesRejected) {
  EXPECT_TRUE(SequenceLabeler::Load("/no/such/file").status().IsIOError());
  std::string path = TempPath("garbage.ckpt");
  std::ofstream(path) << "not a checkpoint\n";
  EXPECT_TRUE(SequenceLabeler::Load(path).status().IsCorruption());
  // Dims far past any trained size must fail before the model is built.
  for (const char* dims : {"2000000000 16 2", "16 2000000000 2"}) {
    std::ofstream(path) << "ALICOCO_LABELER v1\n" << dims << "\n1\nO\n";
    EXPECT_TRUE(SequenceLabeler::Load(path).status().IsCorruption()) << dims;
  }
}

TEST(LabelerCheckpointTest, MissingWeightsFileRejected) {
  SequenceLabelerConfig cfg;
  cfg.epochs = 1;
  SequenceLabeler model(cfg);
  model.Train(MakeData(20, 3));
  std::string path = TempPath("noweights.ckpt");
  ASSERT_TRUE(model.Save(path).ok());
  ASSERT_EQ(std::remove((path + ".weights").c_str()), 0);
  EXPECT_TRUE(SequenceLabeler::Load(path).status().IsIOError());
}

}  // namespace
}  // namespace alicoco::mining
