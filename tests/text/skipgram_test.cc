#include "text/skipgram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace alicoco::text {
namespace {

// Builds a corpus with two tight clusters: {red, blue, green} co-occur with
// "color"; {hat, coat, dress} co-occur with "wear".
struct ClusterWorld {
  Vocabulary vocab;
  std::vector<std::vector<int>> corpus;

  ClusterWorld() {
    Rng rng(3);
    std::vector<std::string> colors = {"red", "blue", "green"};
    std::vector<std::string> clothes = {"hat", "coat", "dress"};
    for (int i = 0; i < 1200; ++i) {
      bool color = rng.Bernoulli(0.5);
      const auto& group = color ? colors : clothes;
      std::vector<std::string> sent = {color ? "color" : "wear",
                                       group[rng.Uniform(3)],
                                       group[rng.Uniform(3)]};
      std::vector<int> ids;
      for (const auto& w : sent) ids.push_back(vocab.Add(w));
      corpus.push_back(ids);
    }
  }
};

TEST(SkipgramTest, LearnsClusterStructure) {
  ClusterWorld world;
  SkipgramConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 6;
  cfg.subsample = 0;  // tiny vocab: keep everything
  SkipgramModel model(world.vocab.size(), cfg);
  model.Train(world.corpus, world.vocab);
  int red = world.vocab.Id("red"), blue = world.vocab.Id("blue");
  int hat = world.vocab.Id("hat");
  // In-cluster similarity exceeds cross-cluster similarity.
  EXPECT_GT(model.Cosine(red, blue), model.Cosine(red, hat));
}

TEST(SkipgramTest, DeterministicForSeed) {
  ClusterWorld world;
  SkipgramConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 2;
  SkipgramModel a(world.vocab.size(), cfg);
  SkipgramModel b(world.vocab.size(), cfg);
  a.Train(world.corpus, world.vocab);
  b.Train(world.corpus, world.vocab);
  auto ta = a.EmbeddingTable();
  auto tb = b.EmbeddingTable();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) EXPECT_FLOAT_EQ(ta[i], tb[i]);
}

TEST(SkipgramTest, EmbeddingTableShape) {
  SkipgramConfig cfg;
  cfg.dim = 12;
  SkipgramModel model(30, cfg);
  EXPECT_EQ(model.dim(), 12);
  EXPECT_EQ(model.vocab_size(), 30);
  EXPECT_EQ(model.EmbeddingTable().size(), 30u * 12u);
}

TEST(SkipgramTest, NearestExcludesSelfAndRanks) {
  ClusterWorld world;
  SkipgramConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 6;
  cfg.subsample = 0;
  SkipgramModel model(world.vocab.size(), cfg);
  model.Train(world.corpus, world.vocab);
  int red = world.vocab.Id("red");
  auto nn = model.Nearest(red, 3);
  ASSERT_EQ(nn.size(), 3u);
  for (int id : nn) EXPECT_NE(id, red);
  // Top-3 neighbours of "red" should come from the color cluster
  // {blue, green, color} more often than not; require at least 2.
  int in_cluster = 0;
  for (int id : nn) {
    std::string w = world.vocab.Token(id);
    if (w == "blue" || w == "green" || w == "color") ++in_cluster;
  }
  EXPECT_GE(in_cluster, 2);
}

uint64_t TableDigest(const SkipgramModel& model) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the table's bytes
  const std::vector<float> table = model.EmbeddingTable();
  const auto* bytes = reinterpret_cast<const unsigned char*>(table.data());
  for (size_t i = 0; i < table.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

// The trained tables, pinned bit for bit. The cluster world's 8 words make
// the negatives repeat or hit the context in most pairs; the wide corpus's
// 300 words give most pairs six distinct rows.
TEST(SkipgramTest, TrainedTablesKeepTheirDigests) {
  ClusterWorld cluster;
  SkipgramConfig cfg;
  cfg.dim = 20;
  cfg.epochs = 2;
  SkipgramModel narrow(cluster.vocab.size(), cfg);
  narrow.Train(cluster.corpus, cluster.vocab);
  EXPECT_EQ(TableDigest(narrow), 0xb90a4b6d17822051ull)
      << std::hex << TableDigest(narrow);

  Vocabulary vocab;
  std::vector<std::vector<int>> corpus;
  Rng rng(11);
  for (int s = 0; s < 600; ++s) {
    std::vector<int> ids;
    for (int w = 0; w < 8; ++w) {
      // Squaring skews the draw toward low word numbers, as word counts are.
      const double u = rng.NextDouble();
      ids.push_back(vocab.Add("w" + std::to_string(static_cast<int>(
                                       300 * u * u))));
    }
    corpus.push_back(ids);
  }
  SkipgramModel wide(vocab.size(), cfg);
  wide.Train(corpus, vocab);
  EXPECT_EQ(TableDigest(wide), 0x7775979965a86e45ull)
      << std::hex << TableDigest(wide);
}

TEST(SkipgramTest, CosineBounds) {
  SkipgramConfig cfg;
  cfg.dim = 8;
  SkipgramModel model(10, cfg);
  float c = model.Cosine(2, 3);
  EXPECT_LE(std::fabs(c), 1.0001f);
}

}  // namespace
}  // namespace alicoco::text
