#include "matching/neural_base.h"

#include <chrono>
#include <cmath>

#include "common/check.h"
#include "nn/trainer.h"

namespace alicoco::matching {

NeuralMatcherBase::NeuralMatcherBase(const NeuralMatcherConfig& config,
                                     const text::SkipgramModel* embeddings,
                                     const text::Vocabulary* corpus_vocab)
    : config_(config),
      pretrained_(embeddings),
      corpus_vocab_(corpus_vocab),
      init_rng_(config.seed) {
  if (pretrained_ != nullptr) {
    ALICOCO_CHECK(corpus_vocab_ != nullptr);
    ALICOCO_CHECK(pretrained_->dim() == kEmbedDim)
        << "pretrained dim mismatch";
  }
}

std::unique_ptr<nn::Embedding> NeuralMatcherBase::MakeEmbedding(
    const std::string& name) {
  auto emb = std::make_unique<nn::Embedding>(
      &store_, name, vocab_.size(), kEmbedDim, &init_rng_);
  if (pretrained_ != nullptr) {
    nn::Parameter* table = emb->parameter();
    for (int wid = 2; wid < vocab_.size(); ++wid) {
      int cid = corpus_vocab_->Id(vocab_.Token(wid));
      if (cid <= text::Vocabulary::kUnkId ||
          cid >= pretrained_->vocab_size()) {
        continue;
      }
      const float* e = pretrained_->Embedding(cid);
      for (int k = 0; k < kEmbedDim; ++k) {
        table->value.At(wid, k) = e[k];
      }
    }
  }
  return emb;
}

std::vector<int> NeuralMatcherBase::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<int> ids = vocab_.Encode(tokens);
  if (ids.empty()) ids.push_back(text::Vocabulary::kUnkId);
  return ids;
}

void NeuralMatcherBase::Train(const MatchingDataset& dataset) {
  ALICOCO_CHECK(!trained_);
  ALICOCO_CHECK(!dataset.train.empty());
  for (const auto& ex : dataset.train) {
    for (const auto& t : ex.concept_tokens) vocab_.Add(t);
    for (const auto& t : ex.item_tokens) vocab_.Add(t);
  }
  BuildModel();

  constexpr float kLr = 0.01f;
  constexpr int kBatchSize = 16;
  nn::Train(
      &store_, dataset.train.size(),
      {.model = "matcher",
       .epochs = config_.epochs,
       .lr = kLr,
       .batch_size = kBatchSize,
       .seed = config_.seed ^ 0xBEAD,
       .example_rng = nn::ExampleRng::kShuffleStream},
      [&](nn::Graph* g, size_t idx,
          Rng* rng) -> std::optional<nn::Graph::Var> {
        const auto& ex = dataset.train[idx];
        nn::Graph::Var logit = Logit(g, Encode(ex.concept_tokens),
                                     Encode(ex.item_tokens), true, rng);
        nn::Tensor target(1, 1);
        target.At(0, 0) = static_cast<float>(ex.label);
        return g->SigmoidCrossEntropyWithLogits(logit, target);
      });
  trained_ = true;
}

double NeuralMatcherBase::Score(const std::vector<std::string>& concept_tokens,
                                const std::vector<std::string>& item_tokens,
                                int64_t item_id) const {
  (void)item_id;
  ALICOCO_CHECK(trained_) << name() << " scored before Train";
  std::chrono::steady_clock::time_point start;
  if (score_latency_us_ != nullptr) start = std::chrono::steady_clock::now();
  nn::Graph g(nn::Graph::kForwardOnly);
  nn::Graph::Var logit =
      Logit(&g, Encode(concept_tokens), Encode(item_tokens), false, nullptr);
  float x = g.Value(logit).At(0, 0);
  double score = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
  if (score_latency_us_ != nullptr) {
    score_latency_us_->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return score;
}

}  // namespace alicoco::matching
