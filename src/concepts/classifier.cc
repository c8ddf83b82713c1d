#include "concepts/classifier.h"

#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "concepts/criteria.h"
#include "nn/trainer.h"
#include "text/tokenizer.h"

namespace alicoco::concepts {

ConceptClassifier::ConceptClassifier(const ConceptClassifierConfig& config,
                                     const ClassifierResources& resources)
    : config_(config), res_(resources), init_rng_(config.seed) {
  if (config_.use_pretrained) {
    ALICOCO_CHECK(res_.embeddings != nullptr && res_.corpus_vocab != nullptr &&
                  res_.lm != nullptr)
        << "use_pretrained requires embeddings, corpus vocab and LM";
  }
  ALICOCO_CHECK(res_.corpus_vocab != nullptr)
      << "corpus vocab required for wide features";
  if (config_.use_knowledge) {
    ALICOCO_CHECK(res_.gloss_encoder != nullptr && res_.gloss_lookup)
        << "use_knowledge requires a gloss encoder and lookup";
  }
}

void ConceptClassifier::Train(const std::vector<LabeledConcept>& data) {
  ALICOCO_CHECK(!trained_);
  ALICOCO_CHECK(!data.empty());

  // Vocabularies over the training candidates.
  for (const auto& sample : data) {
    ALICOCO_CHECK(sample.label == 0 || sample.label == 1)
        << "binary classifier got label " << sample.label;
    for (const auto& tok : sample.tokens) {
      word_vocab_.Add(tok);
      for (const auto& ch : text::Chars(tok)) char_vocab_.Add(ch);
    }
  }

  // Model construction.
  constexpr int kCharDim = 10;
  constexpr int kCharHidden = 10;
  constexpr int kWordDim = 20;
  constexpr int kWordHidden = 16;
  char_emb_ = std::make_unique<nn::Embedding>(
      &store_, "char_emb", char_vocab_.size(), kCharDim, &init_rng_);
  char_bilstm_ = std::make_unique<nn::BiLstm>(&store_, "char_bilstm", kCharDim,
                                              kCharHidden, &init_rng_);
  word_emb_ = std::make_unique<nn::Embedding>(
      &store_, "word_emb", word_vocab_.size(), kWordDim, &init_rng_);
  if (config_.use_pretrained) {
    // Initialize word vectors from the corpus-pretrained table.
    ALICOCO_CHECK(res_.embeddings->dim() == kWordDim)
        << "pretrained dim mismatch";
    nn::Parameter* table = word_emb_->parameter();
    for (int wid = 2; wid < word_vocab_.size(); ++wid) {
      int cid = res_.corpus_vocab->Id(word_vocab_.Token(wid));
      if (cid <= text::Vocabulary::kUnkId ||
          cid >= res_.embeddings->vocab_size()) {
        continue;
      }
      const float* e = res_.embeddings->Embedding(cid);
      for (int k = 0; k < kWordDim; ++k) table->value.At(wid, k) = e[k];
    }
  }
  word_bilstm_ = std::make_unique<nn::BiLstm>(&store_, "word_bilstm", kWordDim,
                                              kWordHidden, &init_rng_);
  int wdim = 2 * kWordHidden;
  word_attn_ = std::make_unique<nn::SelfAttention>(&store_, "word_attn", wdim,
                                                   &init_rng_);
  if (config_.use_knowledge) {
    know_proj_ = std::make_unique<nn::Linear>(
        &store_, "know_proj", res_.gloss_encoder->dim(), wdim, &init_rng_);
    know_attn_ = std::make_unique<nn::SelfAttention>(&store_, "know_attn",
                                                     wdim, &init_rng_);
    // Direct path from the overlap evidence to the logit: commonsense
    // compatibility must not drown in the deep channels.
    know_skip_ = std::make_unique<nn::Linear>(
        &store_, "know_skip", kKnowledgeFeatureDim, 1, &init_rng_);
  }
  if (config_.use_wide) {
    wide_mlp_ = std::make_unique<nn::Mlp>(
        &store_, "wide", std::vector<int>{WideFeatures::kDim, 12, 8},
        &init_rng_);
  }
  int concat_dim = 2 * kCharHidden + wdim +
                   (config_.use_knowledge ? wdim + kKnowledgeFeatureDim : 0) +
                   (config_.use_wide ? 8 : 0);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{concat_dim, 16, 1}, &init_rng_);

  constexpr float kLr = 0.01f;
  constexpr int kBatchSize = 16;
  nn::Train(
      &store_, data.size(),
      {.model = "classifier",
       .epochs = config_.epochs,
       .lr = kLr,
       .batch_size = kBatchSize,
       .seed = config_.seed ^ 0xD1CE,
       .example_rng = nn::ExampleRng::kPerExample,
       .pool = config_.pool},
      [&](nn::Graph* g, size_t idx,
          Rng* rng) -> std::optional<nn::Graph::Var> {
        const auto& sample = data[idx];
        if (sample.tokens.empty()) return std::nullopt;
        nn::Graph::Var logit = Logit(g, sample.tokens, /*train=*/true, rng);
        nn::Tensor target(1, 1);
        target.At(0, 0) = static_cast<float>(sample.label);
        return g->SigmoidCrossEntropyWithLogits(logit, target);
      });
  trained_ = true;
}

nn::Graph::Var ConceptClassifier::Logit(nn::Graph* g,
                                        const std::vector<std::string>& tokens,
                                        bool train, Rng* rng) const {
  // Char side: chars of the whole concept, BiLSTM, mean pool -> c1.
  std::vector<int> char_ids;
  for (const auto& tok : tokens) {
    for (const auto& ch : text::Chars(tok)) {
      char_ids.push_back(char_vocab_.Id(ch));
    }
  }
  if (char_ids.empty()) char_ids.push_back(text::Vocabulary::kUnkId);
  nn::Graph::Var c1 =
      g->MeanRows(char_bilstm_->Run(g, char_emb_->Lookup(g, char_ids)));

  // Word side: embeddings -> BiLSTM -> self-attention.
  std::vector<int> word_ids = word_vocab_.Encode(tokens);
  if (train && rng != nullptr) {
    // Probability of replacing a training word with <unk>: discourages
    // memorizing specific word combinations so the model must rely on the
    // generalizable channels (wide + knowledge features).
    constexpr float kWordUnkProb = 0.2f;
    for (int& id : word_ids) {
      if (rng->Bernoulli(kWordUnkProb)) {
        id = text::Vocabulary::kUnkId;
      }
    }
  }
  nn::Graph::Var wx = word_emb_->Lookup(g, word_ids);
  wx = g->Dropout(wx, 0.1f, train, rng);
  nn::Graph::Var w_states = word_attn_->Apply(g, word_bilstm_->Run(g, wx));

  // Computed once: the overlap input of c2 and the skip input share it.
  const std::vector<float> overlap_feats =
      config_.use_knowledge ? KnowledgeOverlapFeatures(tokens)
                            : std::vector<float>();
  nn::Graph::Var c2;
  if (config_.use_knowledge) {
    // Knowledge side: per-word gloss vectors, projected and self-attended;
    // concatenated with the word states, then max-pooled (Figure 5).
    nn::Tensor gloss_mat(static_cast<int>(tokens.size()),
                         res_.gloss_encoder->dim());
    for (size_t i = 0; i < tokens.size(); ++i) {
      std::vector<std::string> gloss = res_.gloss_lookup(tokens[i]);
      if (gloss.empty()) continue;
      std::vector<float> vec = res_.gloss_encoder->Encode(gloss);
      ALICOCO_DCHECK_EQ(vec.size(),
                        static_cast<size_t>(res_.gloss_encoder->dim()));
      for (int k = 0; k < res_.gloss_encoder->dim(); ++k) {
        gloss_mat.At(static_cast<int>(i), k) = vec[static_cast<size_t>(k)];
      }
    }
    nn::Graph::Var k_states = know_attn_->Apply(
        g, g->Tanh(know_proj_->Apply(g, g->Input(std::move(gloss_mat)))));
    nn::Graph::Var overlap = g->Input(
        nn::Tensor::FromVector(1, kKnowledgeFeatureDim, overlap_feats));
    c2 = g->ConcatCols(
        {g->MaxRows(w_states), g->MaxRows(k_states), overlap});
  } else {
    c2 = g->MaxRows(w_states);
  }

  std::vector<nn::Graph::Var> parts = {c1, c2};
  if (config_.use_wide) {
    WideFeatures feats = ComputeWideFeatures(
        tokens, config_.use_pretrained ? res_.lm : nullptr,
        *res_.corpus_vocab);
    parts.push_back(wide_mlp_->Apply(
        g, g->Input(nn::Tensor::FromVector(1, WideFeatures::kDim,
                                           feats.ToVector()))));
  }
  nn::Graph::Var logit = head_->Apply(g, g->ConcatCols(parts));
  if (config_.use_knowledge) {
    logit = g->Add(logit, know_skip_->Apply(
                              g, g->Input(nn::Tensor::FromVector(
                                     1, kKnowledgeFeatureDim, overlap_feats))));
  }
  return logit;
}

std::vector<float> ConceptClassifier::KnowledgeOverlapFeatures(
    const std::vector<std::string>& tokens) const {
  size_t with_gloss = 0;
  size_t pairs = 0, overlapping = 0;
  float max_overlap = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::vector<std::string> gloss = res_.gloss_lookup(tokens[i]);
    if (gloss.empty()) continue;
    ++with_gloss;
    std::unordered_set<std::string> gloss_set(gloss.begin(), gloss.end());
    for (size_t j = 0; j < tokens.size(); ++j) {
      if (i == j) continue;
      ++pairs;
      if (gloss_set.count(tokens[j])) {
        ++overlapping;
        max_overlap = 1.0f;
      }
    }
  }
  float mean_overlap =
      pairs > 0 ? static_cast<float>(overlapping) / pairs : 0.0f;
  float gloss_rate = tokens.empty()
                         ? 0.0f
                         : static_cast<float>(with_gloss) / tokens.size();
  return {max_overlap, mean_overlap, gloss_rate};
}

double ConceptClassifier::Score(const std::vector<std::string>& tokens) const {
  ALICOCO_CHECK(trained_);
  if (tokens.empty()) return 0.0;
  nn::Graph g(nn::Graph::kForwardOnly);
  float x = g.Value(Logit(&g, tokens, /*train=*/false, nullptr)).At(0, 0);
  return 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
}

ConceptClassifier::TestMetrics ConceptClassifier::Evaluate(
    const std::vector<LabeledConcept>& test) const {
  std::vector<double> scores;
  std::vector<int> labels;
  scores.reserve(test.size());
  for (const auto& sample : test) {
    scores.push_back(Score(sample.tokens));
    labels.push_back(sample.label);
  }
  TestMetrics m;
  m.binary = eval::ComputeBinaryMetrics(scores, labels, 0.5);
  m.auc = eval::Auc(scores, labels);
  return m;
}

}  // namespace alicoco::concepts
