#include "hypernym/projection_model.h"

#include <cmath>

#include "common/logging.h"
#include "nn/trainer.h"
#include "text/tokenizer.h"

namespace alicoco::hypernym {

ProjectionModel::ProjectionModel(const text::SkipgramModel* embeddings,
                                 const text::Vocabulary* vocab,
                                 const ProjectionConfig& config)
    : embeddings_(embeddings),
      vocab_(vocab),
      config_(config),
      init_rng_(config.seed) {
  ALICOCO_CHECK(embeddings != nullptr && vocab != nullptr);
  constexpr int kLayers = 4;  ///< K bilinear layers (Eq. 1)
  int d = embeddings_->dim();
  for (int k = 0; k < kLayers; ++k) {
    tensors_.push_back(store_.Create("T" + std::to_string(k), d, d,
                                     nn::ParameterStore::Init::kXavier,
                                     &init_rng_));
  }
  head_ = std::make_unique<nn::Linear>(&store_, "head", kLayers, 1, &init_rng_);
}

nn::Tensor ProjectionModel::PhraseEmbedding(const std::string& surface) const {
  int d = embeddings_->dim();
  nn::Tensor out(1, d);
  auto tokens = text::Tokenize(surface);
  int hits = 0;
  for (const auto& tok : tokens) {
    int id = vocab_->Id(tok);
    if (id <= text::Vocabulary::kUnkId || id >= embeddings_->vocab_size()) {
      continue;
    }
    const float* e = embeddings_->Embedding(id);
    for (int k = 0; k < d; ++k) out.At(0, k) += e[k];
    ++hits;
  }
  if (hits > 1) out.Scale(1.0f / static_cast<float>(hits));
  return out;
}

nn::Graph::Var ProjectionModel::Logit(nn::Graph* g, const nn::Tensor& p,
                                      const nn::Tensor& h) const {
  nn::Graph::Var pv = g->Input(p);
  nn::Graph::Var hv = g->Input(h);
  nn::Graph::Var ht = g->Transpose(hv);  // d x 1
  std::vector<nn::Graph::Var> scores;
  scores.reserve(tensors_.size());
  for (nn::Parameter* t : tensors_) {
    // s_k = p T_k h^T : (1xd)(dxd)(dx1) -> 1x1.
    scores.push_back(g->MatMul(g->MatMul(pv, g->Use(t)), ht));
  }
  return head_->Apply(g, g->ConcatCols(scores));
}

void ProjectionModel::Train(const std::vector<LabeledPair>& data) {
  ALICOCO_CHECK(!trained_);
  ALICOCO_CHECK(!data.empty());
  float positive_weight = 1.0f;
  if (config_.balance_classes) {
    constexpr float kMaxPositiveWeight = 30.0f;
    size_t pos = 0;
    for (const auto& pair : data) pos += pair.label;
    if (pos > 0 && pos < data.size()) {
      positive_weight = std::min(
          kMaxPositiveWeight,
          static_cast<float>(data.size() - pos) / static_cast<float>(pos));
    }
  }
  constexpr float kLr = 0.01f;
  constexpr int kBatchSize = 16;
  nn::Train(
      &store_, data.size(),
      {.model = "projection",
       .epochs = config_.epochs,
       .lr = kLr,
       .batch_size = kBatchSize,
       .seed = config_.seed ^ 0xC0FFEE,
       .example_rng = nn::ExampleRng::kPerExample},
      [&](nn::Graph* g, size_t idx, Rng*) -> std::optional<nn::Graph::Var> {
        const LabeledPair& pair = data[idx];
        nn::Graph::Var logit =
            Logit(g, PhraseEmbedding(pair.hypo), PhraseEmbedding(pair.hyper));
        nn::Tensor target(1, 1);
        target.At(0, 0) = static_cast<float>(pair.label);
        nn::Graph::Var loss = g->SigmoidCrossEntropyWithLogits(logit, target);
        if (pair.label == 1 && positive_weight != 1.0f) {
          loss = g->ScalarMul(loss, positive_weight);
        }
        return loss;
      });
  trained_ = true;
}

double ProjectionModel::Score(const std::string& hypo,
                              const std::string& hyper) const {
  nn::Graph g(nn::Graph::kForwardOnly);
  nn::Graph::Var logit =
      Logit(&g, PhraseEmbedding(hypo), PhraseEmbedding(hyper));
  float x = g.Value(logit).At(0, 0);
  return 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
}

RankingMetrics EvaluateRanking(const ProjectionModel& model,
                               const std::vector<RankingTestQuery>& queries) {
  std::vector<eval::RankedQuery> ranked;
  ranked.reserve(queries.size());
  for (const auto& q : queries) {
    eval::RankedQuery rq;
    rq.labels = q.labels;
    rq.scores.reserve(q.candidates.size());
    for (const auto& cand : q.candidates) {
      rq.scores.push_back(model.Score(q.hypo, cand));
    }
    ranked.push_back(std::move(rq));
  }
  RankingMetrics m;
  m.map = eval::MeanAveragePrecision(ranked);
  m.mrr = eval::MeanReciprocalRank(ranked);
  m.p_at_1 = eval::MeanPrecisionAtK(ranked, 1);
  return m;
}

}  // namespace alicoco::hypernym
