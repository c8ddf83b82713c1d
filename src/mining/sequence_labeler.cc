#include "mining/sequence_labeler.h"

#include "common/logging.h"
#include "nn/trainer.h"

namespace alicoco::mining {

SequenceLabeler::SequenceLabeler(const SequenceLabelerConfig& config)
    : config_(config), init_rng_(config.seed) {}

int SequenceLabeler::LabelId(const std::string& label) const {
  auto it = label_ids_.find(label);
  return it == label_ids_.end() ? 0 : it->second;  // unknown -> O
}

void SequenceLabeler::Train(const std::vector<LabeledSentence>& data) {
  ALICOCO_CHECK(!trained_) << "Train may be called once";
  ALICOCO_CHECK(!data.empty());

  // Build vocabulary and label inventory.
  label_names_ = {"O"};
  label_ids_["O"] = 0;
  for (const auto& s : data) {
    ALICOCO_CHECK_EQ(s.tokens.size(), s.iob.size())
        << "every token needs exactly one IOB tag";
    for (const auto& t : s.tokens) vocab_.Add(t);
    for (const auto& l : s.iob) {
      if (!label_ids_.count(l)) {
        label_ids_[l] = static_cast<int>(label_names_.size());
        label_names_.push_back(l);
      }
    }
  }

  const int num_labels = static_cast<int>(label_names_.size());
  embedding_ = std::make_unique<nn::Embedding>(
      &store_, "emb", vocab_.size(), config_.word_dim, &init_rng_);
  bilstm_ = std::make_unique<nn::BiLstm>(&store_, "bilstm", config_.word_dim,
                                         config_.hidden_dim, &init_rng_);
  proj_ = std::make_unique<nn::Linear>(&store_, "proj",
                                       2 * config_.hidden_dim, num_labels,
                                       &init_rng_);
  crf_ = std::make_unique<nn::LinearChainCrf>(&store_, "crf", num_labels,
                                              &init_rng_);

  constexpr float kLr = 0.01f;
  constexpr int kBatchSize = 8;
  // Probability of replacing a training token with <unk>: teaches the
  // model to extend spans over out-of-vocabulary modifiers — essential for
  // discovering genuinely new concepts.
  constexpr float kWordUnkProb = 0.15f;
  nn::Train(
      &store_, data.size(),
      {.model = "labeler",
       .epochs = config_.epochs,
       .lr = kLr,
       .batch_size = kBatchSize,
       .seed = config_.seed ^ 0xFEED,
       .example_rng = nn::ExampleRng::kPerExample,
       .pool = config_.pool},
      [&](nn::Graph* g, size_t idx,
          Rng* rng) -> std::optional<nn::Graph::Var> {
        const LabeledSentence& s = data[idx];
        if (s.tokens.empty()) return std::nullopt;
        std::vector<int> ids = vocab_.Encode(s.tokens);
        for (int& id : ids) {
          if (rng->Bernoulli(kWordUnkProb)) {
            id = text::Vocabulary::kUnkId;
          }
        }
        std::vector<int> gold;
        gold.reserve(s.iob.size());
        for (const auto& l : s.iob) gold.push_back(LabelId(l));
        nn::Graph::Var emissions = Emissions(g, ids, /*train=*/true, rng);
        return crf_->NegLogLikelihood(g, emissions, gold);
      });
  trained_ = true;
}

nn::Graph::Var SequenceLabeler::Emissions(nn::Graph* g,
                                          const std::vector<int>& ids,
                                          bool train, Rng* rng) const {
  constexpr float kDropout = 0.1f;
  nn::Graph::Var x = embedding_->Lookup(g, ids);
  x = g->Dropout(x, kDropout, train, rng);
  nn::Graph::Var h = bilstm_->Run(g, x);
  return proj_->Apply(g, h);
}

std::vector<std::string> SequenceLabeler::Predict(
    const std::vector<std::string>& tokens) const {
  ALICOCO_CHECK(trained_) << "Predict before Train";
  if (tokens.empty()) return {};
  std::vector<int> ids = vocab_.Encode(tokens);
  nn::Graph g(nn::Graph::kForwardOnly);
  nn::Graph::Var emissions =
      Emissions(&g, ids, /*train=*/false, nullptr);
  std::vector<int> path = crf_->Viterbi(g.Value(emissions));
  ALICOCO_DCHECK_EQ(path.size(), tokens.size());
  std::vector<std::string> out;
  out.reserve(path.size());
  for (int id : path) {
    ALICOCO_CHECK_GE(id, 0);
    ALICOCO_CHECK_LT(static_cast<size_t>(id), label_names_.size());
    out.push_back(label_names_[static_cast<size_t>(id)]);
  }
  return out;
}

eval::BinaryMetrics SequenceLabeler::Evaluate(
    const std::vector<LabeledSentence>& gold) const {
  std::vector<std::vector<std::string>> gold_tags, pred_tags;
  gold_tags.reserve(gold.size());
  pred_tags.reserve(gold.size());
  for (const auto& s : gold) {
    gold_tags.push_back(s.iob);
    pred_tags.push_back(Predict(s.tokens));
  }
  return eval::SpanF1(gold_tags, pred_tags);
}

}  // namespace alicoco::mining
