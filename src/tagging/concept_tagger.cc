#include "tagging/concept_tagger.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "nn/trainer.h"
#include "text/tokenizer.h"

namespace alicoco::tagging {

ConceptTagger::ConceptTagger(const ConceptTaggerConfig& config,
                             const TaggerResources& resources)
    : config_(config), res_(resources), init_rng_(config.seed) {
  ALICOCO_CHECK(res_.pos_tagger != nullptr) << "POS tagger required";
  if (config_.use_knowledge) {
    ALICOCO_CHECK(res_.context_matrix != nullptr &&
                  res_.corpus_vocab != nullptr)
        << "use_knowledge requires the context matrix and corpus vocab";
  }
}

int ConceptTagger::LabelId(const std::string& label) const {
  auto it = label_ids_.find(label);
  return it == label_ids_.end() ? 0 : it->second;
}

void ConceptTagger::Train(const std::vector<TaggedExample>& data) {
  ALICOCO_CHECK(!trained_);
  ALICOCO_CHECK(!data.empty());

  label_names_ = {"O"};
  label_ids_["O"] = 0;
  for (const auto& ex : data) {
    ALICOCO_CHECK(ex.tokens.size() == ex.allowed_iob.size());
    for (const auto& tok : ex.tokens) {
      word_vocab_.Add(tok);
      for (const auto& ch : text::Chars(tok)) char_vocab_.Add(ch);
    }
    for (const auto& allowed : ex.allowed_iob) {
      ALICOCO_CHECK(!allowed.empty());
      for (const auto& label : allowed) {
        if (!label_ids_.count(label)) {
          label_ids_[label] = static_cast<int>(label_names_.size());
          label_names_.push_back(label);
        }
      }
    }
  }

  int num_labels = static_cast<int>(label_names_.size());
  constexpr int kCharDim = 8;
  constexpr int kCharFilters = 10;
  constexpr int kCharWindow = 3;
  constexpr int kWordDim = 20;
  constexpr int kPosDim = 6;
  constexpr int kHiddenDim = 18;
  char_emb_ = std::make_unique<nn::Embedding>(
      &store_, "char_emb", char_vocab_.size(), kCharDim, &init_rng_);
  char_cnn_ = std::make_unique<nn::Conv1D>(&store_, "char_cnn", kCharDim,
                                           kCharFilters, kCharWindow,
                                           &init_rng_);
  word_emb_ = std::make_unique<nn::Embedding>(
      &store_, "word_emb", word_vocab_.size(), kWordDim, &init_rng_);
  pos_emb_ = std::make_unique<nn::Embedding>(&store_, "pos_emb",
                                             text::kNumPosTags, kPosDim,
                                             &init_rng_);
  int input_dim = kWordDim + kCharFilters + kPosDim;
  bilstm_ = std::make_unique<nn::BiLstm>(&store_, "bilstm", input_dim,
                                         kHiddenDim, &init_rng_);
  int state_dim = 2 * kHiddenDim;
  if (config_.use_knowledge) {
    // Project [h; tm] back to the state width before self-attention (Eq. 7).
    tm_proj_ = std::make_unique<nn::Linear>(
        &store_, "tm_proj",
        state_dim + res_.context_matrix->dim(), state_dim, &init_rng_);
  }
  attn_ = std::make_unique<nn::SelfAttention>(&store_, "attn", state_dim,
                                              &init_rng_);
  proj_ = std::make_unique<nn::Linear>(&store_, "proj", state_dim, num_labels,
                                       &init_rng_);
  crf_ = std::make_unique<nn::LinearChainCrf>(&store_, "crf", num_labels,
                                              &init_rng_);

  constexpr float kLr = 0.01f;
  constexpr int kBatchSize = 8;
  nn::Train(
      &store_, data.size(),
      {.model = "tagger",
       .epochs = config_.epochs,
       .lr = kLr,
       .batch_size = kBatchSize,
       .seed = config_.seed ^ 0xFACADE,
       .example_rng = nn::ExampleRng::kShuffleStream},
      [&](nn::Graph* g, size_t idx,
          Rng* rng) -> std::optional<nn::Graph::Var> {
        const auto& ex = data[idx];
        if (ex.tokens.empty()) return std::nullopt;
        nn::Graph::Var emissions = Emissions(g, ex.tokens, true, rng);
        if (config_.use_fuzzy_crf) {
          std::vector<std::vector<int>> allowed(ex.tokens.size());
          for (size_t t = 0; t < ex.tokens.size(); ++t) {
            for (const auto& label : ex.allowed_iob[t]) {
              allowed[t].push_back(LabelId(label));
            }
          }
          return crf_->FuzzyNegLogLikelihood(g, emissions, allowed);
        }
        std::vector<int> gold;
        gold.reserve(ex.tokens.size());
        for (const auto& allowed : ex.allowed_iob) {
          gold.push_back(LabelId(allowed.front()));
        }
        return crf_->NegLogLikelihood(g, emissions, gold);
      });
  trained_ = true;
}

nn::Graph::Var ConceptTagger::Emissions(
    nn::Graph* g, const std::vector<std::string>& tokens, bool train,
    Rng* rng) const {
  // Per-word features: char-CNN max-pool, word embedding, POS embedding.
  std::vector<nn::Graph::Var> rows;
  rows.reserve(tokens.size());
  auto pos_tags = res_.pos_tagger->TagSequence(tokens);
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::vector<int> char_ids;
    for (const auto& ch : text::Chars(tokens[i])) {
      char_ids.push_back(char_vocab_.Id(ch));
    }
    if (char_ids.empty()) char_ids.push_back(text::Vocabulary::kUnkId);
    nn::Graph::Var char_feat =
        g->MaxRows(char_cnn_->Apply(g, char_emb_->Lookup(g, char_ids)));
    nn::Graph::Var word_feat =
        word_emb_->Lookup(g, {word_vocab_.Id(tokens[i])});
    nn::Graph::Var pos_feat =
        pos_emb_->Lookup(g, {static_cast<int>(pos_tags[i])});
    rows.push_back(g->ConcatCols({word_feat, char_feat, pos_feat}));
  }
  nn::Graph::Var x = g->ConcatRows(rows);
  x = g->Dropout(x, 0.1f, train, rng);
  nn::Graph::Var h = bilstm_->Run(g, x);

  if (config_.use_knowledge) {
    // Text augmentation: lookup each word's aggregated corpus contexts (TM)
    // and fold them into the states (Eq. 7).
    nn::Tensor tm(static_cast<int>(tokens.size()),
                  res_.context_matrix->dim());
    for (size_t i = 0; i < tokens.size(); ++i) {
      const auto& row =
          res_.context_matrix->Row(res_.corpus_vocab->Id(tokens[i]));
      for (int k = 0; k < res_.context_matrix->dim(); ++k) {
        tm.At(static_cast<int>(i), k) = row[static_cast<size_t>(k)];
      }
    }
    h = g->Tanh(tm_proj_->Apply(
        g, g->ConcatCols({h, g->Input(std::move(tm))})));
  }
  h = attn_->Apply(g, h);
  return proj_->Apply(g, h);
}

std::vector<std::string> ConceptTagger::Predict(
    const std::vector<std::string>& tokens) const {
  ALICOCO_CHECK(trained_);
  if (tokens.empty()) return {};
  nn::Graph g(nn::Graph::kForwardOnly);
  nn::Graph::Var emissions = Emissions(&g, tokens, false, nullptr);
  std::vector<int> path = crf_->Viterbi(g.Value(emissions));
  std::vector<std::string> out;
  out.reserve(path.size());
  for (int id : path) out.push_back(label_names_[static_cast<size_t>(id)]);
  return out;
}

eval::BinaryMetrics ConceptTagger::Evaluate(
    const std::vector<TaggedExample>& test) const {
  std::vector<std::vector<std::string>> gold, pred;
  for (const auto& ex : test) {
    std::vector<std::string> primary;
    primary.reserve(ex.allowed_iob.size());
    for (const auto& allowed : ex.allowed_iob) {
      primary.push_back(allowed.front());
    }
    gold.push_back(std::move(primary));
    pred.push_back(Predict(ex.tokens));
  }
  return eval::SpanF1(gold, pred);
}


std::vector<TaggedExample> BuildDistantExamples(
    const text::MaxMatchSegmenter& dictionary,
    const std::vector<std::vector<std::string>>& phrases,
    const std::vector<std::string>& carrier_words) {
  std::unordered_set<std::string> carrier(carrier_words.begin(),
                                          carrier_words.end());
  std::vector<TaggedExample> out;
  for (const auto& tokens : phrases) {
    if (tokens.empty()) continue;
    text::Segmentation seg = dictionary.Match(tokens);
    // Every non-carrier token must be covered; otherwise the phrase is not
    // perfectly matched and cannot supervise.
    bool perfect = true;
    for (size_t i = 0; i < tokens.size() && perfect; ++i) {
      if (seg.iob[i] == "O" && !carrier.count(tokens[i])) perfect = false;
    }
    if (!perfect) continue;

    TaggedExample ex;
    ex.tokens = tokens;
    ex.allowed_iob.resize(tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      ex.allowed_iob[i].push_back(seg.iob[i]);
    }
    // Ambiguous matches: widen the allowed sets with every dictionary label
    // of each matched span (the fuzzy sets of Figure 7).
    for (const auto& occ : dictionary.AllOccurrences(tokens)) {
      for (const auto& chosen : seg.matches) {
        if (occ.begin != chosen.begin || occ.end != chosen.end) continue;
        for (size_t i = occ.begin; i < occ.end; ++i) {
          std::string label =
              (i == occ.begin ? "B-" : "I-") + occ.label;
          auto& allowed = ex.allowed_iob[i];
          if (std::find(allowed.begin(), allowed.end(), label) ==
              allowed.end()) {
            allowed.push_back(label);
          }
        }
      }
    }
    out.push_back(std::move(ex));
  }
  return out;
}

}  // namespace alicoco::tagging
