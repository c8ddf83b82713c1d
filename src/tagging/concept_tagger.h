// Text-augmented concept tagger with fuzzy CRF (Section 5.3, Figure 6).
//
// Encoder: char-level CNN features + word embeddings + POS-tag embeddings
// -> BiLSTM; when knowledge is enabled, each word's corpus-context vector
// (the TM matrix, our Doc2vec substitute) is concatenated before a
// self-attention layer. Decoder: a linear-chain CRF — fuzzy when enabled,
// training on the full set of defensible labels per token (Eq. 8, the
// "village: Location or Style" case).
//
// Config flags reproduce the Table 5 ablation: baseline (BiLSTM-CRF),
// +fuzzy CRF, +fuzzy CRF & knowledge.

#ifndef ALICOCO_TAGGING_CONCEPT_TAGGER_H_
#define ALICOCO_TAGGING_CONCEPT_TAGGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/metrics.h"
#include "nn/crf.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/gloss_encoder.h"
#include "text/pos_tagger.h"
#include "text/segmenter.h"
#include "text/vocabulary.h"

namespace alicoco::tagging {

/// One training concept: tokens plus per-token allowed IOB label sets (the
/// first allowed label is the primary/gold one).
struct TaggedExample {
  std::vector<std::string> tokens;
  std::vector<std::vector<std::string>> allowed_iob;
};

/// Distant-supervision augmentation (Section 7.5: "we use the similar idea
/// of distant supervision to automatically generate 24,000 pairs"): labels
/// candidate phrases by max-matching a concept dictionary, keeping only
/// phrases whose tokens are fully and unambiguously covered. Ambiguous
/// surfaces contribute the full label set per token (fuzzy supervision).
std::vector<TaggedExample> BuildDistantExamples(
    const text::MaxMatchSegmenter& dictionary,
    const std::vector<std::vector<std::string>>& phrases,
    const std::vector<std::string>& carrier_words = {});

struct ConceptTaggerConfig {
  bool use_fuzzy_crf = true;
  bool use_knowledge = true;  ///< TM context-matrix augmentation
  int epochs = 5;
  uint64_t seed = 43;
};

/// External resources (must outlive the tagger).
struct TaggerResources {
  const text::PosTagger* pos_tagger = nullptr;             ///< required
  const text::ContextMatrix* context_matrix = nullptr;     ///< if knowledge
  const text::Vocabulary* corpus_vocab = nullptr;          ///< if knowledge
};

/// Trainable tagger mapping short concepts to primitive-class IOB labels.
class ConceptTagger {
 public:
  ConceptTagger(const ConceptTaggerConfig& config,
                const TaggerResources& resources);

  void Train(const std::vector<TaggedExample>& data);

  /// Viterbi-decoded IOB labels.
  std::vector<std::string> Predict(
      const std::vector<std::string>& tokens) const;

  /// Span F1 against the primary (first allowed) labels.
  eval::BinaryMetrics Evaluate(const std::vector<TaggedExample>& test) const;

  const std::vector<std::string>& labels() const { return label_names_; }

 private:
  int LabelId(const std::string& label) const;
  nn::Graph::Var Emissions(nn::Graph* g,
                           const std::vector<std::string>& tokens, bool train,
                           Rng* rng) const;

  ConceptTaggerConfig config_;
  TaggerResources res_;
  Rng init_rng_;
  text::Vocabulary word_vocab_;
  text::Vocabulary char_vocab_;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, int> label_ids_;

  nn::ParameterStore store_;
  std::unique_ptr<nn::Embedding> char_emb_;
  std::unique_ptr<nn::Conv1D> char_cnn_;
  std::unique_ptr<nn::Embedding> word_emb_;
  std::unique_ptr<nn::Embedding> pos_emb_;
  std::unique_ptr<nn::BiLstm> bilstm_;
  std::unique_ptr<nn::Linear> tm_proj_;
  std::unique_ptr<nn::SelfAttention> attn_;
  std::unique_ptr<nn::Linear> proj_;
  std::unique_ptr<nn::LinearChainCrf> crf_;
  bool trained_ = false;
};

}  // namespace alicoco::tagging

#endif  // ALICOCO_TAGGING_CONCEPT_TAGGER_H_
