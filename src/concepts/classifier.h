// Knowledge-enhanced Wide&Deep concept classifier (Section 5.2.2, Figure 5).
//
// Deep side: a char-level BiLSTM over the whole concept (mean-pooled) plus a
// word-level BiLSTM with self-attention; when knowledge is enabled, each
// word's encyclopedia gloss is encoded (Doc2vec substitute), self-attended,
// concatenated to the word states and max-pooled. Wide side: the
// pre-calculated features of criteria.h (incl. the LM-perplexity stand-in
// for the e-commerce BERT). The three representations feed an MLP scorer.
//
// Config flags reproduce the Table 4 ablation:
//   baseline            use_wide=0  use_pretrained=0  use_knowledge=0
//   +Wide               use_wide=1  use_pretrained=0  use_knowledge=0
//   +Wide&LM            use_wide=1  use_pretrained=1  use_knowledge=0
//   +Wide&LM&Knowledge  use_wide=1  use_pretrained=1  use_knowledge=1
// (use_pretrained swaps random input embeddings for corpus-pretrained ones
// and adds the LM fluency features — our substitute for "BERT output".)

#ifndef ALICOCO_CONCEPTS_CLASSIFIER_H_
#define ALICOCO_CONCEPTS_CLASSIFIER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/gloss_encoder.h"
#include "text/ngram_lm.h"
#include "text/skipgram.h"
#include "text/vocabulary.h"

namespace alicoco {
class ThreadPool;
}  // namespace alicoco

namespace alicoco::concepts {

/// A labeled candidate concept.
struct LabeledConcept {
  std::vector<std::string> tokens;
  int label = 0;  ///< 1 = good e-commerce concept
};

struct ConceptClassifierConfig {
  bool use_wide = true;
  bool use_pretrained = true;  ///< pretrained embeddings + LM wide features
  bool use_knowledge = true;   ///< gloss-enhanced module
  int epochs = 4;
  uint64_t seed = 31;
  /// Optional worker pool for data-parallel minibatches (not owned; null
  /// trains on the calling thread). Every pool size trains the same model;
  /// the null pool sums batch gradients in another order.
  ThreadPool* pool = nullptr;
};

/// External resources; all pointers must outlive the classifier.
struct ClassifierResources {
  const text::SkipgramModel* embeddings = nullptr;  ///< if use_pretrained
  const text::Vocabulary* corpus_vocab = nullptr;   ///< popularity + embeddings
  const text::NgramLm* lm = nullptr;                ///< if use_pretrained
  const text::GlossEncoder* gloss_encoder = nullptr;  ///< if use_knowledge
  /// word -> gloss tokens ({} when the word has no knowledge-base entry).
  std::function<std::vector<std::string>(const std::string&)> gloss_lookup;
};

/// Trainable binary scorer over candidate concepts.
class ConceptClassifier {
 public:
  ConceptClassifier(const ConceptClassifierConfig& config,
                    const ClassifierResources& resources);

  /// Trains once on labeled candidates.
  void Train(const std::vector<LabeledConcept>& data);

  /// P(candidate is a good concept).
  double Score(const std::vector<std::string>& tokens) const;

  struct TestMetrics {
    eval::BinaryMetrics binary;
    double auc = 0;
  };
  TestMetrics Evaluate(const std::vector<LabeledConcept>& test) const;

 private:
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<std::string>& tokens,
                       bool train, Rng* rng) const;

  /// Knowledge-side scalar features: does any token appear in another
  /// token's gloss (pairwise compatibility evidence), on average, and how
  /// many tokens have a knowledge-base entry at all.
  std::vector<float> KnowledgeOverlapFeatures(
      const std::vector<std::string>& tokens) const;
  static constexpr int kKnowledgeFeatureDim = 3;

  ConceptClassifierConfig config_;
  ClassifierResources res_;
  Rng init_rng_;
  text::Vocabulary word_vocab_;  // built over training data
  text::Vocabulary char_vocab_;

  nn::ParameterStore store_;
  std::unique_ptr<nn::Embedding> char_emb_;
  std::unique_ptr<nn::BiLstm> char_bilstm_;
  std::unique_ptr<nn::Embedding> word_emb_;
  std::unique_ptr<nn::BiLstm> word_bilstm_;
  std::unique_ptr<nn::SelfAttention> word_attn_;
  std::unique_ptr<nn::Linear> know_proj_;  // gloss dim -> 2*word_hidden
  std::unique_ptr<nn::SelfAttention> know_attn_;
  std::unique_ptr<nn::Linear> know_skip_;  // overlap features -> logit
  std::unique_ptr<nn::Mlp> wide_mlp_;
  std::unique_ptr<nn::Mlp> head_;
  bool trained_ = false;
};

}  // namespace alicoco::concepts

#endif  // ALICOCO_CONCEPTS_CLASSIFIER_H_
