// BiLSTM-CRF sequence labeler (Figure 4) for primitive-concept mining.
//
// Words are embedded (trainable table built over the training corpus),
// passed through a BiLSTM, projected to per-label emissions, and decoded
// with a linear-chain CRF. Labels follow the IOB scheme over the 20
// first-level domains; the label inventory is derived from the training
// data.

#ifndef ALICOCO_MINING_SEQUENCE_LABELER_H_
#define ALICOCO_MINING_SEQUENCE_LABELER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/metrics.h"
#include "mining/distant_supervision.h"
#include "nn/crf.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/vocabulary.h"

namespace alicoco {
class ThreadPool;
}  // namespace alicoco

namespace alicoco::mining {

/// Training hyperparameters.
struct SequenceLabelerConfig {
  int word_dim = 24;
  int hidden_dim = 24;
  int epochs = 3;
  uint64_t seed = 11;
  /// Optional worker pool for data-parallel minibatches (not owned; null
  /// trains on the calling thread). Every pool size trains the same model;
  /// the null pool sums batch gradients in another order.
  ThreadPool* pool = nullptr;
};

/// Trainable BiLSTM-CRF tagger.
class SequenceLabeler {
 public:
  explicit SequenceLabeler(const SequenceLabelerConfig& config);

  /// Builds vocab and label set from `data` and trains. May be called once.
  void Train(const std::vector<LabeledSentence>& data);

  /// Viterbi-decoded IOB tags for a sentence. Unknown words map to <unk>.
  std::vector<std::string> Predict(
      const std::vector<std::string>& tokens) const;

  /// Span-level micro precision/recall/F1 against gold.
  eval::BinaryMetrics Evaluate(const std::vector<LabeledSentence>& gold) const;

  const std::vector<std::string>& labels() const { return label_names_; }
  size_t vocab_size() const { return vocab_.size(); }

 private:
  int LabelId(const std::string& label) const;
  nn::Graph::Var Emissions(nn::Graph* g, const std::vector<int>& ids,
                           bool train, Rng* rng) const;

  SequenceLabelerConfig config_;
  Rng init_rng_;
  text::Vocabulary vocab_;
  std::vector<std::string> label_names_;  // index = label id; [0] == "O"
  std::unordered_map<std::string, int> label_ids_;

  nn::ParameterStore store_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::BiLstm> bilstm_;
  std::unique_ptr<nn::Linear> proj_;
  std::unique_ptr<nn::LinearChainCrf> crf_;
  bool trained_ = false;
};

}  // namespace alicoco::mining

#endif  // ALICOCO_MINING_SEQUENCE_LABELER_H_
