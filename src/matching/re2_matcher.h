// RE2 baseline (Yang et al. 2019, simplified): embedding, soft alignment,
// fusion (concat / difference / product), pooling, symmetric prediction.

#ifndef ALICOCO_MATCHING_RE2_MATCHER_H_
#define ALICOCO_MATCHING_RE2_MATCHER_H_

#include "matching/neural_base.h"

namespace alicoco::matching {

class Re2Matcher : public NeuralMatcherBase {
 public:
  Re2Matcher(const NeuralMatcherConfig& config,
             const text::SkipgramModel* embeddings,
             const text::Vocabulary* corpus_vocab)
      : NeuralMatcherBase(config, embeddings, corpus_vocab) {}

  std::string name() const override { return "RE2"; }

 protected:
  void BuildModel() override;
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override;

 private:
  /// Aligned fusion of one side against the other: returns pooled vector.
  nn::Graph::Var FuseSide(nn::Graph* g, nn::Graph::Var self,
                          nn::Graph::Var other) const;

  std::unique_ptr<nn::Embedding> emb_;
  std::unique_ptr<nn::Linear> align_proj_;
  std::unique_ptr<nn::Linear> fuse_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_RE2_MATCHER_H_
