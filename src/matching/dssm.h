// DSSM baseline (Huang et al. 2013, simplified): two bag-of-embeddings MLP
// towers with a scaled-cosine similarity head.

#ifndef ALICOCO_MATCHING_DSSM_H_
#define ALICOCO_MATCHING_DSSM_H_

#include "matching/neural_base.h"

namespace alicoco::matching {

class DssmMatcher : public NeuralMatcherBase {
 public:
  DssmMatcher(const NeuralMatcherConfig& config,
              const text::SkipgramModel* embeddings,
              const text::Vocabulary* corpus_vocab)
      : NeuralMatcherBase(config, embeddings, corpus_vocab) {}

  std::string name() const override { return "DSSM"; }

 protected:
  void BuildModel() override;
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override;

 private:
  std::unique_ptr<nn::Embedding> emb_;
  std::unique_ptr<nn::Mlp> concept_tower_;
  std::unique_ptr<nn::Mlp> item_tower_;
  nn::Parameter* scale_ = nullptr;  // learned cosine temperature
};

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_DSSM_H_
