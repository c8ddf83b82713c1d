#include "matching/dssm.h"

namespace alicoco::matching {

void DssmMatcher::BuildModel() {
  emb_ = MakeEmbedding("emb");
  concept_tower_ = std::make_unique<nn::Mlp>(
      &store_, "concept_tower", std::vector<int>{kEmbedDim, kHidden, kHidden},
      &init_rng_);
  item_tower_ = std::make_unique<nn::Mlp>(
      &store_, "item_tower", std::vector<int>{kEmbedDim, kHidden, kHidden},
      &init_rng_);
  scale_ = store_.Create("scale", 1, 1, nn::ParameterStore::Init::kZero,
                         nullptr);
  scale_->value.At(0, 0) = 4.0f;  // sharpen cosine into a usable logit
}

nn::Graph::Var DssmMatcher::Logit(nn::Graph* g,
                                  const std::vector<int>& concept_ids,
                                  const std::vector<int>& item_ids, bool train,
                                  Rng* rng) const {
  nn::Graph::Var c = g->MeanRows(emb_->Lookup(g, concept_ids));
  nn::Graph::Var i = g->MeanRows(emb_->Lookup(g, item_ids));
  c = g->Dropout(c, 0.1f, train, rng);
  i = g->Dropout(i, 0.1f, train, rng);
  nn::Graph::Var cv = g->Tanh(concept_tower_->Apply(g, c));
  nn::Graph::Var iv = g->Tanh(item_tower_->Apply(g, i));
  // Cosine similarity via normalized dot product approximation: tanh-bounded
  // towers keep magnitudes stable, so a plain dot with learned scale works.
  nn::Graph::Var dot = g->MatMulTransB(cv, iv);  // 1x1
  return g->Mul(dot, g->Use(scale_));
}

}  // namespace alicoco::matching
