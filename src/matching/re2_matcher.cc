#include "matching/re2_matcher.h"

namespace alicoco::matching {

void Re2Matcher::BuildModel() {
  int d = kEmbedDim;
  emb_ = MakeEmbedding("emb");
  align_proj_ = std::make_unique<nn::Linear>(&store_, "align", d, d,
                                             &init_rng_);
  // Fusion input: [x; aligned; x - aligned; x * aligned] -> hidden.
  fuse_ = std::make_unique<nn::Linear>(&store_, "fuse", 4 * d, kHidden,
                                       &init_rng_);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{2 * kHidden, kHidden, 1}, &init_rng_);
}

nn::Graph::Var Re2Matcher::FuseSide(nn::Graph* g, nn::Graph::Var self,
                                    nn::Graph::Var other) const {
  // Soft alignment: attention of self rows over other rows.
  nn::Graph::Var q = align_proj_->Apply(g, self);
  nn::Graph::Var k = align_proj_->Apply(g, other);
  nn::Graph::Var weights = g->SoftmaxRows(g->MatMulTransB(q, k));
  nn::Graph::Var aligned = g->MatMul(weights, other);  // rows(self) x d
  nn::Graph::Var fused = g->Relu(fuse_->Apply(
      g, g->ConcatCols({self, aligned, g->Sub(self, aligned),
                        g->Mul(self, aligned)})));
  return g->MaxRows(fused);  // 1 x hidden
}

nn::Graph::Var Re2Matcher::Logit(nn::Graph* g,
                                 const std::vector<int>& concept_ids,
                                 const std::vector<int>& item_ids, bool train,
                                 Rng* rng) const {
  nn::Graph::Var c = emb_->Lookup(g, concept_ids);
  nn::Graph::Var i = emb_->Lookup(g, item_ids);
  c = g->Dropout(c, 0.1f, train, rng);
  i = g->Dropout(i, 0.1f, train, rng);
  nn::Graph::Var vc = FuseSide(g, c, i);
  nn::Graph::Var vi = FuseSide(g, i, c);
  return head_->Apply(g, g->ConcatCols({vc, vi}));
}

}  // namespace alicoco::matching
