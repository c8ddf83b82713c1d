#include "nn/layers.h"

#include <cmath>

namespace alicoco::nn {

Linear::Linear(ParameterStore* store, const std::string& name, int in_dim,
               int out_dim, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  w_ = store->Create(name + ".W", in_dim, out_dim,
                     ParameterStore::Init::kXavier, rng);
  b_ = store->Create(name + ".b", 1, out_dim, ParameterStore::Init::kZero,
                     nullptr);
}

Graph::Var Linear::Apply(Graph* g, Graph::Var x) const {
  return g->Affine(x, w_, b_);
}

Graph::Var Linear::ApplyTanh(Graph* g, Graph::Var x) const {
  return g->AffineTanh(x, w_, b_);
}

Graph::Var Linear::ApplyRelu(Graph* g, Graph::Var x) const {
  return g->AffineRelu(x, w_, b_);
}

Embedding::Embedding(ParameterStore* store, const std::string& name,
                     int vocab, int dim, Rng* rng)
    : vocab_(vocab), dim_(dim) {
  table_ = store->Create(name + ".table", vocab, dim,
                         ParameterStore::Init::kGaussian, rng, 0.08f);
}

Graph::Var Embedding::Lookup(Graph* g, const std::vector<int>& ids) const {
  return g->EmbeddingLookup(table_, ids);
}

Conv1D::Conv1D(ParameterStore* store, const std::string& name, int in_dim,
               int filters, int window, Rng* rng)
    : window_(window), proj_(store, name, in_dim * window, filters, rng) {
  ALICOCO_CHECK(window >= 1 && window % 2 == 1) << "Conv1D window must be odd";
}

Graph::Var Conv1D::Apply(Graph* g, Graph::Var x) const {
  return proj_.ApplyRelu(g, g->ConcatWindow(x, window_));
}

SelfAttention::SelfAttention(ParameterStore* store, const std::string& name,
                             int dim, Rng* rng, bool residual)
    : dim_(dim),
      residual_(residual),
      q_(store, name + ".q", dim, dim, rng),
      k_(store, name + ".k", dim, dim, rng),
      v_(store, name + ".v", dim, dim, rng) {}

Graph::Var SelfAttention::Apply(Graph* g, Graph::Var x) const {
  Graph::Var q = q_.Apply(g, x);
  Graph::Var k = k_.Apply(g, x);
  Graph::Var v = v_.Apply(g, x);
  float scale = 1.0f / std::sqrt(static_cast<float>(dim_));
  Graph::Var scores = g->ScalarMul(g->MatMulTransB(q, k), scale);
  Graph::Var attended = g->MatMul(g->SoftmaxRows(scores), v);
  return residual_ ? g->Add(x, attended) : attended;
}

Mlp::Mlp(ParameterStore* store, const std::string& name,
         const std::vector<int>& dims, Rng* rng) {
  ALICOCO_CHECK(dims.size() >= 2) << "Mlp needs at least {in, out}";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, name + ".fc" + std::to_string(i), dims[i],
                         dims[i + 1], rng);
  }
}

Graph::Var Mlp::Apply(Graph* g, Graph::Var x) const {
  Graph::Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = i + 1 < layers_.size() ? layers_[i].ApplyTanh(g, h)
                               : layers_[i].Apply(g, h);
  }
  return h;
}

}  // namespace alicoco::nn
