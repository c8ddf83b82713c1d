// Reusable neural layers built on the autodiff graph. Each layer creates
// its parameters in the caller's ParameterStore and keeps plain pointers to
// them, so the store must outlive the layer.

#ifndef ALICOCO_NN_LAYERS_H_
#define ALICOCO_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/graph.h"

namespace alicoco::nn {

/// Affine map: x (R x in) -> x*W + b (R x out).
class Linear {
 public:
  Linear(ParameterStore* store, const std::string& name, int in_dim,
         int out_dim, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;
  /// Fused tanh(x*W + b) — no intermediate pre-activation node.
  Graph::Var ApplyTanh(Graph* g, Graph::Var x) const;
  /// Fused relu(x*W + b).
  Graph::Var ApplyRelu(Graph* g, Graph::Var x) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  int in_dim_, out_dim_;
  Parameter* w_;
  Parameter* b_;
};

/// Trainable embedding table (vocab x dim).
class Embedding {
 public:
  Embedding(ParameterStore* store, const std::string& name, int vocab,
            int dim, Rng* rng);

  /// Gathers rows by id: len(ids) x dim.
  Graph::Var Lookup(Graph* g, const std::vector<int>& ids) const;

  int dim() const { return dim_; }
  int vocab() const { return vocab_; }
  Parameter* parameter() const { return table_; }

 private:
  int vocab_, dim_;
  Parameter* table_;
};

/// 1-D convolution over sequence rows with ReLU: T x D -> T x filters.
/// Implemented as windowed concat (odd window, zero padding) + affine.
class Conv1D {
 public:
  Conv1D(ParameterStore* store, const std::string& name, int in_dim,
         int filters, int window, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

  int filters() const { return proj_.out_dim(); }
  int window() const { return window_; }

 private:
  int window_;
  Linear proj_;
};

/// Single-head scaled dot-product self-attention: T x d -> T x d,
/// optionally with a residual connection.
class SelfAttention {
 public:
  SelfAttention(ParameterStore* store, const std::string& name, int dim,
                Rng* rng, bool residual = true);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

 private:
  int dim_;
  bool residual_;
  Linear q_, k_, v_;
};

/// Fully-connected stack with tanh hidden activations and a linear head.
class Mlp {
 public:
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(ParameterStore* store, const std::string& name,
      const std::vector<int>& dims, Rng* rng);

  Graph::Var Apply(Graph* g, Graph::Var x) const;

 private:
  std::vector<Linear> layers_;
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_LAYERS_H_
