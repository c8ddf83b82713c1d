#include "nn/graph.h"

namespace alicoco::nn {

Parameter* ParameterStore::Create(const std::string& name, int rows, int cols,
                                  Init init, Rng* rng, float gaussian_stddev) {
  ALICOCO_CHECK(Get(name) == nullptr) << "duplicate parameter " << name;
  auto p = std::make_unique<Parameter>();
  p->name = name;
  switch (init) {
    case Init::kZero:
      p->value = Tensor(rows, cols);
      break;
    case Init::kXavier:
      ALICOCO_CHECK(rng != nullptr);
      p->value = Tensor::Xavier(rows, cols, rng);
      break;
    case Init::kGaussian:
      ALICOCO_CHECK(rng != nullptr);
      p->value = Tensor::Randn(rows, cols, gaussian_stddev, rng);
      break;
  }
  p->grad = Tensor(rows, cols);
  Parameter* raw = p.get();
  params_.push_back(std::move(p));
  return raw;
}

Parameter* ParameterStore::Get(const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

void ParameterStore::ZeroGrad() {
  for (auto& p : params_) p->grad.Zero();
}

size_t ParameterStore::TotalWeights() const {
  size_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

Graph::Var Graph::NewNode(Tensor value) {
  // Gradient buffers are materialized by Backward(); forward-only graphs
  // (prediction / scoring) never pay for them.
  nodes_.push_back(Node{std::move(value), Tensor(), nullptr});
  return static_cast<Var>(nodes_.size() - 1);
}

Graph::Var Graph::Input(Tensor value) { return NewNode(std::move(value)); }

Graph::Var Graph::Use(Parameter* p) {
  ALICOCO_CHECK(p != nullptr);
  Var v = NewNode(p->value);
  SetBackward(v, [this, v, p] { ParamGrad(p)->AddInPlace(nodes_[v].grad); });
  return v;
}

Graph::Var Graph::Custom(
    Tensor value, std::function<void(const Tensor& out_grad)> backward) {
  Var v = NewNode(std::move(value));
  SetBackward(v, [this, v, backward = std::move(backward)] {
    backward(nodes_[v].grad);
  });
  return v;
}

void Graph::AccumulateGrad(Var v, const Tensor& g) {
  nodes_[v].grad.AddInPlace(g);
}

void Graph::Backward(Var loss) {
  ALICOCO_CHECK(!forward_only_) << "Backward on a forward-only graph";
  ALICOCO_CHECK(loss >= 0 && static_cast<size_t>(loss) < nodes_.size());
  const Tensor& lv = nodes_[loss].value;
  ALICOCO_CHECK(lv.rows() == 1 && lv.cols() == 1)
      << "Backward requires a scalar loss";
  for (Var v = loss; v >= 0; --v) {
    Node& node = nodes_[v];
    if (node.grad.empty()) {
      node.grad = Tensor(node.value.rows(), node.value.cols());
    }
  }
  nodes_[loss].grad.At(0, 0) = 1.0f;
  for (Var v = loss; v >= 0; --v) {
    if (nodes_[v].backward) nodes_[v].backward();
  }
}

}  // namespace alicoco::nn
