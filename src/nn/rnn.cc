#include "nn/rnn.h"

#include <memory_resource>

namespace alicoco::nn {

LstmCell::LstmCell(ParameterStore* store, const std::string& name,
                   int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  wx_ = store->Create(name + ".Wx", input_dim, 4 * hidden_dim,
                      ParameterStore::Init::kXavier, rng);
  wh_ = store->Create(name + ".Wh", hidden_dim, 4 * hidden_dim,
                      ParameterStore::Init::kXavier, rng);
  b_ = store->Create(name + ".b", 1, 4 * hidden_dim,
                     ParameterStore::Init::kZero, nullptr);
  // Positive forget-gate bias stabilizes early training.
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) b_->value.At(0, j) = 1.0f;
}

LstmCell::State LstmCell::Initial(Graph* g) const {
  return State{g->Input(Tensor(1, hidden_dim_, g->arena())),
               g->Input(Tensor(1, hidden_dim_, g->arena()))};
}

LstmCell::State LstmCell::Step(Graph* g, Graph::Var x,
                               const State& prev) const {
  // One fused node computes gates, cell and hidden state; the two slices
  // expose h and c as separate Vars for downstream consumers.
  Graph::Var hc = g->LstmStep(x, prev.h, prev.c, wx_, wh_, b_);
  return State{g->SliceCols(hc, 0, hidden_dim_),
               g->SliceCols(hc, hidden_dim_, hidden_dim_)};
}

BiLstm::BiLstm(ParameterStore* store, const std::string& name, int input_dim,
               int hidden_dim, Rng* rng)
    : fwd_(store, name + ".fwd", input_dim, hidden_dim, rng),
      bwd_(store, name + ".bwd", input_dim, hidden_dim, rng) {}

Graph::Var BiLstm::Run(Graph* g, Graph::Var x) const {
  int t = g->Value(x).rows();
  ALICOCO_CHECK(t > 0) << "BiLstm on empty sequence";
  // Var lists live in the graph's arena, like everything else it builds.
  std::pmr::vector<Graph::Var> rows(g->arena());
  rows.reserve(static_cast<size_t>(t));
  for (int i = 0; i < t; ++i) rows.push_back(g->SliceRows(x, i, 1));

  std::pmr::vector<Graph::Var> fwd_h(static_cast<size_t>(t), g->arena());
  LstmCell::State state = fwd_.Initial(g);
  for (int i = 0; i < t; ++i) {
    state = fwd_.Step(g, rows[static_cast<size_t>(i)], state);
    fwd_h[static_cast<size_t>(i)] = state.h;
  }
  std::pmr::vector<Graph::Var> bwd_h(static_cast<size_t>(t), g->arena());
  state = bwd_.Initial(g);
  for (int i = t - 1; i >= 0; --i) {
    state = bwd_.Step(g, rows[static_cast<size_t>(i)], state);
    bwd_h[static_cast<size_t>(i)] = state.h;
  }
  // Stack each direction once (T x H), then join side by side (T x 2H):
  // three concat nodes total instead of one per timestep.
  return g->ConcatCols({g->ConcatRows(fwd_h), g->ConcatRows(bwd_h)});
}

}  // namespace alicoco::nn
