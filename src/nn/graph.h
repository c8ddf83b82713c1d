// Tape-based reverse-mode autodiff.
//
// Models build a fresh Graph per example (define-by-run), compose ops into a
// scalar loss, call Backward(), and the gradients of every Parameter used in
// the graph accumulate into Parameter::grad. An Optimizer then applies the
// accumulated batch gradient. Prediction and scoring build a forward-only
// Graph instead, which computes the same values but records no tape.
//
// Memory (DESIGN §5): a Graph draws its node storage, op values,
// gradients, backward closures and their scratch from a bump arena that
// belongs to its thread, and rewinds it on destruction. The arena keeps its
// blocks, so once warm a thread builds graphs without calling malloc. A
// graph nested inside another on the same thread gets an arena of its own.
// Nothing outside a graph holds arena memory: Value() hands out a const
// reference, and a copy of it lands on the heap (nn/tensor.h).
//
// The op set covers exactly what the paper's architectures need: matmul and
// elementwise math for MLPs, slicing/concat for LSTM gates, windowed concat
// for 1-D CNNs, softmax for attention, pooling, embedding gather, the
// additive two-way attention of Eq. 11, and stable sigmoid cross-entropy.

#ifndef ALICOCO_NN_GRAPH_H_
#define ALICOCO_NN_GRAPH_H_

#include <deque>
#include <initializer_list>
#include <memory>
#include <memory_resource>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace alicoco::nn {

/// A trainable tensor with an accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;  ///< same shape as value; zeroed by ZeroGrad
};

/// Owns all parameters of a model; optimizers iterate over it.
class ParameterStore {
 public:
  enum class Init { kZero, kXavier, kGaussian };

  /// Creates a named parameter. Names must be unique within the store.
  Parameter* Create(const std::string& name, int rows, int cols, Init init,
                    Rng* rng, float gaussian_stddev = 0.1f);

  /// Looks up a parameter by name (nullptr if absent).
  Parameter* Get(const std::string& name) const;

  /// Zeroes every gradient.
  void ZeroGrad();

  /// All parameters, in creation order.
  const std::vector<std::unique_ptr<Parameter>>& params() const {
    return params_;
  }

  /// Total number of scalar weights.
  size_t TotalWeights() const;

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

/// Redirects parameter-gradient accumulation away from Parameter::grad.
/// Data-parallel training hands each worker thread its own sink so graphs
/// built concurrently against a shared ParameterStore never write shared
/// state; the per-thread buffers are reduced after the batch barrier.
/// GradFor is only ever called from the thread that owns the sink.
class GradientSink {
 public:
  virtual ~GradientSink() = default;
  /// Accumulation buffer for `p`, same shape as p->value.
  virtual Tensor* GradFor(Parameter* p) = 0;
};

class GraphArena;

/// Dynamic computation graph. `Var` handles index nodes inside one graph and
/// must not be mixed across graphs. A graph must be destroyed on the thread
/// that built it.
class Graph {
 public:
  using Var = int;

  /// Selects the forward-only constructor.
  struct ForwardOnly {};
  static constexpr ForwardOnly kForwardOnly{};

  /// With a sink, every parameter gradient this graph produces goes to
  /// sink->GradFor(p) instead of p->grad.
  explicit Graph(GradientSink* sink = nullptr)
      : sink_(sink), nodes_(lease_.resource) {}
  /// A graph that never runs Backward: every op computes the same value as
  /// on a recording graph, but no backward closure is stored, and Backward
  /// CHECK-fails. Scoring and prediction use it.
  explicit Graph(ForwardOnly)
      : forward_only_(true), nodes_(lease_.resource) {}
  ~Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// This graph's arena. Ops, layers and losses in nn/ allocate scratch
  /// from it (`Tensor(rows, cols, g->arena())`, pmr containers) when that
  /// scratch is owned by a node or closure of this graph, or dies before
  /// the graph does. Nothing allocated from it may outlive the graph.
  std::pmr::memory_resource* arena() const { return lease_.resource; }

  /// True for a graph built with kForwardOnly (it can never run Backward).
  bool forward_only() const { return forward_only_; }

  /// Leaf holding a constant value (no gradient flows out of the graph).
  Var Input(Tensor value);

  /// Leaf bound to a trainable parameter; Backward accumulates into p->grad.
  Var Use(Parameter* p);

  /// Value / gradient of a node (gradient valid after Backward).
  const Tensor& Value(Var v) const { return nodes_[v].value; }
  const Tensor& Grad(Var v) const { return nodes_[v].grad; }

  // ---- arithmetic ----
  Var MatMul(Var a, Var b);
  /// Elementwise add. `b` may also be 1 x C (row broadcast over a's rows) or
  /// 1 x 1 (scalar broadcast).
  Var Add(Var a, Var b);
  /// Elementwise subtract (same shape only).
  Var Sub(Var a, Var b);
  /// Elementwise (Hadamard) product, same shape.
  Var Mul(Var a, Var b);
  Var ScalarMul(Var a, float s);
  Var AddScalar(Var a, float s);

  // ---- nonlinearities ----
  Var Sigmoid(Var a);
  Var Tanh(Var a);
  Var Relu(Var a);
  /// Softmax independently over each row.
  Var SoftmaxRows(Var a);

  // ---- shape ----
  Var Transpose(Var a);
  Var ConcatCols(std::span<const Var> vars);
  Var ConcatCols(std::initializer_list<Var> vars) {
    return ConcatCols(std::span<const Var>(vars.begin(), vars.size()));
  }
  Var ConcatRows(std::span<const Var> vars);
  Var ConcatRows(std::initializer_list<Var> vars) {
    return ConcatRows(std::span<const Var>(vars.begin(), vars.size()));
  }
  Var SliceRows(Var a, int begin, int count);
  Var SliceCols(Var a, int begin, int count);
  /// Row i of result = concat of rows [i-k/2, i+k/2] of a, zero-padded at the
  /// borders: T x D -> T x (k*D). `k` must be odd.
  Var ConcatWindow(Var a, int k);

  // ---- reductions ----
  Var SumAll(Var a);    ///< 1x1
  Var MeanAll(Var a);   ///< 1x1
  Var SumRows(Var a);   ///< 1 x C: sum over rows
  Var SumCols(Var a);   ///< R x 1: sum over cols
  Var MeanRows(Var a);  ///< 1 x C: mean over rows
  Var MaxRows(Var a);   ///< 1 x C: max over rows (subgradient to argmax)

  // ---- lookup / regularization ----
  /// Gathers rows of `table` by id: len(ids) x dim. Gradients scatter-add
  /// into the table. Ids must be in range.
  Var EmbeddingLookup(Parameter* table, const std::vector<int>& ids);
  /// Inverted dropout; identity when !train.
  Var Dropout(Var a, float p, bool train, Rng* rng);

  // ---- fused compute ops (blocked kernels, no intermediate nodes) ----
  /// x (R x in) * W (in x out) + b (1 x out) as one node. Equivalent to
  /// Add(MatMul(x, Use(w)), Use(b)) without materializing the weight copy
  /// or the pre-bias product.
  Var Affine(Var x, Parameter* w, Parameter* b);
  /// tanh(x*W + b) fused.
  Var AffineTanh(Var x, Parameter* w, Parameter* b);
  /// relu(x*W + b) fused.
  Var AffineRelu(Var x, Parameter* w, Parameter* b);
  /// A (m x k) * B^T for B (n x k), without materializing the transpose.
  Var MatMulTransB(Var a, Var b);
  /// Full fused LSTM step (gate order [i, f, o, g] in the packed weights):
  /// x (R x in), h_prev/c_prev (R x H), wx (in x 4H), wh (H x 4H),
  /// b (1 x 4H) -> R x 2H holding [h_new, c_new]. Slice columns [0, H) for
  /// h and [H, 2H) for c.
  Var LstmStep(Var x, Var h_prev, Var c_prev, Parameter* wx, Parameter* wh,
               Parameter* b);

  // ---- attention / losses ----
  /// att[i][j] = v^T tanh(a_i + b_j)  (Eq. 11). a: m x d, b: l x d,
  /// v: d x 1 -> m x l.
  Var AdditiveAttention(Var a, Var b, Var v);
  /// Mean over elements of sigmoid cross-entropy between logits and 0/1
  /// targets (targets same shape as logits, constant). Returns 1x1.
  Var SigmoidCrossEntropyWithLogits(Var logits, const Tensor& targets);

  /// Escape hatch for ops with hand-derived gradients (the CRF losses, the
  /// matcher's pyramid readouts): creates a node with `value` whose
  /// backward invokes `backward` with the node's output gradient. The
  /// closure must push gradients to its inputs via AccumulateGrad, and to
  /// parameters via ParamGrad (never directly through Parameter::grad,
  /// which would bypass the sink). A forward-only graph drops `backward`;
  /// a recording one moves it into the arena.
  template <typename F>
  Var Custom(Tensor value, F&& backward) {
    Var v = NewNode(std::move(value));
    SetBackward(v, [this, v, backward = std::forward<F>(backward)] {
      backward(nodes_[v].grad);
    });
    return v;
  }

  /// Adds `g` into the gradient buffer of node `v` (for Custom backwards).
  void AccumulateGrad(Var v, const Tensor& g);

  /// Where gradients for `p` accumulate: the sink's buffer if one is
  /// installed, p->grad otherwise. Custom backwards must route parameter
  /// gradients through this so data-parallel training stays race-free.
  Tensor* ParamGrad(Parameter* p) {
    return sink_ != nullptr ? sink_->GradFor(p) : &p->grad;
  }

  /// Runs reverse-mode accumulation from `loss` (must be 1x1). Parameter
  /// gradients accumulate (call ParameterStore::ZeroGrad between batches).
  /// CHECK-fails on a forward-only graph.
  void Backward(Var loss);

  /// Number of nodes (diagnostics).
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    Tensor value;
    Tensor grad;
    // The backward closure, an object in the arena; null for constants.
    void (*backward)(void* closure);
    void* closure;
  };

  // Takes a free arena of this thread on construction and rewinds it on
  // destruction. It is the first member, so it is destroyed last: after
  // every node, closure and container that lives in the arena.
  struct ArenaLease {
    ArenaLease();
    ~ArenaLease();
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    GraphArena* owner;
    std::pmr::memory_resource* resource;  // `owner`, seen as its base
  };

  // A closure destructor to run when the graph dies; a list in the arena.
  struct Finalizer {
    void (*destroy)(void* closure);
    void* closure;
    Finalizer* next;
  };

  Var NewNode(Tensor value);
  /// Moves the backward closure of node `v` into the arena, registering its
  /// destructor when it has one. A forward-only graph drops it.
  template <typename F>
  void SetBackward(Var v, F&& backward) {
    if (forward_only_) return;
    using Closure = std::decay_t<F>;
    void* mem = arena()->allocate(sizeof(Closure), alignof(Closure));
    auto* closure = ::new (mem) Closure(std::forward<F>(backward));
    if constexpr (!std::is_trivially_destructible_v<Closure>) {
      void* slot = arena()->allocate(sizeof(Finalizer), alignof(Finalizer));
      finalizers_ = ::new (slot) Finalizer{
          [](void* c) { static_cast<Closure*>(c)->~Closure(); }, closure,
          finalizers_};
    }
    Node& node = nodes_[v];
    node.backward = [](void* c) { (*static_cast<Closure*>(c))(); };
    node.closure = closure;
  }
  /// Shared implementation of the fused affine family; `act` selects the
  /// fused activation (0 = none, 1 = tanh, 2 = relu).
  Var AffineAct(Var x, Parameter* w, Parameter* b, int act);

  ArenaLease lease_;
  GradientSink* sink_ = nullptr;
  bool forward_only_ = false;
  // A deque, so a node never moves: ops hold `const Tensor&` into earlier
  // nodes across NewNode.
  std::pmr::deque<Node> nodes_;
  Finalizer* finalizers_ = nullptr;
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_GRAPH_H_
