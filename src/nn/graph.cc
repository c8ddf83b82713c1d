#include "nn/graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ALICOCO_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ALICOCO_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ALICOCO_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define ALICOCO_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace alicoco::nn {

// Bump allocator behind one graph at a time. Allocation moves an offset
// through the current block; a request that does not fit opens a block at
// least as large as all earlier ones together. Deallocation is a no-op, and
// Rewind() makes the whole arena free again. When a graph needed several
// blocks, Rewind() replaces them by one block of its high-water mark, so
// the next graph of that size runs in one block without allocating.
//
// Under AddressSanitizer, memory is poisoned from rewind until it is handed
// out again, so a read through a dead graph's value still reports.
class GraphArena final : public std::pmr::memory_resource {
 public:
  GraphArena() = default;
  GraphArena(const GraphArena&) = delete;
  GraphArena& operator=(const GraphArena&) = delete;
  ~GraphArena() override {
    for (const Block& b : blocks_) ALICOCO_ARENA_UNPOISON(b.mem.get(), b.size);
  }

  void Rewind() {
    if (blocks_.size() > 1) {
      const size_t high_water = used_before_ + offset_;
      for (const Block& b : blocks_) {
        ALICOCO_ARENA_UNPOISON(b.mem.get(), b.size);
      }
      blocks_.clear();
      // A quarter of slack absorbs the alignment padding that packing the
      // old blocks' contents into one block can add.
      AddBlock(high_water + high_water / 4);
    } else if (!blocks_.empty()) {
      ALICOCO_ARENA_POISON(blocks_[0].mem.get(), blocks_[0].size);
    }
    offset_ = 0;
    used_before_ = 0;
  }

  bool in_use = false;

 private:
  static constexpr size_t kMinBlock = size_t{64} << 10;
  // Every allocation starts on at least malloc's alignment, so kernels see
  // arena buffers aligned as heap ones are, and no two allocations share
  // one of ASan's 8-byte shadow granules.
  static constexpr size_t kMinAlign = 16;

  struct Block {
    std::unique_ptr<std::byte[]> mem;
    size_t size;
  };

  void* do_allocate(size_t bytes, size_t align) override {
    align = std::max(align, kMinAlign);
    if (!blocks_.empty()) {
      if (void* p = Bump(bytes, align)) return p;
      used_before_ += offset_;
    }
    size_t capacity = 0;
    for (const Block& b : blocks_) capacity += b.size;
    AddBlock(std::max({kMinBlock, bytes + align, capacity}));
    offset_ = 0;
    return Bump(bytes, align);
  }

  void do_deallocate(void*, size_t, size_t) override {}

  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }

  // Carves `bytes` at `align` from the current block, or returns nullptr.
  void* Bump(size_t bytes, size_t align) {
    const Block& b = blocks_.back();
    const auto base = reinterpret_cast<uintptr_t>(b.mem.get());
    const uintptr_t start = (base + offset_ + align - 1) & ~(align - 1);
    if (start + bytes > base + b.size) return nullptr;
    offset_ = start + bytes - base;
    void* p = reinterpret_cast<void*>(start);
    ALICOCO_ARENA_UNPOISON(p, bytes);
    return p;
  }

  void AddBlock(size_t size) {
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(size), size});
    ALICOCO_ARENA_POISON(blocks_.back().mem.get(), size);
  }

  std::vector<Block> blocks_;
  size_t offset_ = 0;       // bytes used in blocks_.back()
  size_t used_before_ = 0;  // bytes used in the blocks before it
};

namespace {

// The arenas of one thread; a graph takes the first one no live graph of
// this thread holds, so nested graphs each get their own.
struct ThreadArenas {
  std::vector<std::unique_ptr<GraphArena>> arenas;

  GraphArena* Acquire() {
    for (const auto& a : arenas) {
      if (!a->in_use) {
        a->in_use = true;
        return a.get();
      }
    }
    arenas.push_back(std::make_unique<GraphArena>());
    arenas.back()->in_use = true;
    return arenas.back().get();
  }
};

thread_local ThreadArenas tls_arenas;

}  // namespace

Graph::ArenaLease::ArenaLease()
    : owner(tls_arenas.Acquire()), resource(owner) {}

Graph::ArenaLease::~ArenaLease() {
  owner->Rewind();
  owner->in_use = false;
}

Graph::~Graph() {
  for (Finalizer* f = finalizers_; f != nullptr; f = f->next) {
    f->destroy(f->closure);
  }
}

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
  p->index = params_.size();
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

void GradientBuffer::ReduceInto() {
  for (size_t i = 0; i < grads_.size(); ++i) {
    if (grads_[i].empty()) continue;
    store_->params()[i]->grad.AddInPlace(grads_[i]);
    grads_[i].Zero();
  }
}

Graph::Var Graph::NewNode(Tensor value) {
  // Gradient buffers are materialized by Backward(); forward-only graphs
  // (prediction / scoring) never pay for them.
  nodes_.push_back(Node{std::move(value), Tensor(arena()), nullptr, nullptr});
  return static_cast<Var>(nodes_.size() - 1);
}

Graph::Var Graph::Input(Tensor value) { return NewNode(std::move(value)); }

Graph::Var Graph::Use(Parameter* p) {
  ALICOCO_CHECK(p != nullptr);
  Var v = NewNode(Tensor(p->value, arena()));
  SetBackward(v, [this, v, p] { ParamGrad(p)->AddInPlace(nodes_[v].grad); });
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
      node.grad = Tensor(node.value.rows(), node.value.cols(), arena());
    }
  }
  nodes_[loss].grad.At(0, 0) = 1.0f;
  for (Var v = loss; v >= 0; --v) {
    const Node& node = nodes_[v];
    if (node.backward != nullptr) node.backward(node.closure);
  }
}

}  // namespace alicoco::nn
