#include "matching/knowledge_matcher.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "matching/match_pyramid.h"
#include "text/tokenizer.h"

namespace alicoco::matching {

namespace {

uint64_t NextMemoId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// The concept side of the last forward-only Logit on this thread: every
// value Logit computes from the concept alone (DESIGN §5, "The stage-7
// forward pass"). Its tensors are heap copies, never arena memory.
struct ConceptMemo {
  uint64_t matcher = 0;  // memo_id_ of the matcher that filled it; 0: none
  std::vector<int> concept_ids;
  nn::Tensor w_enc;               // m x f, the concept CNN output
  nn::Tensor att_w;               // m x f, att_w1(w_enc)
  std::vector<nn::Tensor> proj;   // per pyramid layer k, kw * pyramid_k
};

thread_local ConceptMemo tls_concept_memo;

constexpr int kCnnFilters = 24;  // f: both CNNs' output width
constexpr int kPoolGrid = 3;  // each pyramid layer pools to kPoolGrid^2 cells

}  // namespace

// The item side of a title: the item-CNN output t_enc and its attention
// projection att_t = att_w2(t_enc), both l x f. They depend on the title's
// token ids alone, and titles recur across concepts, so one table per
// matcher keeps them for every scoring thread (DESIGN §5, "The stage-7
// forward pass"). An entry is one heap block: l, the l ids, then t_enc's
// and att_t's floats. It is filled before the lock publishes it and is
// never changed or freed while the table lives, so a reader copies it out
// after unlocking. The catalog bounds the table: no entry is ever evicted.
class KnowledgeMatcher::ItemSideTable {
 public:
  enum Part { kTEnc = 0, kAttT = 1 };

  /// The entry holding the item side of `ids`, or null.
  const std::byte* Find(const std::vector<int>& ids) const
      ALICOCO_EXCLUDES(mu_) {
    const uint64_t hash = Hash(ids);
    MutexLock lock(mu_);
    return FindLocked(ids, hash);
  }

  /// Stores the item side of `ids`. A thread that raced this one to the
  /// same title computed the same floats, so the first insert wins.
  void Insert(const std::vector<int>& ids, const nn::Tensor& t_enc,
              const nn::Tensor& att_t) ALICOCO_EXCLUDES(mu_) {
    ALICOCO_CHECK(t_enc.rows() == static_cast<int>(ids.size()) &&
                  t_enc.cols() == kCnnFilters && att_t.SameShape(t_enc));
    const size_t id_bytes = sizeof(int) * ids.size();
    const size_t part_bytes = sizeof(float) * t_enc.size();
    auto entry = std::make_unique_for_overwrite<std::byte[]>(
        sizeof(int) + id_bytes + 2 * part_bytes);
    const int len = static_cast<int>(ids.size());
    std::memcpy(entry.get(), &len, sizeof(int));
    std::memcpy(entry.get() + sizeof(int), ids.data(), id_bytes);
    std::memcpy(entry.get() + sizeof(int) + id_bytes, t_enc.data(),
                part_bytes);
    std::memcpy(entry.get() + sizeof(int) + id_bytes + part_bytes,
                att_t.data(), part_bytes);
    const uint64_t hash = Hash(ids);
    MutexLock lock(mu_);
    if (FindLocked(ids, hash) == nullptr) {
      entries_.emplace(hash, std::move(entry));
    }
  }

  /// A copy of one part of `entry`, an l x f tensor in `mr`.
  static nn::Tensor Read(const std::byte* entry, Part part,
                         std::pmr::memory_resource* mr) {
    const int len = Length(entry);
    nn::Tensor out(len, kCnnFilters, mr);
    std::memcpy(out.data(),
                entry + sizeof(int) * (1 + static_cast<size_t>(len)) +
                    part * sizeof(float) * out.size(),
                sizeof(float) * out.size());
    return out;
  }

  size_t size() const ALICOCO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  static int Length(const std::byte* entry) {
    int len;
    std::memcpy(&len, entry, sizeof(int));
    return len;
  }

  static uint64_t Hash(const std::vector<int>& ids) {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the ids
    for (int id : ids) h = (h ^ static_cast<uint32_t>(id)) * 0x100000001b3ull;
    return h;
  }

  const std::byte* FindLocked(const std::vector<int>& ids,
                              uint64_t hash) const ALICOCO_REQUIRES(mu_) {
    // Entries with one hash are adjacent in a multimap's iteration order.
    for (auto it = entries_.find(hash);
         it != entries_.end() && it->first == hash; ++it) {
      const std::byte* entry = it->second.get();
      if (Length(entry) == static_cast<int>(ids.size()) &&
          std::memcmp(entry + sizeof(int), ids.data(),
                      sizeof(int) * ids.size()) == 0) {
        return entry;
      }
    }
    return nullptr;
  }

  mutable Mutex mu_;
  /// Keyed by the ids' hash; equal hashes are told apart by their ids.
  std::unordered_multimap<uint64_t, std::unique_ptr<std::byte[]>> entries_
      ALICOCO_GUARDED_BY(mu_);
};

KnowledgeMatcher::KnowledgeMatcher(const KnowledgeMatcherConfig& config,
                                   const KnowledgeResources& resources,
                                   const text::SkipgramModel* embeddings,
                                   const text::Vocabulary* corpus_vocab)
    : NeuralMatcherBase(config.base, embeddings, corpus_vocab),
      kcfg_(config),
      res_(resources),
      memo_id_(NextMemoId()),
      item_sides_(std::make_unique<ItemSideTable>()) {
  ALICOCO_CHECK(res_.pos_tagger != nullptr) << "POS tagger required";
  if (kcfg_.use_knowledge) {
    ALICOCO_CHECK(res_.gloss_encoder != nullptr && res_.gloss_lookup &&
                  res_.concept_classes && res_.num_classes > 0)
        << "use_knowledge requires gloss and class resources";
  }
}

KnowledgeMatcher::~KnowledgeMatcher() = default;

size_t KnowledgeMatcher::items_encoded() const { return item_sides_->size(); }

void KnowledgeMatcher::BuildModel() {
  constexpr int kPosDim = 6;
  constexpr int kCnnWindow = 3;
  constexpr int kPyramidLayers = 3;  ///< K of Eq. 16
  int d = kEmbedDim;
  int f = kCnnFilters;
  emb_ = MakeEmbedding("emb");
  pos_emb_ = std::make_unique<nn::Embedding>(
      &store_, "pos_emb", text::kNumPosTags, kPosDim, &init_rng_);
  int in_dim = d + kPosDim;
  concept_cnn_ = std::make_unique<nn::Conv1D>(&store_, "concept_cnn", in_dim,
                                              f, kCnnWindow, &init_rng_);
  item_cnn_ = std::make_unique<nn::Conv1D>(&store_, "item_cnn", in_dim, f,
                                           kCnnWindow, &init_rng_);
  att_w1_ = std::make_unique<nn::Linear>(&store_, "att_w1", f, f, &init_rng_);
  att_w2_ = std::make_unique<nn::Linear>(&store_, "att_w2", f, f, &init_rng_);
  att_v_ = store_.Create("att_v", f, 1, nn::ParameterStore::Init::kXavier,
                         &init_rng_);
  if (kcfg_.use_knowledge) {
    gloss_proj_ = std::make_unique<nn::Linear>(
        &store_, "gloss_proj", res_.gloss_encoder->dim(), d, &init_rng_);
    class_emb_ = std::make_unique<nn::Embedding>(
        &store_, "class_emb", res_.num_classes, d, &init_rng_);
  }
  // Per-id knowledge, looked up once here instead of once per Logit: the
  // POS tag of every vocabulary token, and the gloss encoding of every
  // token with a gloss (zero rows for the rest).
  pos_of_id_.resize(static_cast<size_t>(vocab_.size()));
  for (int id = 0; id < vocab_.size(); ++id) {
    pos_of_id_[static_cast<size_t>(id)] =
        static_cast<int>(res_.pos_tagger->Tag(vocab_.Token(id)));
  }
  if (kcfg_.use_knowledge) {
    const int gloss_dim = res_.gloss_encoder->dim();
    gloss_of_id_ = nn::Tensor(vocab_.size(), gloss_dim);
    std::vector<std::string> gloss;
    std::vector<float> vec;
    for (int id = 0; id < vocab_.size(); ++id) {
      gloss = res_.gloss_lookup(vocab_.Token(id));
      if (gloss.empty()) continue;
      vec = res_.gloss_encoder->Encode(gloss);
      ALICOCO_CHECK_EQ(vec.size(), static_cast<size_t>(gloss_dim));
      std::copy(vec.begin(), vec.end(), gloss_of_id_.Row(id));
    }
  }
  for (int k = 0; k < kPyramidLayers; ++k) {
    // Near-identity init: layer 0 starts as a plain dot-product matrix (the
    // MatchPyramid interaction); later layers perturb it so the K layers
    // learn distinct similarity facets.
    nn::Parameter* wk = store_.Create("pyramid" + std::to_string(k), d, d,
                                      nn::ParameterStore::Init::kGaussian,
                                      &init_rng_, 0.02f * (k + 1));
    for (int j = 0; j < d; ++j) wk->value.At(j, j) += 1.0f;
    pyramid_.push_back(wk);
  }
  int grid_feats = kPoolGrid * kPoolGrid + 4;
  pyramid_mlp_ = std::make_unique<nn::Mlp>(
      &store_, "pyramid_mlp",
      std::vector<int>{kPyramidLayers * grid_feats, kHidden}, &init_rng_);
  int head_in = kHidden + (kcfg_.use_attention_channel ? 3 * f : 0);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{head_in, kHidden, 1}, &init_rng_);
}

nn::Graph::Var KnowledgeMatcher::Logit(nn::Graph* g,
                                       const std::vector<int>& concept_ids,
                                       const std::vector<int>& item_ids,
                                       bool train, Rng* rng) const {
  auto encode_side = [&](const std::vector<int>& ids,
                         const nn::Conv1D& cnn) {
    std::vector<int> pos_ids;
    pos_ids.reserve(ids.size());
    for (int id : ids) pos_ids.push_back(pos_of_id_[static_cast<size_t>(id)]);
    nn::Graph::Var words = emb_->Lookup(g, ids);
    nn::Graph::Var pos = pos_emb_->Lookup(g, pos_ids);
    nn::Graph::Var x = g->ConcatCols({words, pos});
    x = g->Dropout(x, 0.1f, train, rng);
    return cnn.Apply(g, x);
  };

  // Scoring runs many items against one concept, so a forward-only graph
  // takes the concept side from this thread's memo when the last such
  // Logit saw the same matcher and concept ids, and refills the memo on a
  // miss. Titles recur across concepts, so the same graphs take the item
  // side from the matcher's shared table, and fill it on a miss. A
  // recording graph always builds both sides, with its nodes in the order
  // below: Backward sums the shared gradients (emb_ is read four times,
  // w_enc twice) in reverse node order.
  const bool forward_only = g->forward_only() && !train;
  ConceptMemo* memo = forward_only ? &tls_concept_memo : nullptr;
  const bool hit = memo != nullptr && memo->matcher == memo_id_ &&
                   memo->concept_ids == concept_ids;
  const bool fill = memo != nullptr && !hit;
  auto stored = [g](const nn::Tensor& value) {
    return g->Input(nn::Tensor(value, g->arena()));
  };
  const std::byte* item = forward_only ? item_sides_->Find(item_ids) : nullptr;
  auto item_part = [g, item](ItemSideTable::Part part) {
    return g->Input(ItemSideTable::Read(item, part, g->arena()));
  };

  nn::Graph::Var w_enc = hit ? stored(memo->w_enc)  // m x f
                             : encode_side(concept_ids, *concept_cnn_);
  nn::Graph::Var t_enc = item != nullptr  // l x f
                             ? item_part(ItemSideTable::kTEnc)
                             : encode_side(item_ids, *item_cnn_);

  // Two-way additive attention (Eq. 11-14). Its three inputs keep the node
  // order they had as the arguments of one call, which GCC evaluates last
  // first.
  nn::Graph::Var att_v = g->Use(att_v_);
  nn::Graph::Var att_t = item != nullptr ? item_part(ItemSideTable::kAttT)
                                         : att_w2_->Apply(g, t_enc);
  if (forward_only && item == nullptr) {
    item_sides_->Insert(item_ids, g->Value(t_enc), g->Value(att_t));
  }
  nn::Graph::Var att_w =
      hit ? stored(memo->att_w) : att_w1_->Apply(g, w_enc);
  nn::Graph::Var att = g->AdditiveAttention(att_w, att_t, att_v);  // m x l
  nn::Graph::Var alpha_w =
      g->SoftmaxRows(g->Transpose(g->SumCols(att)));  // 1 x m
  nn::Graph::Var alpha_t = g->SoftmaxRows(g->SumRows(att));  // 1 x l
  nn::Graph::Var c = g->MatMul(alpha_w, w_enc);  // 1 x f
  nn::Graph::Var i = g->MatMul(alpha_t, t_enc);  // 1 x f

  // Knowledge sequence kw: concept word embeddings, plus gloss vectors and
  // linked-class embeddings when knowledge is on (Eq. 15-16). A memo hit
  // needs only its projections below.
  nn::Graph::Var kw = -1;  // (m+g+m') x d
  if (!hit) {
    std::vector<nn::Graph::Var> kw_parts = {emb_->Lookup(g, concept_ids)};
    if (kcfg_.use_knowledge) {
      nn::Tensor gloss_mat(static_cast<int>(concept_ids.size()),
                           gloss_of_id_.cols(), g->arena());
      for (size_t w = 0; w < concept_ids.size(); ++w) {
        const float* src = gloss_of_id_.Row(concept_ids[w]);
        std::copy(src, src + gloss_of_id_.cols(),
                  gloss_mat.Row(static_cast<int>(w)));
      }
      kw_parts.push_back(
          g->Tanh(gloss_proj_->Apply(g, g->Input(std::move(gloss_mat)))));
      std::vector<int> classes =
          res_.concept_classes(vocab_.Decode(concept_ids));
      if (!classes.empty()) {
        for (int& cid : classes) {
          ALICOCO_CHECK(cid >= 0 && cid < res_.num_classes);
        }
        kw_parts.push_back(class_emb_->Lookup(g, classes));
      }
    }
    kw = g->ConcatRows(kw_parts);
  }
  nn::Graph::Var t_words = emb_->Lookup(g, item_ids);  // l x d
  if (fill) {
    memo->matcher = memo_id_;
    memo->concept_ids = concept_ids;
    memo->w_enc = g->Value(w_enc);
    memo->att_w = g->Value(att_w);
    memo->proj.resize(pyramid_.size());
  }

  // K-layer bilinear matching pyramid (Eq. 16-17): per layer, a dynamic
  // grid pool plus best-alignment statistics (the paper's per-layer CNN +
  // max-pooling): max/mean of each side's best-match scores.
  std::vector<nn::Graph::Var> layer_feats;
  layer_feats.reserve(pyramid_.size());
  for (size_t k = 0; k < pyramid_.size(); ++k) {
    nn::Graph::Var proj = hit ? stored(memo->proj[k])
                              : g->MatMul(kw, g->Use(pyramid_[k]));
    if (fill) memo->proj[k] = g->Value(proj);
    nn::Graph::Var match = g->MatMulTransB(proj, t_words);
    // Stats before the grid: see match_pyramid.h.
    nn::Graph::Var stats = BestAlignmentStats(g, match);
    layer_feats.push_back(
        g->ConcatCols({DynamicGridPool(g, match, kPoolGrid), stats}));
  }
  nn::Graph::Var ci =
      g->Tanh(pyramid_mlp_->Apply(g, g->ConcatCols(layer_feats)));

  // Final score (Eq. 18); the elementwise product gives the MLP a direct
  // similarity channel between the attended representations.
  if (!kcfg_.use_attention_channel) return head_->Apply(g, ci);
  return head_->Apply(g, g->ConcatCols({c, i, g->Mul(c, i), ci}));
}

KnowledgeResources NetKnowledge(const datagen::World& world,
                                const datagen::WorldResources& resources,
                                const kg::ConceptNet& net) {
  KnowledgeResources know;
  know.pos_tagger = &world.pos_tagger();
  know.gloss_encoder = &resources.gloss_encoder();
  know.gloss_lookup = [&resources](const std::string& w) {
    return resources.GlossOf(w);
  };
  know.concept_classes = [&net](const std::vector<std::string>& tokens) {
    std::vector<int> out;
    auto ec = net.FindEcConcept(text::JoinTokens(tokens));
    if (ec.has_value()) {
      for (kg::ConceptId p : net.PrimitivesForEc(*ec)) {
        out.push_back(static_cast<int>(net.Get(p).cls.value));
      }
    }
    return out;
  };
  know.num_classes = static_cast<int>(net.taxonomy().size());
  return know;
}

}  // namespace alicoco::matching
