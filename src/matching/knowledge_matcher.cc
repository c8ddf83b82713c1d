#include "matching/knowledge_matcher.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "matching/match_pyramid.h"

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

}  // namespace

KnowledgeMatcher::KnowledgeMatcher(const KnowledgeMatcherConfig& config,
                                   const KnowledgeResources& resources,
                                   const text::SkipgramModel* embeddings,
                                   const text::Vocabulary* corpus_vocab)
    : NeuralMatcherBase(config.base, embeddings, corpus_vocab),
      kcfg_(config),
      res_(resources),
      memo_id_(NextMemoId()) {
  ALICOCO_CHECK(res_.pos_tagger != nullptr) << "POS tagger required";
  ALICOCO_CHECK_GT(kcfg_.cnn_filters, 0);
  ALICOCO_CHECK_GT(kcfg_.cnn_window, 0);
  ALICOCO_CHECK_GT(kcfg_.pos_dim, 0);
  ALICOCO_CHECK_GT(kcfg_.pyramid_layers, 0);
  ALICOCO_CHECK_GT(kcfg_.pool_grid, 0);
  if (kcfg_.use_knowledge) {
    ALICOCO_CHECK(res_.gloss_encoder != nullptr && res_.gloss_lookup &&
                  res_.concept_classes && res_.num_classes > 0)
        << "use_knowledge requires gloss and class resources";
  }
}

void KnowledgeMatcher::BuildModel() {
  int d = config_.embed_dim;
  int f = kcfg_.cnn_filters;
  emb_ = MakeEmbedding("emb");
  pos_emb_ = std::make_unique<nn::Embedding>(
      &store_, "pos_emb", text::kNumPosTags, kcfg_.pos_dim, &init_rng_);
  int in_dim = d + kcfg_.pos_dim;
  concept_cnn_ = std::make_unique<nn::Conv1D>(&store_, "concept_cnn", in_dim,
                                              f, kcfg_.cnn_window,
                                              &init_rng_);
  item_cnn_ = std::make_unique<nn::Conv1D>(&store_, "item_cnn", in_dim, f,
                                           kcfg_.cnn_window, &init_rng_);
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
  for (int k = 0; k < kcfg_.pyramid_layers; ++k) {
    // Near-identity init: layer 0 starts as a plain dot-product matrix (the
    // MatchPyramid interaction); later layers perturb it so the K layers
    // learn distinct similarity facets.
    nn::Parameter* wk = store_.Create("pyramid" + std::to_string(k), d, d,
                                      nn::ParameterStore::Init::kGaussian,
                                      &init_rng_, 0.02f * (k + 1));
    for (int j = 0; j < d; ++j) wk->value.At(j, j) += 1.0f;
    pyramid_.push_back(wk);
  }
  int grid_feats = kcfg_.pool_grid * kcfg_.pool_grid + 4;
  pyramid_mlp_ = std::make_unique<nn::Mlp>(
      &store_, "pyramid_mlp",
      std::vector<int>{kcfg_.pyramid_layers * grid_feats, config_.hidden},
      &init_rng_);
  int head_in = config_.hidden + (kcfg_.use_attention_channel ? 3 * f : 0);
  head_ = std::make_unique<nn::Mlp>(
      &store_, "head", std::vector<int>{head_in, config_.hidden, 1},
      &init_rng_);
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
  // miss. A recording graph always builds the concept side, with its nodes
  // in the order below: Backward sums the shared gradients (emb_ is read
  // four times, w_enc twice) in reverse node order.
  ConceptMemo* memo =
      g->forward_only() && !train ? &tls_concept_memo : nullptr;
  const bool hit = memo != nullptr && memo->matcher == memo_id_ &&
                   memo->concept_ids == concept_ids;
  const bool fill = memo != nullptr && !hit;
  auto stored = [g](const nn::Tensor& value) {
    return g->Input(nn::Tensor(value, g->arena()));
  };

  nn::Graph::Var w_enc = hit ? stored(memo->w_enc)  // m x f
                             : encode_side(concept_ids, *concept_cnn_);
  nn::Graph::Var t_enc = encode_side(item_ids, *item_cnn_);  // l x f

  // Two-way additive attention (Eq. 11-14). Its three inputs keep the node
  // order they had as the arguments of one call, which GCC evaluates last
  // first.
  nn::Graph::Var att_v = g->Use(att_v_);
  nn::Graph::Var att_t = att_w2_->Apply(g, t_enc);
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
        g->ConcatCols({DynamicGridPool(g, match, kcfg_.pool_grid), stats}));
  }
  nn::Graph::Var ci =
      g->Tanh(pyramid_mlp_->Apply(g, g->ConcatCols(layer_feats)));

  // Final score (Eq. 18); the elementwise product gives the MLP a direct
  // similarity channel between the attended representations.
  if (!kcfg_.use_attention_channel) return head_->Apply(g, ci);
  return head_->Apply(g, g->ConcatCols({c, i, g->Mul(c, i), ci}));
}

}  // namespace alicoco::matching
