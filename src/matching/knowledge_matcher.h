// The paper's knowledge-aware deep semantic matching model
// (Section 6, Figure 8).
//
// Both sides are encoded by 1-D CNNs over word+POS embeddings; a two-way
// additive attention matrix (Eq. 11-14) produces attention-weighted concept
// and item vectors c and i. The knowledge channel extends the concept side
// with gloss vectors of its words (Doc2vec substitute, Eq. 15) and class-id
// embeddings of the primitive concepts linked to the e-commerce concept; a
// K-layer bilinear matching pyramid (Eq. 16-17) between that knowledge
// sequence and the item words yields ci, and the final score is
// MLP([c; i; ci]) (Eq. 18). `use_knowledge=false` drops the gloss/class
// rows — the "Ours" vs "Ours + Knowledge" rows of Table 6.

#ifndef ALICOCO_MATCHING_KNOWLEDGE_MATCHER_H_
#define ALICOCO_MATCHING_KNOWLEDGE_MATCHER_H_

#include <functional>
#include <memory>

#include "datagen/resources.h"
#include "datagen/world.h"
#include "kg/concept_net.h"
#include "matching/neural_base.h"
#include "text/gloss_encoder.h"
#include "text/pos_tagger.h"

namespace alicoco::matching {

struct KnowledgeMatcherConfig {
  NeuralMatcherConfig base;
  bool use_knowledge = true;
  /// Ablation knob: drop the attention-weighted c/i channel (Eq. 11-14)
  /// and score from the matching pyramid alone.
  bool use_attention_channel = true;
};

/// External knowledge plumbing; pointers must outlive the matcher. The POS
/// tagger and the gloss resources are read once per vocabulary token when
/// training builds the model. concept_classes is called on every training
/// Logit, but Score keeps each thread's last concept side, so scoring calls
/// it once per run of one concept on a thread: it must give the same
/// classes for the same tokens while the matcher scores.
struct KnowledgeResources {
  const text::PosTagger* pos_tagger = nullptr;  ///< required
  /// Required when use_knowledge: gloss vectors for concept words.
  const text::GlossEncoder* gloss_encoder = nullptr;
  std::function<std::vector<std::string>(const std::string&)> gloss_lookup;
  /// Taxonomy class ids of the primitive concepts linked to a concept
  /// surface (may return {}); required when use_knowledge.
  std::function<std::vector<int>(const std::vector<std::string>&)>
      concept_classes;
  int num_classes = 0;  ///< class-embedding table size
};

/// The knowledge of `net` as the pipeline and the benches hand it to the
/// matcher: the world's POS tagger, the resources' gloss encoder and
/// GlossOf, and as a concept's classes those of the primitive concepts
/// interpreting the e-commerce concept `net` holds under its surface. All
/// three must outlive the matcher.
KnowledgeResources NetKnowledge(const datagen::World& world,
                                const datagen::WorldResources& resources,
                                const kg::ConceptNet& net);

class KnowledgeMatcher : public NeuralMatcherBase {
 public:
  KnowledgeMatcher(const KnowledgeMatcherConfig& config,
                   const KnowledgeResources& resources,
                   const text::SkipgramModel* embeddings,
                   const text::Vocabulary* corpus_vocab);
  ~KnowledgeMatcher() override;

  std::string name() const override {
    return kcfg_.use_knowledge ? "Ours + Knowledge" : "Ours";
  }

  /// How many titles' item sides the shared item table holds: one per
  /// distinct title (token ids) this matcher has scored.
  size_t items_encoded() const;

 protected:
  void BuildModel() override;
  nn::Graph::Var Logit(nn::Graph* g, const std::vector<int>& concept_ids,
                       const std::vector<int>& item_ids, bool train,
                       Rng* rng) const override;

 private:
  KnowledgeMatcherConfig kcfg_;
  KnowledgeResources res_;
  /// Process-unique, never reused: keys this matcher's entries in the
  /// per-thread concept-side memo (a freed matcher's address can repeat).
  const uint64_t memo_id_;
  /// The item side of every title scored so far, shared by every scoring
  /// thread (knowledge_matcher.cc).
  class ItemSideTable;
  std::unique_ptr<ItemSideTable> item_sides_;
  /// Filled by BuildModel, indexed by vocabulary id: POS tag ids, and
  /// gloss encodings (vocab x gloss dim; empty without knowledge).
  std::vector<int> pos_of_id_;
  nn::Tensor gloss_of_id_;

  std::unique_ptr<nn::Embedding> emb_;
  std::unique_ptr<nn::Embedding> pos_emb_;
  std::unique_ptr<nn::Conv1D> concept_cnn_;
  std::unique_ptr<nn::Conv1D> item_cnn_;
  std::unique_ptr<nn::Linear> att_w1_;
  std::unique_ptr<nn::Linear> att_w2_;
  nn::Parameter* att_v_ = nullptr;
  std::unique_ptr<nn::Linear> gloss_proj_;
  std::unique_ptr<nn::Embedding> class_emb_;
  std::vector<nn::Parameter*> pyramid_;  // K bilinear maps d x d
  std::unique_ptr<nn::Mlp> pyramid_mlp_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace alicoco::matching

#endif  // ALICOCO_MATCHING_KNOWLEDGE_MATCHER_H_
