#include "matching/neural_base.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "nn/serialize.h"

namespace alicoco::matching {

NeuralMatcherBase::NeuralMatcherBase(const NeuralMatcherConfig& config,
                                     const text::SkipgramModel* embeddings,
                                     const text::Vocabulary* corpus_vocab)
    : config_(config),
      pretrained_(embeddings),
      corpus_vocab_(corpus_vocab),
      init_rng_(config.seed) {
  if (pretrained_ != nullptr) {
    ALICOCO_CHECK(corpus_vocab_ != nullptr);
    ALICOCO_CHECK(pretrained_->dim() == config_.embed_dim)
        << "pretrained dim mismatch";
  }
}

std::unique_ptr<nn::Embedding> NeuralMatcherBase::MakeEmbedding(
    const std::string& name) {
  auto emb = std::make_unique<nn::Embedding>(
      &store_, name, vocab_.size(), config_.embed_dim, &init_rng_);
  if (pretrained_ != nullptr) {
    nn::Parameter* table = emb->parameter();
    for (int wid = 2; wid < vocab_.size(); ++wid) {
      int cid = corpus_vocab_->Id(vocab_.Token(wid));
      if (cid <= text::Vocabulary::kUnkId ||
          cid >= pretrained_->vocab_size()) {
        continue;
      }
      const float* e = pretrained_->Embedding(cid);
      for (int k = 0; k < config_.embed_dim; ++k) {
        table->value.At(wid, k) = e[k];
      }
    }
  }
  return emb;
}

std::vector<int> NeuralMatcherBase::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<int> ids = vocab_.Encode(tokens);
  if (ids.empty()) ids.push_back(text::Vocabulary::kUnkId);
  return ids;
}

void NeuralMatcherBase::EnableQuantizedInference(nn::quant::QuantMode mode) {
  ALICOCO_CHECK(trained_) << name()
                          << ": EnableQuantizedInference before Train";
  if (mode == nn::quant::QuantMode::kNone) {
    DetachQuantizedWeights();
    qstore_ = nn::quant::QuantizedStore();
    qmode_ = mode;
    return;
  }
  // Detach first: re-enabling with a different mode must not leave layers
  // pointing into the store being replaced.
  DetachQuantizedWeights();
  nn::quant::QuantPlan plan;
  CollectQuantPlan(&plan);
  ALICOCO_CHECK(!plan.empty()) << name() << ": empty quantization plan";
  qstore_ = nn::quant::QuantizeParams(store_, plan, mode);
  AttachQuantizedWeights(qstore_);
  qmode_ = mode;
  ALICOCO_LOG(Info) << name() << ": quantized inference enabled, mode="
                    << nn::quant::QuantModeName(mode) << ", "
                    << qstore_.quantized().size() << " tensors, "
                    << qstore_.TotalBytes() << " bytes";
}

Status NeuralMatcherBase::SaveQuantized(const std::string& path) const {
  if (qmode_ == nn::quant::QuantMode::kNone) {
    return Status::InvalidArgument(
        std::string(name()) + ": no quantized weights to save (call "
                              "EnableQuantizedInference first)");
  }
  return nn::SaveQuantizedStore(qstore_, path);
}

Status NeuralMatcherBase::LoadQuantizedInference(const std::string& path) {
  if (!trained_) {
    return Status::FailedPrecondition(
        std::string(name()) + ": LoadQuantizedInference before Train (layer "
                              "shapes come from training)");
  }
  nn::quant::QuantizedStore loaded;
  Status s = nn::LoadQuantizedStore(&loaded, path);
  if (!s.ok()) return s;
  // Validate before touching any state: every parameter must appear in the
  // file exactly once, in the section the plan puts it in.
  nn::quant::QuantPlan plan;
  CollectQuantPlan(&plan);
  size_t expect_quantized = 0;
  for (const auto& p : store_.params()) {
    bool planned = false;
    for (const auto& entry : plan) {
      if (entry.param == p.get()) {
        planned = true;
        break;
      }
    }
    if (planned) {
      ++expect_quantized;
      if (loaded.FindQuantized(p->name) == nullptr) {
        return Status::InvalidArgument("missing quantized tensor for " +
                                       p->name + " in " + path);
      }
      continue;
    }
    const nn::Tensor* fp = loaded.FindFp32(p->name);
    if (fp == nullptr) {
      return Status::InvalidArgument("missing fp32 tensor for " + p->name +
                                     " in " + path);
    }
    if (fp->rows() != p->value.rows() || fp->cols() != p->value.cols()) {
      return Status::InvalidArgument("shape mismatch for " + p->name +
                                     " in " + path);
    }
  }
  if (loaded.quantized().size() != expect_quantized ||
      loaded.fp32().size() != store_.params().size() - expect_quantized) {
    return Status::InvalidArgument("tensor count mismatch in " + path +
                                   " (wrong checkpoint for this model?)");
  }
  DetachQuantizedWeights();
  // The passthrough entries carry the checkpoint's biases etc.; copy them
  // into the live parameters so fp32-side compute matches the save.
  for (const auto& p : store_.params()) {
    const nn::Tensor* fp = loaded.FindFp32(p->name);
    if (fp != nullptr) p->value = *fp;
  }
  qstore_ = std::move(loaded);
  AttachQuantizedWeights(qstore_);  // CHECKs quantized shapes
  qmode_ = qstore_.mode();
  return Status::OK();
}

void NeuralMatcherBase::Train(const MatchingDataset& dataset) {
  ALICOCO_CHECK(!trained_);
  ALICOCO_CHECK(qmode_ == nn::quant::QuantMode::kNone)
      << name() << ": cannot train while quantized inference is enabled";
  ALICOCO_CHECK(!dataset.train.empty());
  for (const auto& ex : dataset.train) {
    for (const auto& t : ex.concept_tokens) vocab_.Add(t);
    for (const auto& t : ex.item_tokens) vocab_.Add(t);
  }
  ObserveVocabulary();
  BuildModel();

  nn::Adam adam(config_.lr);
  Rng rng(config_.seed ^ 0xBEAD);
  std::vector<size_t> order(dataset.train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    store_.ZeroGrad();
    int in_batch = 0;
    for (size_t idx : order) {
      const auto& ex = dataset.train[idx];
      nn::Graph g;
      nn::Graph::Var logit = Logit(&g, Encode(ex.concept_tokens),
                                   Encode(ex.item_tokens), true, &rng);
      nn::Tensor target(1, 1);
      target.At(0, 0) = static_cast<float>(ex.label);
      g.Backward(g.SigmoidCrossEntropyWithLogits(logit, target));
      if (++in_batch >= config_.batch_size) {
        adam.Step(&store_);
        store_.ZeroGrad();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      adam.Step(&store_);
      store_.ZeroGrad();
    }
  }
  trained_ = true;
}

double NeuralMatcherBase::Score(const std::vector<std::string>& concept_tokens,
                                const std::vector<std::string>& item_tokens,
                                int64_t item_id) const {
  (void)item_id;
  ALICOCO_CHECK(trained_) << name() << " scored before Train";
  std::chrono::steady_clock::time_point start;
  if (score_latency_us_ != nullptr) start = std::chrono::steady_clock::now();
  nn::Graph g(nn::Graph::kForwardOnly);
  nn::Graph::Var logit =
      Logit(&g, Encode(concept_tokens), Encode(item_tokens), false, nullptr);
  float x = g.Value(logit).At(0, 0);
  double score = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
  if (score_latency_us_ != nullptr) {
    score_latency_us_->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return score;
}

}  // namespace alicoco::matching
