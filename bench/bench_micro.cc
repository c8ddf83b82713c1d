// Substrate micro-benchmarks (google-benchmark): the hot paths every
// harness exercises — GEMM kernels, graph ops, CRF lattices, the matcher's
// pyramid layer, BM25 scoring, segmenter matching, and concept-net queries.
//
// Besides the interactive google-benchmark mode, `--kernels-out FILE` runs
// a fixed kernel smoke suite and writes BENCH_kernels.json (each entry the
// median of five timings); adding
// `--baseline FILE [--max-regress X] [--slack-us US]` turns the run into a
// regression gate against the committed baseline (tools/ci.sh).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "kg/concept_net.h"
#include "matching/match_pyramid.h"
#include "nn/crf.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "nn/trainer.h"
#include "text/bm25.h"
#include "text/segmenter.h"

namespace {

using namespace alicoco;

// ---- GEMM kernels: blocked vs naive reference ----

void BM_GemmBlocked(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(41);
  nn::Tensor a = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor c(n, n);
  for (auto _ : state) {
    nn::kernels::GemmAccum(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmBlocked)->Arg(24)->Arg(64)->Arg(192);

void BM_GemmNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(41);
  nn::Tensor a = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor c(n, n);
  for (auto _ : state) {
    nn::kernels::naive::GemmAccum(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(24)->Arg(64)->Arg(192);

// Fused affine+tanh (one node) vs the composed op chain it replaced.
void BM_AffineTanhFused(benchmark::State& state) {
  Rng rng(42);
  nn::ParameterStore store;
  nn::Linear fc(&store, "fc", 24, 24, &rng);
  nn::Tensor x = nn::Tensor::Randn(16, 24, 0.5f, &rng);
  for (auto _ : state) {
    store.ZeroGrad();
    nn::Graph g;
    g.Backward(g.MeanAll(fc.ApplyTanh(&g, g.Input(x))));
  }
}
BENCHMARK(BM_AffineTanhFused);

void BM_AffineTanhUnfused(benchmark::State& state) {
  Rng rng(42);
  nn::ParameterStore store;
  nn::Parameter* w = store.Create("w", 24, 24,
                                  nn::ParameterStore::Init::kXavier, &rng);
  nn::Parameter* b = store.Create("b", 1, 24,
                                  nn::ParameterStore::Init::kZero, nullptr);
  nn::Tensor x = nn::Tensor::Randn(16, 24, 0.5f, &rng);
  for (auto _ : state) {
    store.ZeroGrad();
    nn::Graph g;
    nn::Graph::Var h =
        g.Tanh(g.Add(g.MatMul(g.Input(x), g.Use(w)), g.Use(b)));
    g.Backward(g.MeanAll(h));
  }
}
BENCHMARK(BM_AffineTanhUnfused);

// One 32-example batch through nn::Train: the example graphs, their shards
// over `pool` (null: the calling thread), the reduction and the Adam step.
void TrainBatch(nn::ParameterStore* store, const nn::Mlp& mlp,
                const std::vector<nn::Tensor>& xs, ThreadPool* pool) {
  nn::Train(store, xs.size(),
            {.model = "bench",
             .epochs = 1,
             .lr = 0.01f,
             .batch_size = static_cast<int>(xs.size()),
             .seed = 43,
             .example_rng = nn::ExampleRng::kPerExample,
             .pool = pool},
            [&](nn::Graph* g, size_t i,
                Rng*) -> std::optional<nn::Graph::Var> {
              return g->MeanAll(mlp.Apply(g, g->Input(xs[i])));
            });
}

// Data-parallel batch accumulation across a worker pool.
void BM_ParallelTrainBatch(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  Rng rng(43);
  nn::ParameterStore store;
  nn::Mlp mlp(&store, "mlp", {24, 24, 1}, &rng);
  std::vector<nn::Tensor> xs;
  for (int i = 0; i < 32; ++i) {
    xs.push_back(nn::Tensor::Randn(1, 24, 0.5f, &rng));
  }
  ThreadPool pool(static_cast<size_t>(threads));
  for (auto _ : state) {
    TrainBatch(&store, mlp, xs, threads > 0 ? &pool : nullptr);
    benchmark::DoNotOptimize(store.params()[0]->value.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_ParallelTrainBatch)->Arg(0)->Arg(2)->Arg(4);

void BM_MatMul(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMulValue(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64);

void BM_BiLstmForwardBackward(benchmark::State& state) {
  int t = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::ParameterStore store;
  nn::BiLstm bilstm(&store, "b", 24, 24, &rng);
  nn::Tensor x = nn::Tensor::Randn(t, 24, 0.5f, &rng);
  for (auto _ : state) {
    store.ZeroGrad();
    nn::Graph g;
    g.Backward(g.MeanAll(bilstm.Run(&g, g.Input(x))));
  }
  state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_BiLstmForwardBackward)->Arg(8)->Arg(24);

void BM_CrfLoss(benchmark::State& state) {
  int labels = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::ParameterStore store;
  nn::LinearChainCrf crf(&store, "crf", labels, &rng);
  nn::Tensor e = nn::Tensor::Randn(12, labels, 0.5f, &rng);
  std::vector<int> gold(12);
  for (size_t i = 0; i < gold.size(); ++i) {
    gold[i] = static_cast<int>(i) % labels;
  }
  for (auto _ : state) {
    store.ZeroGrad();
    nn::Graph g;
    g.Backward(crf.NegLogLikelihood(&g, g.Input(e), gold));
  }
}
BENCHMARK(BM_CrfLoss)->Arg(5)->Arg(23);

void BM_CrfViterbi(benchmark::State& state) {
  Rng rng(4);
  nn::ParameterStore store;
  nn::LinearChainCrf crf(&store, "crf", 23, &rng);
  nn::Tensor e = nn::Tensor::Randn(12, 23, 0.5f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Viterbi(e));
  }
}
BENCHMARK(BM_CrfViterbi);

void BM_Bm25TopK(benchmark::State& state) {
  Rng rng(5);
  text::Bm25Index index;
  std::vector<std::string> vocab;
  for (int i = 0; i < 500; ++i) vocab.push_back("w" + std::to_string(i));
  for (int d = 0; d < 2000; ++d) {
    std::vector<std::string> doc;
    for (int j = 0; j < 8; ++j) {
      doc.push_back(vocab[rng.Zipf(vocab.size(), 1.1)]);
    }
    index.AddDocument(d, doc);
  }
  index.Finalize();
  std::vector<std::string> query = {vocab[3], vocab[17], vocab[140]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopK(query, 10));
  }
}
BENCHMARK(BM_Bm25TopK);

void BM_SegmenterMatch(benchmark::State& state) {
  Rng rng(6);
  text::MaxMatchSegmenter segmenter;
  for (int i = 0; i < 3000; ++i) {
    segmenter.AddPhrase({"c" + std::to_string(i)}, "Category");
    if (i % 3 == 0) {
      segmenter.AddPhrase({"m" + std::to_string(i), "c" + std::to_string(i)},
                          "Category");
    }
  }
  std::vector<std::string> sentence;
  for (int j = 0; j < 12; ++j) {
    int id = static_cast<int>(rng.Uniform(3000));
    sentence.push_back((j % 2 ? "m" : "c") + std::to_string(id));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Match(sentence));
  }
}
BENCHMARK(BM_SegmenterMatch);

void BM_ConceptNetQueries(benchmark::State& state) {
  kg::ConceptNet net;
  kg::ClassId category = *net.taxonomy().AddDomain("Category");
  std::vector<kg::ConceptId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(
        *net.GetOrAddPrimitiveConcept("c" + std::to_string(i), category));
    if (i > 0) (void)net.AddIsA(ids[i], ids[i / 2]);  // binary-ish tree
  }
  Rng rng(7);
  for (auto _ : state) {
    kg::ConceptId id = ids[rng.Uniform(ids.size())];
    benchmark::DoNotOptimize(net.HypernymClosure(id));
  }
}
BENCHMARK(BM_ConceptNetQueries);

// ---- kernel smoke suite (BENCH_kernels.json) ----
//
// A fixed, deterministic set of kernel timings written as
//
//   {
//     "schema": "alicoco.bench_kernels.v1",
//     "entries": [
//       {"name": "gemm_blocked_64", "us_per_iter": 12.3},
//       ...
//     ]
//   }
//
// The file is emitted one entry per line and read back line-wise by the
// --baseline gate, so writer and parser live in this one file.

double TimeUsPerIter(const std::function<void()>& fn) {
  fn();  // warmup: first-touch pages, build vocab caches, etc.
  long iters = 1;
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < iters; ++i) fn();
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (us >= 20000.0) return us / static_cast<double>(iters);
    iters *= 4;
  }
}

// Each entry is the median of this many timings, so one host slow spell
// cannot fail the gate on its own.
constexpr int kKernelReps = 5;

double MedianUsPerIter(const std::function<void()>& fn) {
  std::vector<double> us;
  for (int rep = 0; rep < kKernelReps; ++rep) us.push_back(TimeUsPerIter(fn));
  std::nth_element(us.begin(), us.begin() + kKernelReps / 2, us.end());
  return us[kKernelReps / 2];
}

std::vector<std::pair<std::string, double>> RunKernelSuite() {
  std::vector<std::pair<std::string, double>> out;
  auto add = [&](const std::string& name, const std::function<void()>& fn) {
    out.emplace_back(name, MedianUsPerIter(fn));
    std::printf("  %-28s %10.2f us/iter\n", name.c_str(), out.back().second);
  };

  Rng rng(51);
  // Square GEMMs: blocked vs the naive reference, plus the 1-row LSTM
  // shape that dominates the pipeline's call profile.
  nn::Tensor a64 = nn::Tensor::Randn(64, 64, 1.0f, &rng);
  nn::Tensor b64 = nn::Tensor::Randn(64, 64, 1.0f, &rng);
  nn::Tensor c64(64, 64);
  add("gemm_blocked_64", [&] {
    nn::kernels::GemmAccum(64, 64, 64, a64.data(), b64.data(), c64.data());
  });
  add("gemm_naive_64", [&] {
    nn::kernels::naive::GemmAccum(64, 64, 64, a64.data(), b64.data(),
                                  c64.data());
  });
  nn::Tensor a1 = nn::Tensor::Randn(1, 24, 1.0f, &rng);
  nn::Tensor b1 = nn::Tensor::Randn(24, 96, 1.0f, &rng);
  nn::Tensor c1(1, 96);
  add("gemm_blocked_1x24x96", [&] {
    nn::kernels::GemmAccum(1, 24, 96, a1.data(), b1.data(), c1.data());
  });
  add("gemm_transb_16x64x64", [&] {
    nn::kernels::GemmTransBAccum(16, 64, 64, a64.data(), b64.data(),
                                 c64.data());
  });
  add("gemm_transa_16x64x64", [&] {
    nn::kernels::GemmTransAAccum(16, 64, 64, a64.data(), b64.data(),
                                 c64.data());
  });

  // The portable tier, pinned explicitly (the dispatched entries above use
  // whatever tier CPUID picked; this one is comparable across hosts).
  nn::kernels::ForceScalarKernels(true);
  add("gemm_scalar_64", [&] {
    nn::kernels::GemmAccum(64, 64, 64, a64.data(), b64.data(), c64.data());
  });
  nn::kernels::ForceScalarKernels(false);

  // AVX2 tier, invoked directly through its table: emitted only where the
  // host can run it (the baseline gate skips these entries elsewhere).
  if (nn::kernels::KernelsHaveAvx2()) {
    const nn::kernels::KernelDispatch* simd = nn::kernels::avx2::Table();
    add("gemm_avx2_64", [&] {
      simd->gemm(64, 64, 64, a64.data(), b64.data(), c64.data());
    });
    add("gemm_avx2_transb_16x64x64", [&] {
      simd->gemm_transb(16, 64, 64, a64.data(), b64.data(), c64.data());
    });
    add("gemm_avx2_transa_16x64x64", [&] {
      simd->gemm_transa(16, 64, 64, a64.data(), b64.data(), c64.data());
    });
  }

  // Fused graph ops, forward + backward.
  {
    nn::ParameterStore store;
    nn::Linear fc(&store, "fc", 24, 24, &rng);
    nn::Tensor x = nn::Tensor::Randn(16, 24, 0.5f, &rng);
    add("affine_tanh_fused_16x24", [&] {
      store.ZeroGrad();
      nn::Graph g;
      g.Backward(g.MeanAll(fc.ApplyTanh(&g, g.Input(x))));
    });
  }
  {
    nn::ParameterStore store;
    nn::BiLstm bilstm(&store, "b", 24, 24, &rng);
    nn::Tensor x = nn::Tensor::Randn(16, 24, 0.5f, &rng);
    add("bilstm_fb_t16_d24", [&] {
      store.ZeroGrad();
      nn::Graph g;
      g.Backward(g.MeanAll(bilstm.Run(&g, g.Input(x))));
    });
  }
  {
    nn::ParameterStore store;
    nn::LinearChainCrf crf(&store, "crf", 23, &rng);
    nn::Tensor e = nn::Tensor::Randn(12, 23, 0.5f, &rng);
    std::vector<int> gold(12);
    for (size_t i = 0; i < gold.size(); ++i) {
      gold[i] = static_cast<int>(i) % 23;
    }
    add("crf_nll_L23_T12", [&] {
      store.ZeroGrad();
      nn::Graph g;
      g.Backward(crf.NegLogLikelihood(&g, g.Input(e), gold));
    });
  }
  // One training step in the mining labeler's shape (sequence_labeler.cc):
  // embeddings -> BiLSTM -> projection -> CRF loss of a 6-token sentence,
  // forward and backward in a warm graph arena.
  {
    nn::ParameterStore store;
    nn::Embedding emb(&store, "emb", 500, 24, &rng);
    nn::BiLstm bilstm(&store, "bilstm", 24, 24, &rng);
    nn::Linear proj(&store, "proj", 48, 9, &rng);
    nn::LinearChainCrf crf(&store, "crf", 9, &rng);
    const std::vector<int> ids = {3, 41, 7, 250, 99, 12};
    const std::vector<int> gold = {0, 1, 2, 0, 3, 4};
    add("lstm_crf_train_step", [&] {
      store.ZeroGrad();
      nn::Graph g;
      nn::Graph::Var emissions =
          proj.Apply(&g, bilstm.Run(&g, emb.Lookup(&g, ids)));
      g.Backward(crf.NegLogLikelihood(&g, emissions, gold));
    });
  }
  // The optimizer's per-batch sweep over about the labeler's 24 k weights.
  {
    const int n = 24 * 1024;
    nn::Tensor grad = nn::Tensor::Randn(1, n, 0.1f, &rng);
    nn::Tensor m(1, n), v(1, n);
    nn::Tensor w = nn::Tensor::Randn(1, n, 0.1f, &rng);
    const float beta1 = 0.9f, beta2 = 0.999f;
    const nn::kernels::AdamCoeffs coeffs{
        beta1, 1.0f - beta1, beta2, 1.0f - beta2,
        1.0f - beta1, 1.0f - beta2, 1e-3f, 1e-8f};
    add("adam_update_24k", [&] {
      nn::kernels::AdamUpdate(grad.size(), grad.data(), m.data(), v.data(),
                              w.data(), coeffs);
    });
  }

  // The dispatched tanh over 1,024 values in [-4, 4], and the additive
  // attention of Eq. 11 forward-only at the stage-7 scorer's mean shape
  // (3 concept tokens x 6 title tokens, width 24), which runs it on m*l*d
  // values per call.
  {
    nn::Tensor x(1, 1024), y(1, 1024);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = -4.0f + 8.0f * static_cast<float>(i) / 1023.0f;
    }
    add("tanh_1k", [&] {
      nn::kernels::Tanh(x.size(), x.data(), y.data());
      benchmark::DoNotOptimize(y.data());
    });
    Rng att_rng(52);
    nn::ParameterStore store;
    nn::Parameter* a = store.Create(
        "a", 3, 24, nn::ParameterStore::Init::kGaussian, &att_rng, 0.5f);
    nn::Parameter* b = store.Create(
        "b", 6, 24, nn::ParameterStore::Init::kGaussian, &att_rng, 0.5f);
    nn::Parameter* v = store.Create(
        "v", 24, 1, nn::ParameterStore::Init::kGaussian, &att_rng, 0.5f);
    add("additive_attention_fwd_3x6x24", [&] {
      nn::Graph g(nn::Graph::kForwardOnly);
      nn::Graph::Var att = g.AdditiveAttention(g.Use(a), g.Use(b), g.Use(v));
      benchmark::DoNotOptimize(g.Value(att).data());
    });
  }

  // One knowledge-matcher pyramid layer (matching/knowledge_matcher.cc):
  // the 8 x 6 match matrix of an 8-row knowledge sequence against a 6-word
  // title, then its best-alignment stats and 3 x 3 grid pool. Forward-only
  // as in Score, and forward + backward as in training.
  {
    nn::ParameterStore store;
    nn::Parameter* kw = store.Create(
        "kw", 8, 20, nn::ParameterStore::Init::kGaussian, &rng, 0.5f);
    nn::Parameter* title = store.Create(
        "title", 6, 20, nn::ParameterStore::Init::kGaussian, &rng, 0.5f);
    auto layer = [&](nn::Graph* g) {
      nn::Graph::Var match = g->MatMulTransB(g->Use(kw), g->Use(title));
      nn::Graph::Var stats = matching::BestAlignmentStats(g, match);
      return g->ConcatCols({matching::DynamicGridPool(g, match, 3), stats});
    };
    add("pyramid_layer_fwd_8x6", [&] {
      nn::Graph g(nn::Graph::kForwardOnly);
      benchmark::DoNotOptimize(g.Value(layer(&g)).data());
    });
    add("pyramid_layer_fb_8x6", [&] {
      store.ZeroGrad();
      nn::Graph g;
      g.Backward(g.MeanAll(layer(&g)));
    });
  }

  // One training batch through nn::Train: sequential path and a 2-worker
  // pool, which runs the batch's four shards two at a time (the pooled
  // entry measures sharding + reduction overhead on single-core CI boxes,
  // and real speedup where cores exist).
  {
    nn::ParameterStore store;
    nn::Mlp mlp(&store, "mlp", {24, 24, 1}, &rng);
    std::vector<nn::Tensor> xs;
    for (int i = 0; i < 32; ++i) {
      xs.push_back(nn::Tensor::Randn(1, 24, 0.5f, &rng));
    }
    add("train_batch32_seq", [&] { TrainBatch(&store, mlp, xs, nullptr); });
    ThreadPool pool(2);
    add("train_batch32_pool2", [&] { TrainBatch(&store, mlp, xs, &pool); });
  }
  return out;
}

bool WriteKernelProfile(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& entries) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return false;
  out << "{\n  \"schema\": \"alicoco.bench_kernels.v1\",\n  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << "    {\"name\": \"" << entries[i].first
        << "\", \"us_per_iter\": " << entries[i].second << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

// Line-wise parse of the format WriteKernelProfile emits.
bool ReadKernelProfile(const std::string& path,
                       std::vector<std::pair<std::string, double>>* entries) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::string line;
  bool saw_schema = false;
  while (std::getline(in, line)) {
    if (line.find("alicoco.bench_kernels.v1") != std::string::npos) {
      saw_schema = true;
    }
    size_t np = line.find("\"name\": \"");
    size_t up = line.find("\"us_per_iter\": ");
    if (np == std::string::npos || up == std::string::npos) continue;
    np += std::strlen("\"name\": \"");
    size_t ne = line.find('"', np);
    if (ne == std::string::npos) continue;
    double us = std::strtod(line.c_str() + up + std::strlen("\"us_per_iter\": "),
                            nullptr);
    entries->emplace_back(line.substr(np, ne - np), us);
  }
  return saw_schema && !entries->empty();
}

int KernelSmokeMain(const std::string& out_path, const std::string& baseline,
                    double max_regress, double slack_us) {
  std::printf("== bench_micro: kernel smoke suite ==\n");
  auto entries = RunKernelSuite();
  if (!WriteKernelProfile(out_path, entries)) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu entries)\n", out_path.c_str(), entries.size());
  if (baseline.empty()) return 0;

  std::vector<std::pair<std::string, double>> base;
  if (!ReadKernelProfile(baseline, &base)) {
    std::fprintf(stderr, "bench_micro: bad baseline %s\n", baseline.c_str());
    return 1;
  }
  int failures = 0;
  for (const auto& [name, base_us] : base) {
    const std::pair<std::string, double>* cur = nullptr;
    for (const auto& e : entries) {
      if (e.first == name) cur = &e;
    }
    if (cur == nullptr) {
      // Baselines are recorded on AVX2 hardware; a host that cannot run
      // that tier skips those entries instead of failing the gate.
      if (name.find("avx2") != std::string::npos &&
          !nn::kernels::KernelsHaveAvx2()) {
        std::printf("SKIP: kernel '%s' (host has no AVX2)\n", name.c_str());
        continue;
      }
      std::fprintf(stderr, "REGRESSION: kernel '%s' missing from this run\n",
                   name.c_str());
      ++failures;
      continue;
    }
    double limit = base_us * max_regress + slack_us;
    if (cur->second > limit) {
      std::fprintf(stderr,
                   "REGRESSION: kernel '%s': %.2fus > limit %.2fus "
                   "(baseline %.2fus x %.2g + %.0fus slack)\n",
                   name.c_str(), cur->second, limit, base_us, max_regress,
                   slack_us);
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("kernel gate passed (max-regress %.1fx, slack %.0fus)\n",
              max_regress, slack_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Kernel smoke mode; anything else falls through to google-benchmark.
  std::string kernels_out, baseline;
  double max_regress = 2.0, slack_us = 200.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--kernels-out") {
      kernels_out = value();
    } else if (arg == "--baseline") {
      baseline = value();
    } else if (arg == "--max-regress") {
      max_regress = std::strtod(value(), nullptr);
    } else if (arg == "--slack-us") {
      slack_us = std::strtod(value(), nullptr);
    }
  }
  if (!kernels_out.empty()) {
    return KernelSmokeMain(kernels_out, baseline, max_regress, slack_us);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
