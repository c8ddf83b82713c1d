// perfbench: the benchmark program behind BENCHMARK.json (see README.md in
// this directory for the workloads, the metrics and what each per-layer
// metric should move).
//
//   perfbench --workload build|rank_pages|app_queries --seed N
//             --seconds S --trace 0|1 --reference FILE
//             --benchmark BENCHMARK.json --workdir DIR
//
// Every run sets up (world, resources, and the workload's own model or
// snapshot) and draws its traffic from the seed (build's input is fixed,
// and build runs on one CPU; README.md says why), then measures for S
// seconds with every probe off: no heap hook (this binary does not link
// it), no lock-stats sink, null tracer, metrics and stage profiler in
// PipelineConfig, apps built with metrics = nullptr, no score-latency
// histogram on the matcher. With --trace 1 the timing pass takes S/2 and a
// traced pass with the probes on takes the other S/2, and the run reports
// per-layer numbers instead of end-to-end ones. Every output is checked; a
// failed check counts as a failed operation and makes the exit code 1.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sched.h>

#include "apps/question_answering.h"
#include "apps/recommender.h"
#include "apps/search_relevance.h"
#include "bench/bench_util.h"
#include "common/lock_stats.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "kg/persistence.h"
#include "matching/dataset.h"
#include "matching/knowledge_matcher.h"
#include "nn/kernels.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof/heap_stats.h"
#include "obs/trace.h"
#include "pipeline/builder.h"

namespace alicoco::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;
// Closed-loop clients: one per two cores, at most this many, so that
// figures from hosts with more cores stay comparable. With one client per
// core the tail latency measured the host's scheduler: on a shared 4-vCPU
// host, 4 clients put rank_pages' p99 spread between runs at 54-94 % of
// its median.
constexpr unsigned kMaxClients = 4;
// rank_pages: candidates per page, kept items per page, distinct pages.
constexpr size_t kPageCandidates = 150;
constexpr size_t kPageTopK = 12;
constexpr size_t kDistinctPages = 1024;
constexpr size_t kPrecisionPages = 256;
// app_queries: search candidates per query, recommendation shape.
constexpr size_t kSearchCandidates = 80;
constexpr size_t kSearchQueries = 64;
constexpr size_t kCards = 3;
constexpr size_t kItemsPerCard = 4;

struct Options {
  std::string workload;
  uint64_t seed = 2020;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string benchmark;
  std::string workdir = ".";
};

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---- digests (FNV-1a 64) ----

class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t v) {
  return StringPrintf("%016llx", static_cast<unsigned long long>(v));
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::optional<uint64_t> FileDigest(const std::string& path) {
  std::optional<std::string> bytes = ReadFile(path);
  if (!bytes.has_value()) return std::nullopt;
  Digest d;
  d.Bytes(bytes->data(), bytes->size());
  return d.value();
}

/// Saves `net` to `path` and returns the digest of the snapshot bytes.
std::optional<uint64_t> SnapshotDigest(const kg::ConceptNet& net,
                                       const std::string& path) {
  if (!kg::SaveConceptNet(net, path).ok()) return std::nullopt;
  return FileDigest(path);
}

// ---- result ----

/// Metric values by name; BENCHMARK.json gives their order and units.
using Values = std::map<std::string, double>;

/// Why the checks of one operation failed.
using Failures = std::vector<std::string>;

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Failures check_failures;
  Values values;

  /// Records one failed operation with every check it failed.
  void Fail(const Failures& why) {
    check_failures.insert(check_failures.end(), why.begin(), why.end());
    ++failed;
  }
};

/// A metric BENCHMARK.json lists: name and unit.
struct Listed {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json lists under `key` ("end_to_end" or
/// "per_layer"), in order.
Result<std::vector<Listed>> ListedMetrics(const std::string& benchmark_json,
                                          const std::string& key) {
  std::optional<std::string> text = ReadFile(benchmark_json);
  if (!text.has_value()) {
    return Status::NotFound("cannot read " + benchmark_json);
  }
  ALICOCO_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ParseJson(*text));
  const obs::JsonValue* list = root.Find(key);
  if (list == nullptr) return Status::Corruption("no " + key + " list");
  std::vector<Listed> out;
  for (const obs::JsonValue& m : list->array) {
    ALICOCO_ASSIGN_OR_RETURN(std::string name,
                             obs::JsonRequireString(m, "name"));
    ALICOCO_ASSIGN_OR_RETURN(std::string unit,
                             obs::JsonRequireString(m, "unit"));
    out.push_back({name, unit});
  }
  return out;
}

/// Prints the readable table and, last, the JSON result line. Every listed
/// metric is printed; one whose layer did not run in this workload reads 0.
void PrintResult(const Outcome& out, const std::vector<Listed>& listed) {
  auto value = [&](const std::string& name) {
    auto it = out.values.find(name);
    return it == out.values.end() || !std::isfinite(it->second) ? 0.0
                                                                 : it->second;
  };
  for (const Listed& m : listed) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), value(m.name),
                m.unit.c_str());
  }
  std::printf("attempted=%llu succeeded=%llu failed=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.attempted - out.failed),
              static_cast<unsigned long long>(out.failed));
  for (const auto& why : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::string json = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const Listed& m : listed) {
    json += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         first ? "" : ", ", m.name.c_str(), value(m.name),
                         m.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- reference values (reference.json) ----

/// Bands every seed must meet, plus exact values recorded for some seeds.
class Reference {
 public:
  Status Load(const std::string& path) {
    std::optional<std::string> text = ReadFile(path);
    if (!text.has_value()) return Status::NotFound("cannot read " + path);
    ALICOCO_ASSIGN_OR_RETURN(root_, obs::ParseJson(*text));
    return Status::OK();
  }

  /// Checks figure `name` of `workload` against its band, and against the
  /// value recorded for this seed when the seed is recorded and the run's
  /// kernel tier and core count equal the recorded ones (the figures of
  /// build and rank_pages depend on both).
  void CheckFigure(const std::string& workload, const std::string& name,
                   double value, uint64_t seed, bool tier_dependent,
                   Failures* why) const {
    std::printf("check %s.%s = %.12g\n", workload.c_str(), name.c_str(),
                value);
    const obs::JsonValue* band = Path({"bands", workload, name});
    if (band == nullptr || band->array.size() != 2) {
      why->push_back("no band for " + workload + "." + name + " in reference");
      return;
    }
    if (!(value >= band->array[0].number && value <= band->array[1].number)) {
      why->push_back(StringPrintf("%s.%s = %.6f outside band [%g, %g]",
                                  workload.c_str(), name.c_str(), value,
                                  band->array[0].number,
                                  band->array[1].number));
    }
    const obs::JsonValue* seed_ref = SeedRef(seed, workload, tier_dependent);
    if (seed_ref == nullptr) return;
    const obs::JsonValue* recorded = seed_ref->Find(name);
    if (recorded != nullptr && std::fabs(recorded->number - value) > 1e-9) {
      why->push_back(StringPrintf("%s.%s = %.9f, recorded %.9f for seed %llu",
                                  workload.c_str(), name.c_str(), value,
                                  recorded->number,
                                  static_cast<unsigned long long>(seed)));
    }
  }

  /// Checks a digest against the value recorded for this seed, if any.
  void CheckDigest(const std::string& workload, const std::string& name,
                   uint64_t value, uint64_t seed, bool tier_dependent,
                   Failures* why) const {
    std::printf("check %s.%s = %s\n", workload.c_str(), name.c_str(),
                Hex(value).c_str());
    const obs::JsonValue* seed_ref = SeedRef(seed, workload, tier_dependent);
    if (seed_ref == nullptr) return;
    const obs::JsonValue* recorded = seed_ref->Find(name);
    if (recorded != nullptr && recorded->str != Hex(value)) {
      why->push_back(workload + "." + name + " = " + Hex(value) +
                     ", recorded " + recorded->str);
    }
  }

 private:
  const obs::JsonValue* Path(std::initializer_list<std::string> keys) const {
    const obs::JsonValue* v = &root_;
    for (const auto& k : keys) {
      v = v->Find(k);
      if (v == nullptr) return nullptr;
    }
    return v;
  }

  const obs::JsonValue* SeedRef(uint64_t seed, const std::string& workload,
                                bool tier_dependent) const {
    const obs::JsonValue* seeds = root_.Find("seeds");
    if (seeds == nullptr) return nullptr;
    for (const auto& rec : seeds->array) {
      const obs::JsonValue* s = rec.Find("seed");
      if (s == nullptr || s->number != static_cast<double>(seed)) continue;
      if (tier_dependent) {
        const obs::JsonValue* tier = rec.Find("kernel_tier");
        const obs::JsonValue* cores = rec.Find("hardware_concurrency");
        if (tier == nullptr || cores == nullptr ||
            tier->str != nn::kernels::ActiveKernelTier() ||
            cores->number !=
                static_cast<double>(std::thread::hardware_concurrency())) {
          return nullptr;
        }
      }
      return rec.Find(workload);
    }
    return nullptr;
  }

  obs::JsonValue root_;
};

// ---- set-up ----

/// Everything a workload runs against. Members are declared in dependency
/// order, so destruction releases the matcher before the resources and the
/// world it points into.
struct Env {
  std::unique_ptr<datagen::World> world;
  std::unique_ptr<datagen::WorldResources> resources;
  matching::MatchingDataset dataset;                      // rank_pages
  std::unique_ptr<matching::KnowledgeMatcher> matcher;    // rank_pages
  std::unique_ptr<kg::ConceptNet> net;                    // app_queries
  std::string snapshot;                                   // app_queries
};

struct SetupTimes {
  std::vector<double> total_s, generate_ms, resources_ms, train_ms, save_ms,
      load_ms;
  double snapshot_kb = 0;
};

/// obs_report's pipeline configuration, minus its probes.
pipeline::PipelineConfig BenchPipelineConfig() {
  pipeline::PipelineConfig cfg;
  cfg.labeler.epochs = 3;
  cfg.mining_epochs = 2;
  cfg.projection.epochs = 3;
  cfg.classifier.epochs = 3;
  cfg.tagger.epochs = 4;
  cfg.matcher.base.epochs = 2;
  cfg.association_candidates = 120;
  return cfg;
}

/// The stage-7 knowledge matcher, trained on the world's gold associations
/// the same way Build trains it, with class knowledge from the gold net.
std::unique_ptr<matching::KnowledgeMatcher> MakeMatcher(const Env& env) {
  const datagen::World& world = *env.world;
  const datagen::WorldResources& res = *env.resources;
  const kg::ConceptNet& gold = world.net();
  matching::KnowledgeResources know;
  know.pos_tagger = &world.pos_tagger();
  know.gloss_encoder = &res.gloss_encoder();
  know.gloss_lookup = [&res](const std::string& w) { return res.GlossOf(w); };
  know.concept_classes = [&gold](const std::vector<std::string>& tokens) {
    std::vector<int> out;
    auto ec = gold.FindEcConcept(JoinStrings(tokens, " "));
    if (ec.has_value()) {
      for (kg::ConceptId p : gold.PrimitivesForEc(*ec)) {
        out.push_back(static_cast<int>(gold.Get(p).cls.value));
      }
    }
    return out;
  };
  know.num_classes = static_cast<int>(gold.taxonomy().size());
  return std::make_unique<matching::KnowledgeMatcher>(
      BenchPipelineConfig().matcher, know, &res.embeddings(), &res.vocab());
}

/// Runs the workload's set-up kSetupReps times and keeps the last one.
Env SetUp(const Options& opts, SetupTimes* times) {
  std::optional<Env> env;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    env.reset();
    env.emplace();
    // Every workload runs on the bench world. A different world, or for
    // build a different pipeline seed, changes the cost of the work far
    // more than the run-to-run noise (app_queries' median latency differs
    // up to 1.8x between worlds, a Build's CPU time 1.3x between pipeline
    // seeds), which would drown every bound. So the seed draws the serving
    // workloads' traffic, and build's input is fixed.
    const datagen::WorldConfig world_cfg = bench::BenchWorldConfig();
    const Clock::time_point t0 = Clock::now();
    env->world = std::make_unique<datagen::World>(
        datagen::World::Generate(world_cfg));
    const Clock::time_point t1 = Clock::now();
    env->resources = std::make_unique<datagen::WorldResources>(
        *env->world, datagen::ResourcesConfig{});
    const Clock::time_point t2 = Clock::now();
    times->generate_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    times->resources_ms.push_back(SecondsBetween(t1, t2) * 1e3);
    if (opts.workload == "rank_pages") {
      matching::MatchingDatasetConfig md_cfg;
      md_cfg.seed = BenchPipelineConfig().seed ^ 0xAA;  // as Build does
      env->dataset = matching::BuildMatchingDataset(*env->world, md_cfg);
      env->matcher = MakeMatcher(*env);
      const Clock::time_point t3 = Clock::now();
      env->matcher->Train(env->dataset);
      times->train_ms.push_back(SecondsBetween(t3, Clock::now()) * 1e3);
    } else if (opts.workload == "app_queries") {
      env->snapshot = opts.workdir + "/gold_net.txt";
      const Clock::time_point t3 = Clock::now();
      Status saved = kg::SaveConceptNet(env->world->net(), env->snapshot);
      const Clock::time_point t4 = Clock::now();
      Result<kg::ConceptNet> loaded = kg::LoadConceptNet(env->snapshot);
      const Clock::time_point t5 = Clock::now();
      if (!saved.ok() || !loaded.ok()) {
        std::fprintf(stderr, "perfbench: snapshot round-trip failed: %s\n",
                     (saved.ok() ? loaded.status() : saved).ToString().c_str());
        std::exit(1);
      }
      env->net = std::make_unique<kg::ConceptNet>(std::move(*loaded));
      times->save_ms.push_back(SecondsBetween(t3, t4) * 1e3);
      times->load_ms.push_back(SecondsBetween(t4, t5) * 1e3);
      std::ifstream f(env->snapshot, std::ios::binary | std::ios::ate);
      times->snapshot_kb = static_cast<double>(f.tellg()) / 1024.0;
    }
    times->total_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  return std::move(*env);
}

// ---- closed loop ----

/// Log-bucketed latencies (0.5 % wide buckets from 0.01 us to ~1.4e8 us),
/// so a pass keeps a fixed amount of memory however many requests it
/// completes, and peak_rss_mb measures the program, not the samples.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double us) {
    size_t b = 0;
    if (us > kMinUs) {
      b = std::min(kBuckets - 1, static_cast<size_t>(std::log(us / kMinUs) /
                                                     std::log(kGrowth)));
    }
    ++counts_[b];
    ++total_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  /// Quantile q in [0, 1]; interpolated geometrically inside the bucket by
  /// rank, so it moves with the counts instead of snapping to bucket edges.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    const double rank = std::max(1.0, q * static_cast<double>(total_));
    double seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double n = static_cast<double>(counts_[b]);
      if (n > 0 && seen + n >= rank) {
        return kMinUs * std::pow(kGrowth, static_cast<double>(b) +
                                              (rank - seen) / n);
      }
      seen += n;
    }
    return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kGrowth = 1.005;
  static constexpr size_t kBuckets = 4700;

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Throughput is counted per window of this length, and requests_per_s is
// the median window: a stall of the shared host moves a few windows, not
// the figure.
constexpr double kWindowS = 1.0;
// Each closed-loop pass serves this long before it starts measuring: the
// first second of a pass runs markedly slower on a shared host.
constexpr double kWarmupS = 2.0;

struct LoopStats {
  LatencyHistogram latency;  // one sample per measured request
  std::vector<double> window_rate;  // completed requests/s per window
  uint64_t served = 0;  // every request, warm-up included
  uint64_t failed = 0;
  double wall_s = 0;  // of the measured period
  double cpu_s = 0;   // process CPU time in the measured period
};

/// Closed loop: `clients` threads each take the next request index and
/// send the next request only after the previous one completed, for
/// kWarmupS plus `seconds`; requests sent in the last `seconds` are
/// measured. `handle(client, index)` serves one request and returns its
/// response; only that call is timed. `check(client, index, response)`
/// then verifies the response outside the timed window.
template <typename Handle, typename Check>
LoopStats RunClosedLoop(unsigned clients, double seconds, Handle handle,
                        Check check) {
  const double window_s = std::min(kWindowS, seconds);
  const size_t windows = static_cast<size_t>(seconds / window_s);
  std::atomic<uint64_t> next{0};
  std::vector<LatencyHistogram> latency(clients);
  // Per client and window: completions and the first and last completion
  // time, so a window's rate is (completions - 1) / (last - first).
  struct Window {
    uint64_t n = 0;
    double first = 1e300, last = -1e300;
  };
  std::vector<std::vector<Window>> done(clients, std::vector<Window>(windows));
  std::vector<uint64_t> served(clients, 0), failed(clients, 0);
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const Clock::time_point start = after(Clock::now(), kWarmupS);
  const Clock::time_point deadline = after(start, seconds);
  double cpu0 = 0;
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (Clock::now() < deadline) {
          const uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
          const Clock::time_point t0 = Clock::now();
          auto response = handle(c, index);
          const Clock::time_point t1 = Clock::now();
          if (t0 >= start) {
            latency[c].Add(SecondsBetween(t0, t1) * 1e6);
            const double at = SecondsBetween(start, t1);
            const size_t w = static_cast<size_t>(at / window_s);
            if (w < windows) {
              Window& win = done[c][w];
              ++win.n;
              win.first = std::min(win.first, at);
              win.last = std::max(win.last, at);
            }
          }
          ++served[c];
          if (!check(c, index, response)) ++failed[c];
        }
      });
    }
    std::this_thread::sleep_until(start);
    cpu0 = ProcessCpuSeconds();
  }
  LoopStats stats;
  stats.wall_s = SecondsBetween(start, Clock::now());
  stats.cpu_s = ProcessCpuSeconds() - cpu0;
  for (unsigned c = 0; c < clients; ++c) {
    stats.latency.Merge(latency[c]);
    stats.served += served[c];
    stats.failed += failed[c];
  }
  for (size_t w = 0; w < windows; ++w) {
    Window all;
    for (unsigned c = 0; c < clients; ++c) {
      all.n += done[c][w].n;
      all.first = std::min(all.first, done[c][w].first);
      all.last = std::max(all.last, done[c][w].last);
    }
    if (all.n >= 2 && all.last > all.first) {
      stats.window_rate.push_back(static_cast<double>(all.n - 1) /
                                  (all.last - all.first));
    }
  }
  return stats;
}

/// End-to-end metrics of a closed-loop pass.
void LoopMetrics(const LoopStats& s, Values* v) {
  (*v)["requests_per_s"] = Median(s.window_rate);
  (*v)["latency_p50_us"] = s.latency.Quantile(0.50);
  (*v)["latency_p99_us"] = s.latency.Quantile(0.99);
  (*v)["cpu_ms_per_op"] =
      s.cpu_s * 1e3 / static_cast<double>(s.latency.count());
}

/// Consistency of repeated requests: the first response digest seen for a
/// slot is kept, and every later response for that slot must match it.
class SlotDigests {
 public:
  explicit SlotDigests(size_t n) : slots_(n) {}
  bool Check(size_t slot, uint64_t digest) {
    uint64_t expected = 0;
    if (slots_[slot].compare_exchange_strong(expected, digest)) return true;
    return expected == digest;
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
};

/// Adds a pass's requests to the outcome; `failure` says what a failed
/// request got wrong.
void CountLoop(const LoopStats& s, const char* failure, Outcome* out) {
  out->attempted += s.served;
  out->failed += s.failed;
  if (s.failed > 0) {
    out->check_failures.push_back(StringPrintf(
        "%llu %s", static_cast<unsigned long long>(s.failed), failure));
  }
}

/// How much slower the traced pass served requests than the timing pass.
double TraceOverheadPct(const LoopStats& clean, const LoopStats& traced) {
  return (Median(clean.window_rate) / Median(traced.window_rate) - 1.0) *
         100.0;
}

/// Measured time of one pass: a traced run splits its time between the
/// timing pass and the traced pass, so it takes as long as an untraced one.
double PassSeconds(const Options& opts) {
  return opts.trace ? opts.seconds / 2 : opts.seconds;
}

/// CPUs this process may run on.
int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Restricts this thread, and every thread it starts later, to the first
/// CPU it may run on. build runs there: on a shared host the speed-up of
/// Build's parallel sections swings between 1.0x and 1.7x with what the
/// neighbours run (and each extra busy vCPU is more time stolen by the
/// hypervisor), which moved a Build's wall time by up to 70 % between runs
/// of the same input. On one CPU the wall time follows the CPU time.
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }
  return false;
}

unsigned Clients() {
  return std::max(1u, std::min(kMaxClients,
                               std::thread::hardware_concurrency() / 2));
}

void SetupPerLayer(const SetupTimes& t, Values* v) {
  (*v)["datagen.generate_ms"] = Median(t.generate_ms);
  (*v)["datagen.resources_ms"] = Median(t.resources_ms);
  if (!t.train_ms.empty()) (*v)["matching.train_ms"] = Median(t.train_ms);
  if (!t.save_ms.empty()) {
    (*v)["kg.save_ms"] = Median(t.save_ms);
    (*v)["kg.load_ms"] = Median(t.load_ms);
    (*v)["kg.snapshot_kb"] = t.snapshot_kb;
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- workload: build ----

struct BuildPass {
  std::vector<double> wall_s, cpu_s;
};

/// Builds repeatedly for `seconds` (at least once). Each Build's output is
/// checked outside the timed window: it must succeed, its CompareToGold
/// figures must sit in the reference bands and equal those recorded for the
/// bench world's seed, and its snapshot digest must equal the first
/// Build's (Build depends only on world, config, SIMD tier and core count,
/// all fixed).
BuildPass RunBuilds(const Env& env, const pipeline::PipelineConfig& cfg,
                    double seconds, const Options& opts, const Reference& ref,
                    std::optional<uint64_t>* net_digest, Outcome* out,
                    const std::function<void()>& after_build) {
  BuildPass pass;
  pipeline::AliCoCoBuilder builder(env.world.get(), env.resources.get(), cfg);
  const uint64_t input_seed = env.world->config().seed;
  const Clock::time_point start = Clock::now();
  while (pass.wall_s.empty() || SecondsBetween(start, Clock::now()) < seconds) {
    pipeline::BuildReport report;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    Result<kg::ConceptNet> net = builder.Build(&report);
    const Clock::time_point t1 = Clock::now();
    pass.cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    pass.wall_s.push_back(SecondsBetween(t0, t1));
    ++out->attempted;
    if (after_build) after_build();
    if (!net.ok()) {
      out->Fail({"Build: " + net.status().ToString()});
      continue;
    }
    pipeline::GoldComparison cmp =
        pipeline::AliCoCoBuilder::CompareToGold(*net, *env.world);
    Failures why;
    for (const auto& [name, value] :
         std::vector<std::pair<const char*, double>>{
             {"primitive_precision", cmp.primitive_precision},
             {"primitive_recall", cmp.primitive_recall},
             {"isa_precision", cmp.isa_precision},
             {"isa_recall", cmp.isa_recall},
             {"ec_precision", cmp.ec_precision},
             {"item_link_precision", cmp.item_link_precision}}) {
      ref.CheckFigure("build", name, value, input_seed, true, &why);
    }
    std::optional<uint64_t> digest =
        SnapshotDigest(*net, opts.workdir + "/built_net.txt");
    if (!digest.has_value()) {
      why.push_back("cannot save the built net");
    } else if (!net_digest->has_value()) {
      *net_digest = digest;
      ref.CheckDigest("build", "net_digest", *digest, input_seed, true, &why);
    } else if (**net_digest != *digest) {
      why.push_back("built net digest " + Hex(*digest) + " differs from " +
                    Hex(**net_digest) + " of the first Build");
    }
    if (!why.empty()) out->Fail(why);
  }
  return pass;
}

double SpanMs(const obs::SpanRecord& s) {
  return static_cast<double>(s.duration_us) / 1e3;
}

uint64_t CounterValue(const obs::Registry& r, const std::string& name) {
  const obs::Counter* c = r.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

double HistQuantile(const obs::Registry& r, const std::string& name,
                    double q) {
  const obs::Histogram* h = r.FindHistogram(name);
  return h == nullptr || h->count() == 0 ? 0 : h->Quantile(q);
}

void RunBuildWorkload(const Options& opts, const Reference& ref, Env& env,
                      const SetupTimes& setup, Outcome* out) {
  std::optional<uint64_t> net_digest;
  BuildPass clean =
      RunBuilds(env, BenchPipelineConfig(), PassSeconds(opts), opts, ref,
                &net_digest, out, nullptr);
  const double builds = static_cast<double>(clean.wall_s.size());
  double wall_sum = 0, cpu_sum = 0;
  for (size_t i = 0; i < clean.wall_s.size(); ++i) {
    wall_sum += clean.wall_s[i];
    cpu_sum += clean.cpu_s[i];
    std::printf("Build %zu: %.3f s wall, %.3f s cpu\n", i, clean.wall_s[i],
                clean.cpu_s[i]);
  }
  std::printf("build_s=%.4f build_cpu_s=%.4f over %zu Builds\n",
              Median(clean.wall_s), cpu_sum / builds, clean.wall_s.size());
  if (!opts.trace) {
    std::vector<double> latency_us;
    for (double w : clean.wall_s) latency_us.push_back(w * 1e6);
    out->values["setup_s"] = Median(setup.total_s);
    // The median Build's rate, as the closed loops report their median
    // window: one Build stalled by the shared host moves the mean, not this.
    out->values["requests_per_s"] = 1.0 / Median(clean.wall_s);
    out->values["latency_p50_us"] = Quantile(latency_us, 0.50);
    out->values["latency_p99_us"] = Quantile(latency_us, 0.99);
    out->values["cpu_ms_per_op"] = cpu_sum * 1e3 / builds;
    return;
  }

  // Traced pass: Build emits its pipeline.<stage> spans and pipeline.*
  // counters into these, and the stage-7 matcher its score latencies.
  obs::Tracer tracer;
  obs::Registry registry;
  pipeline::PipelineConfig traced_cfg = BenchPipelineConfig();
  traced_cfg.tracer = &tracer;
  traced_cfg.metrics = &registry;
  const std::vector<std::string> stages = {
      "mining", "hypernym_discovery", "ec_concepts", "concept_tagging",
      "item_association"};
  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> build_span_ms, epochs_ms;
  BuildPass traced = RunBuilds(
      env, traced_cfg, PassSeconds(opts), opts, ref, &net_digest, out, [&] {
        double epochs = 0, build = 0;
        std::map<std::string, double> per_stage;
        for (const obs::SpanRecord& s : tracer.Drain()) {
          if (s.name == "pipeline.build") build += SpanMs(s);
          if (s.name == "pipeline.mining.epoch") epochs += SpanMs(s);
          for (const auto& stage : stages) {
            if (s.name == "pipeline." + stage) per_stage[stage] += SpanMs(s);
          }
        }
        build_span_ms.push_back(build);
        epochs_ms.push_back(epochs);
        for (const auto& stage : stages) {
          stage_ms[stage].push_back(per_stage[stage]);
        }
      });

  Values& v = out->values;
  SetupPerLayer(setup, &v);
  double staged = 0;
  for (const auto& stage : stages) {
    const double ms = Mean(stage_ms[stage]);
    v["pipeline." + stage + "_ms"] = ms;
    staged += ms;
  }
  v["pipeline.other_ms"] = Mean(build_span_ms) - staged;
  v["mining.epochs_ms"] = Mean(epochs_ms);
  const double traced_wall_ms = Mean(traced.wall_s) * 1e3;
  std::printf("traced pass: %zu Builds, stage spans sum to %.1f ms of %.1f "
              "ms Build wall time (%.2f%%)\n",
              traced.wall_s.size(), Mean(build_span_ms), traced_wall_ms,
              100.0 * Mean(build_span_ms) / traced_wall_ms);
  v["pipeline.cpu_util"] = cpu_sum / wall_sum;
  const double traced_builds = static_cast<double>(traced.wall_s.size());
  const std::string pool = "pipeline.worker_pool.";
  v["pool.tasks"] =
      static_cast<double>(CounterValue(registry, pool + "tasks_completed")) /
      traced_builds;
  v["pool.queue_wait_us_p50"] =
      HistQuantile(registry, pool + "queue_wait_us", 0.50);
  v["pool.queue_wait_us_p99"] =
      HistQuantile(registry, pool + "queue_wait_us", 0.99);
  v["pool.task_run_us_p50"] = HistQuantile(registry, pool + "task_run_us", 0.5);
  auto counter = [&](const std::string& name) {
    return static_cast<double>(CounterValue(registry, "pipeline." + name));
  };
  v["mining.accept_ratio"] =
      Ratio(counter("mining.accepted"), counter("mining.candidates"));
  v["concepts.accept_ratio"] =
      Ratio(counter("ec_concepts.accepted"), counter("ec_concepts.candidates"));
  v["concepts.audit_reject_ratio"] = Ratio(
      counter("ec_concepts.audit_rejected"), counter("ec_concepts.audited"));
  v["matching.link_ratio"] =
      Ratio(counter("item_association.item_ec_links"),
            counter("item_association.edges_above_threshold") +
                counter("item_association.edges_below_threshold"));
  const std::string score_hist = "matching.knowledge_matcher.score_latency_us";
  const obs::Histogram* scores = registry.FindHistogram(score_hist);
  v["matching.score_calls"] =
      scores == nullptr ? 0
                        : static_cast<double>(scores->count()) / traced_builds;
  v["matching.score_us_p50"] = HistQuantile(registry, score_hist, 0.50);
  v["matching.score_us_p99"] = HistQuantile(registry, score_hist, 0.99);
  v["trace_overhead_pct"] =
      (Mean(traced.wall_s) / Mean(clean.wall_s) - 1.0) * 100.0;
}

// ---- workload: rank_pages ----

/// One concept page request: a gold e-commerce concept and the catalog
/// items to rank for it.
struct Page {
  const kg::EcommerceConcept* concept_node = nullptr;
  std::vector<kg::ItemId> items;
  std::unordered_set<uint32_t> gold;  // the concept's gold items
};

std::vector<Page> MakePages(const datagen::World& world, uint64_t seed) {
  const kg::ConceptNet& gold = world.net();
  std::vector<const datagen::EcGold*> concepts;
  for (const auto& g : world.ec_gold()) {
    if (!g.items.empty()) concepts.push_back(&g);
  }
  const auto& items = gold.items();
  Rng rng(seed ^ 0x5eed5eedull);
  std::vector<Page> pages(kDistinctPages);
  for (Page& page : pages) {
    const datagen::EcGold& g = *concepts[rng.Uniform(concepts.size())];
    page.concept_node = &gold.Get(g.id);
    for (kg::ItemId item : g.items) page.gold.insert(item.value);
    for (size_t n = 0; n < kPageCandidates; ++n) {
      page.items.push_back(items[rng.Uniform(items.size())].id);
    }
  }
  return pages;
}

struct PageResult {
  std::vector<std::pair<double, uint32_t>> top;  // score desc, id asc
  bool scores_ok = true;
};

void RunRankWorkload(const Options& opts, const Reference& ref, Env& env,
                     const SetupTimes& setup, Outcome* out) {
  const kg::ConceptNet& gold = env.world->net();
  const std::vector<Page> pages = MakePages(*env.world, opts.seed);
  const matching::KnowledgeMatcher& matcher = *env.matcher;
  const unsigned clients = Clients();

  // Traced pass only: per-Score latencies, one histogram per client.
  bool time_scores = false;
  std::vector<LatencyHistogram> score_us(clients);

  auto handle = [&](unsigned client, uint64_t index) {
    const Page& page = pages[index % pages.size()];
    PageResult r;
    r.top.reserve(page.items.size());
    for (kg::ItemId item : page.items) {
      const auto& title = gold.Get(item).title;
      double s;
      if (time_scores) {
        const Clock::time_point t0 = Clock::now();
        s = matcher.Score(page.concept_node->tokens, title,
                          static_cast<int64_t>(item.value));
        score_us[client].Add(SecondsBetween(t0, Clock::now()) * 1e6);
      } else {
        s = matcher.Score(page.concept_node->tokens, title,
                          static_cast<int64_t>(item.value));
      }
      r.scores_ok &= s >= 0.0 && s <= 1.0;  // false for NaN
      r.top.emplace_back(s, item.value);
    }
    const size_t k = std::min(kPageTopK, r.top.size());
    std::partial_sort(r.top.begin(), r.top.begin() + static_cast<long>(k),
                      r.top.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    r.top.resize(k);
    return r;
  };
  SlotDigests slots(pages.size());
  // Gold items in each page's top k, -1 until the page is served.
  std::vector<std::atomic<int>> gold_hits(pages.size());
  for (auto& h : gold_hits) h.store(-1);
  auto check = [&](unsigned, uint64_t index, const PageResult& r) {
    const size_t slot = index % pages.size();
    Digest d;
    int hits = 0;
    for (const auto& [score, id] : r.top) {
      d.F64(score);
      d.U64(id);
      hits += static_cast<int>(pages[slot].gold.count(id));
    }
    gold_hits[slot].store(hits, std::memory_order_relaxed);
    return r.scores_ok && slots.Check(slot, d.value());
  };

  const char* failure = "pages with a score outside [0, 1] or a ranking "
                        "that differs from an earlier one";
  LoopStats clean = RunClosedLoop(clients, PassSeconds(opts), handle, check);
  CountLoop(clean, failure, out);

  // Model quality: AUC on the held-out split, and top-k precision against
  // the gold associations over the first kPrecisionPages pages (a fixed
  // set, so the figure does not depend on how many pages a run served).
  double total_hits = 0, total_kept = 0;
  for (size_t slot = 0; slot < std::min(kPrecisionPages, pages.size());
       ++slot) {
    const int hits = gold_hits[slot].load();
    if (hits < 0) continue;
    total_hits += hits;
    total_kept += static_cast<double>(kPageTopK);
  }
  const double auc = matching::EvaluateMatcher(matcher, env.dataset).auc;
  Failures why;
  ref.CheckFigure("rank_pages", "heldout_auc", auc, opts.seed, true, &why);
  ref.CheckFigure("rank_pages", "top12_precision",
                  Ratio(total_hits, total_kept), opts.seed, true, &why);
  ++out->attempted;
  if (!why.empty()) out->Fail(why);

  if (!opts.trace) {
    out->values["setup_s"] = Median(setup.total_s);
    LoopMetrics(clean, &out->values);
    return;
  }
  time_scores = true;
  LoopStats traced = RunClosedLoop(clients, PassSeconds(opts), handle, check);
  CountLoop(traced, failure, out);
  LatencyHistogram all_scores;
  for (const auto& h : score_us) all_scores.Merge(h);
  Values& v = out->values;
  SetupPerLayer(setup, &v);
  v["matching.score_calls"] = static_cast<double>(all_scores.count());
  v["matching.score_us_p50"] = all_scores.Quantile(0.50);
  v["matching.score_us_p99"] = all_scores.Quantile(0.99);
  v["rank.cpu_util"] = clean.cpu_s / clean.wall_s;
  v["trace_overhead_pct"] = TraceOverheadPct(clean, traced);
}

// ---- workload: app_queries ----

enum class Kind { kSearch, kRecommend, kQa };

/// One request slot of the fixed 1:1:1 interleave.
struct AppRequest {
  Kind kind;
  size_t index;  // into the search queries, users or questions
};

struct AppResponse {
  std::vector<std::pair<double, uint32_t>> ranked;                 // search
  std::vector<apps::CognitiveRecommender::ConceptCard> cards;      // recommend
  std::optional<apps::NeedsAnswer> answer;                         // qa
};

uint64_t ResponseDigest(Kind kind, const AppResponse& r) {
  Digest d;
  d.U64(static_cast<uint64_t>(kind));
  for (const auto& [score, id] : r.ranked) {
    d.F64(score);
    d.U64(id);
  }
  for (const auto& card : r.cards) {
    d.U64(card.concept_id.value);
    d.F64(card.score);
    for (kg::ItemId item : card.items) d.U64(item.value);
  }
  if (r.answer.has_value()) {
    const apps::NeedsAnswer& a = *r.answer;
    d.U64(a.concept_id.value);
    d.Str(a.concept_surface);
    d.F64(a.score);
    for (const auto& [domain, surface] : a.interpretation) {
      d.Str(domain);
      d.Str(surface);
    }
    for (kg::ItemId item : a.items) d.U64(item.value);
    for (const auto& need : a.related_needs) d.Str(need);
  }
  return d.value();
}

void RunAppWorkload(const Options& opts, const Reference& ref, Env& env,
                    const SetupTimes& setup, Outcome* out) {
  const kg::ConceptNet& net = *env.net;
  const apps::SearchRelevance search(&net, /*metrics=*/nullptr);
  const apps::CognitiveRecommender recommender(&net, /*metrics=*/nullptr);
  const apps::NeedsQuestionAnswerer qa(&net);

  // Inputs over the bench world; the seed draws the search candidates and
  // the request order.
  const std::vector<apps::RelevanceQuery> queries = search.BuildQueries(
      *env.world, kSearchQueries, kSearchCandidates, opts.seed);
  const std::vector<datagen::UserHistory>& users = env.world->user_histories();
  std::vector<std::string> questions;
  for (const auto& tokens : env.world->needs_queries()) {
    questions.push_back(JoinStrings(tokens, " "));
  }
  std::vector<AppRequest> requests;
  {
    Rng rng(opts.seed ^ 0xa995ull);
    std::vector<size_t> q(queries.size()), u(users.size()),
        n(questions.size());
    for (size_t i = 0; i < q.size(); ++i) q[i] = i;
    for (size_t i = 0; i < u.size(); ++i) u[i] = i;
    for (size_t i = 0; i < n.size(); ++i) n[i] = i;
    rng.Shuffle(&q);
    rng.Shuffle(&u);
    rng.Shuffle(&n);
    const size_t rounds = std::max({q.size(), u.size(), n.size()});
    for (size_t i = 0; i < rounds; ++i) {
      requests.push_back({Kind::kSearch, q[i % q.size()]});
      requests.push_back({Kind::kRecommend, u[i % u.size()]});
      requests.push_back({Kind::kQa, n[i % n.size()]});
    }
  }
  std::printf("app_queries: %zu search queries, %zu users, %zu questions, "
              "%zu request slots\n",
              queries.size(), users.size(), questions.size(), requests.size());

  const unsigned clients = Clients();
  // Traced pass only: per-endpoint latencies, per client.
  bool time_calls = false;
  std::vector<std::array<LatencyHistogram, 3>> call_us(clients);
  std::vector<uint64_t> answered(clients, 0);

  auto serve = [&](const AppRequest& req) {
    AppResponse r;
    switch (req.kind) {
      case Kind::kSearch: {
        const apps::RelevanceQuery& q = queries[req.index];
        r.ranked.reserve(q.items.size());
        for (kg::ItemId item : q.items) {
          r.ranked.emplace_back(search.Score(q.query, item, true), item.value);
        }
        std::sort(r.ranked.begin(), r.ranked.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        break;
      }
      case Kind::kRecommend:
        r.cards = recommender.Recommend(users[req.index], kCards,
                                        kItemsPerCard);
        break;
      case Kind::kQa:
        r.answer = qa.Answer(questions[req.index]);
        break;
    }
    return r;
  };
  auto handle = [&](unsigned client, uint64_t index) {
    const AppRequest& req = requests[index % requests.size()];
    if (!time_calls) return serve(req);
    const Clock::time_point t0 = Clock::now();
    AppResponse r = serve(req);
    call_us[client][static_cast<int>(req.kind)].Add(
        SecondsBetween(t0, Clock::now()) * 1e6);
    if (req.kind == Kind::kQa && r.answer.has_value()) ++answered[client];
    return r;
  };
  // Reference digests: every slot served once, single-threaded, before
  // the clients run; each response must reproduce its slot's digest.
  std::vector<uint64_t> expected(requests.size());
  Digest all_responses;
  for (size_t i = 0; i < requests.size(); ++i) {
    expected[i] = ResponseDigest(requests[i].kind, serve(requests[i]));
    all_responses.U64(expected[i]);
  }
  auto check = [&](unsigned, uint64_t index, const AppResponse& r) {
    const size_t slot = index % requests.size();
    return ResponseDigest(requests[slot].kind, r) == expected[slot];
  };

  const char* failure = "responses differ from the reference";
  LoopStats clean = RunClosedLoop(clients, PassSeconds(opts), handle, check);
  CountLoop(clean, failure, out);

  // The snapshot must re-save byte-identically after the round trip, and
  // the net and responses must equal those recorded for the seed.
  Failures why;
  std::optional<uint64_t> saved = FileDigest(env.snapshot);
  std::optional<uint64_t> resaved =
      SnapshotDigest(net, opts.workdir + "/gold_net.resaved.txt");
  if (!saved.has_value() || !resaved.has_value() || *saved != *resaved) {
    why.push_back("the loaded snapshot does not re-save byte-identically");
  } else {
    ref.CheckDigest("app_queries", "net_digest", *saved, opts.seed, false,
                    &why);
  }
  ref.CheckDigest("app_queries", "response_digest", all_responses.value(),
                  opts.seed, false, &why);
  ++out->attempted;
  if (!why.empty()) out->Fail(why);

  if (!opts.trace) {
    out->values["setup_s"] = Median(setup.total_s);
    LoopMetrics(clean, &out->values);
    return;
  }
  time_calls = true;
  LoopStats traced = RunClosedLoop(clients, PassSeconds(opts), handle, check);
  CountLoop(traced, failure, out);
  Values& v = out->values;
  SetupPerLayer(setup, &v);
  const char* names[] = {"search", "recommend", "qa"};
  for (int k = 0; k < 3; ++k) {
    LatencyHistogram calls;
    for (const auto& per_client : call_us) calls.Merge(per_client[k]);
    const std::string prefix = std::string("apps.") + names[k];
    v[prefix + ".calls"] = static_cast<double>(calls.count());
    v[prefix + ".us_p50"] = calls.Quantile(0.50);
    v[prefix + ".us_p99"] = calls.Quantile(0.99);
  }
  uint64_t total_answered = 0;
  for (uint64_t a : answered) total_answered += a;
  v["apps.qa.answered_ratio"] =
      Ratio(static_cast<double>(total_answered), v["apps.qa.calls"]);
  v["trace_overhead_pct"] = TraceOverheadPct(clean, traced);
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts->trace = value == "1";
    } else if (flag == "--reference") {
      opts->reference = value;
    } else if (flag == "--benchmark") {
      opts->benchmark = value;
    } else if (flag == "--workdir") {
      opts->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opts->seconds > 0 && !opts->reference.empty() &&
         !opts->benchmark.empty() &&
         (opts->workload == "build" || opts->workload == "rank_pages" ||
          opts->workload == "app_queries");
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload build|rank_pages|app_queries "
                 "--seed N --seconds S --trace 0|1 --reference FILE "
                 "--benchmark BENCHMARK.json [--workdir DIR]\n");
    return 2;
  }
  Reference ref;
  if (Status s = ref.Load(opts.reference); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 2;
  }
  Result<std::vector<Listed>> listed = ListedMetrics(
      opts.benchmark, opts.trace ? "per_layer" : "end_to_end");
  if (!listed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 listed.status().ToString().c_str());
    return 2;
  }
  if (opts.workload == "build" && !PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot pin build to one CPU\n");
    return 2;
  }
  // What the numbers depend on: results compare only when these match.
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("kernel_tier=%s hardware_concurrency=%u cpus=%d clients=%u "
              "heap_hook_linked=%s lock_stats_sink=%s\n",
              nn::kernels::ActiveKernelTier(),
              std::thread::hardware_concurrency(), AllowedCpus(),
              opts.workload == "build" ? 1u : Clients(),
              obs::prof::HeapHookLinked() ? "true" : "false",
              GetLockStatsSink() == nullptr ? "none" : "installed");
  if (obs::prof::HeapHookLinked() || GetLockStatsSink() != nullptr) {
    std::fprintf(stderr, "perfbench: the timing pass must run unprobed\n");
    return 2;
  }

  SetupTimes setup;
  Env env = SetUp(opts, &setup);
  std::printf("setup: %d reps, median %.3f s\n", kSetupReps,
              Median(setup.total_s));
  Outcome out;
  if (opts.workload == "build") {
    RunBuildWorkload(opts, ref, env, setup, &out);
  } else if (opts.workload == "rank_pages") {
    RunRankWorkload(opts, ref, env, setup, &out);
  } else {
    RunAppWorkload(opts, ref, env, setup, &out);
  }
  if (!opts.trace) {
    out.values["peak_rss_mb"] =
        static_cast<double>(obs::prof::PeakRssBytes()) / (1024.0 * 1024.0);
  }
  // The run must compute exactly what BENCHMARK.json lists: every
  // end-to-end metric, and no metric it does not list.
  for (const auto& [name, value] : out.values) {
    bool known = false;
    for (const Listed& m : *listed) known |= m.name == name;
    if (!known) {
      std::fprintf(stderr, "perfbench: %s is not listed in %s\n",
                   name.c_str(), opts.benchmark.c_str());
      return 2;
    }
  }
  if (!opts.trace) {
    for (const Listed& m : *listed) {
      if (!out.values.count(m.name)) {
        std::fprintf(stderr, "perfbench: %s was not measured\n",
                     m.name.c_str());
        return 2;
      }
    }
  }
  PrintResult(out, *listed);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace alicoco::perfbench

int main(int argc, char** argv) {
  return alicoco::perfbench::Main(argc, argv);
}
