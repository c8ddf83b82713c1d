// Shared setup for the table/figure reproduction harnesses: a bench-scale
// world configuration and a printing wall-clock stage timer. Every
// harness prints the paper's rows plus the measured values on the
// synthetic world.

#ifndef ALICOCO_BENCH_BENCH_UTIL_H_
#define ALICOCO_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>

#include "datagen/resources.h"
#include "datagen/world.h"

namespace alicoco::bench {

/// The standard world every harness uses (unless it needs its own knobs).
inline datagen::WorldConfig BenchWorldConfig() {
  datagen::WorldConfig cfg;
  cfg.seed = 2020;
  cfg.heads_per_leaf = 2;
  cfg.derived_per_head = 4;
  cfg.per_domain_vocab = 15;
  cfg.num_events = 14;
  cfg.num_items = 1500;
  cfg.num_good_ec_concepts = 250;
  cfg.num_bad_ec_concepts = 250;
  cfg.titles = 2500;
  cfg.reviews = 1000;
  cfg.guides = 800;
  cfg.queries = 600;
  cfg.num_users = 200;
  cfg.num_needs_queries = 600;
  return cfg;
}

/// RAII wall-clock stage timer: prints "[stage] ..." on construction and
/// "[stage] done in Ns" on destruction.
class StageTimer {
 public:
  explicit StageTimer(const char* stage)
      : stage_(stage), start_(std::chrono::steady_clock::now()) {
    std::printf("[%s] ...\n", stage);
    std::fflush(stdout);
  }
  ~StageTimer() {
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    std::printf("[%s] done in %.1fs\n", stage_, elapsed.count());
    std::fflush(stdout);
  }

 private:
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace alicoco::bench

#endif  // ALICOCO_BENCH_BENCH_UTIL_H_
