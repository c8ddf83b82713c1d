// The generated world the application tests share, built once per test
// process.

#ifndef ALICOCO_TESTS_APPS_SHARED_WORLD_H_
#define ALICOCO_TESTS_APPS_SHARED_WORLD_H_

#include "datagen/world.h"

namespace alicoco::apps {

inline const datagen::World& SharedWorld() {
  static const datagen::World world = [] {
    datagen::WorldConfig cfg;
    cfg.seed = 71;
    cfg.heads_per_leaf = 2;
    cfg.derived_per_head = 3;
    cfg.per_domain_vocab = 12;
    cfg.num_events = 10;
    cfg.num_items = 800;
    cfg.num_good_ec_concepts = 80;
    cfg.num_bad_ec_concepts = 40;
    cfg.titles = 1000;
    cfg.reviews = 400;
    cfg.guides = 300;
    cfg.queries = 300;
    cfg.num_users = 120;
    cfg.num_needs_queries = 300;
    return datagen::World::Generate(cfg);
  }();
  return world;
}

}  // namespace alicoco::apps

#endif  // ALICOCO_TESTS_APPS_SHARED_WORLD_H_
