#include "datagen/world.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/vocab_gen.h"
#include "text/tokenizer.h"

namespace alicoco::datagen {
namespace {

uint64_t PackPair(kg::ConceptId a, kg::ConceptId b) {
  uint32_t lo = std::min(a.value, b.value);
  uint32_t hi = std::max(a.value, b.value);
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

std::string Lower(const std::string& s) { return ToLower(s); }

}  // namespace

World World::Generate(const WorldConfig& config) {
  World world;
  world.config_ = config;
  world.handles_ = BuildTaxonomy(&world.net_.taxonomy());

  // Schema: the relations the paper names (Section 2) plus gift_for.
  const auto& h = world.handles_;
  ALICOCO_CHECK(
      world.net_.AddRelation("suitable_when", h.category, h.time_season).ok());
  ALICOCO_CHECK(world.net_.AddRelation("used_when", h.category, h.event).ok());
  ALICOCO_CHECK(
      world.net_.AddRelation("suitable_for", h.category, h.audience).ok());

  Rng rng(config.seed);
  WordMinter minter(rng.NextUint64());
  // Reserve carrier vocabulary so concepts never collide with it.
  for (const char* w :
       {"for", "in", "on", "with", "of", "the", "a", "an", "and", "or", "is",
        "are", "this", "my", "your", "very", "really", "quite", "so", "such",
        "as", "gifts", "need", "needs", "every", "you", "people", "where",
        "kind", "used", "made", "describes", "suitable", "place", "like",
        "who", "event", "style", "word", "edition", "set", "pack", "series",
        "bundle", "comes", "feels"}) {
    minter.Reserve(w);
  }

  world.MintPrimitiveConcepts(&minter, &rng);
  world.BuildCompatibility(&rng);
  world.WriteGlosses(&rng);
  world.GenerateItems(&rng);
  world.GenerateEcConcepts(&rng);
  world.GenerateCandidates(&rng);
  world.GenerateCorpus(&rng);
  world.GenerateUsers(&rng);
  world.GenerateNeedsQueries(&rng);
  world.BuildSeedDictionary(&rng);
  return world;
}

const std::vector<std::string>& World::Tokens(kg::ConceptId id) const {
  auto it = tokens_.find(id);
  ALICOCO_CHECK(it != tokens_.end());
  return it->second;
}

bool World::Compatible(kg::ConceptId a, kg::ConceptId b) const {
  return compatible_.count(PackPair(a, b)) > 0;
}

void World::MarkCompatible(kg::ConceptId a, kg::ConceptId b) {
  compatible_.insert(PackPair(a, b));
}

kg::ConceptId World::Sample(const std::vector<kg::ConceptId>& pool,
                            Rng* rng) const {
  ALICOCO_CHECK(!pool.empty());
  return pool[rng->Uniform(pool.size())];
}

std::string World::DomainLabel(kg::ConceptId id) const {
  const auto& tax = net_.taxonomy();
  return tax.Get(tax.Domain(net_.Get(id).cls)).name;
}

void World::MintPrimitiveConcepts(WordMinter* minter, Rng* rng) {
  auto add = [&](const std::string& surface, kg::ClassId cls,
                 text::PosTag pos,
                 std::vector<kg::ConceptId>* pool) -> kg::ConceptId {
    auto res = net_.GetOrAddPrimitiveConcept(surface, cls);
    ALICOCO_CHECK(res.ok()) << res.status().ToString();
    kg::ConceptId id = *res;
    tokens_[id] = text::Tokenize(surface);
    for (const auto& tok : tokens_[id]) pos_tagger_.AddLexeme(tok, pos);
    if (pool != nullptr) pool->push_back(id);
    return id;
  };

  // ---- Category: heads plus derived hyponyms per leaf class ----
  for (kg::ClassId leaf : handles_.category_leaves) {
    for (int hidx = 0; hidx < config_.heads_per_leaf; ++hidx) {
      std::string head_word = minter->MintNoun();
      kg::ConceptId head = add(head_word, leaf, text::PosTag::kNoun, &heads_);
      category_vocabulary_.push_back(head_word);
      for (int d = 0; d < config_.derived_per_head; ++d) {
        std::string mod = rng->Bernoulli(0.5) ? minter->MintAdjective()
                                              : minter->MintNoun();
        std::string surface = mod + " " + head_word;
        kg::ConceptId child =
            add(surface, leaf, text::PosTag::kNoun, &derived_);
        // The modifier token keeps its own POS.
        pos_tagger_.AddLexeme(mod, EndsWith(mod, "y") || EndsWith(mod, "ish") ||
                                           EndsWith(mod, "al")
                                       ? text::PosTag::kAdj
                                       : text::PosTag::kNoun);
        ALICOCO_CHECK(net_.AddIsA(child, head).ok());
        head_of_[child] = head;
        derived_of_[head].push_back(child);
        hypernym_gold_.push_back(HypernymGold{surface, head_word});
        category_vocabulary_.push_back(surface);
      }
    }
  }

  // ---- Group concepts: one per mid-level category class ----
  // A hypernym of every head under that class whose surface shares no token
  // with the heads ("jacket isA top"): undetectable by the suffix rule,
  // discoverable only by projection learning or Hearst patterns.
  for (kg::ClassId mid : net_.taxonomy().Get(handles_.category).children) {
    std::string group_word = minter->MintNoun();
    kg::ConceptId group = add(group_word, mid, text::PosTag::kNoun, &groups_);
    category_vocabulary_.push_back(group_word);
    for (kg::ConceptId head : heads_) {
      kg::ClassId leaf = net_.Get(head).cls;
      if (net_.taxonomy().Get(leaf).parent == mid) {
        ALICOCO_CHECK(net_.AddIsA(head, group).ok());
        hypernym_gold_.push_back(
            HypernymGold{net_.Get(head).surface, group_word});
      }
    }
  }

  // ---- Attribute domains ----
  int n = config_.per_domain_vocab;
  for (int i = 0; i < n; ++i) {
    add(minter->MintBrand(), handles_.brand, text::PosTag::kNoun, &brands_);
    add(minter->MintAdjective(), handles_.color, text::PosTag::kAdj, &colors_);
    add(minter->MintAdjective(), handles_.function, text::PosTag::kAdj,
        &functions_);
    add(minter->MintAdjective(), handles_.style, text::PosTag::kAdj, &styles_);
    add(minter->MintNoun(), handles_.material, text::PosTag::kNoun,
        &materials_);
    add(minter->MintNoun(), handles_.location, text::PosTag::kNoun,
        &locations_);
  }
  for (int i = 0; i < std::max(4, n / 3); ++i) {
    add(minter->MintNoun(), handles_.audience_human, text::PosTag::kNoun,
        &audiences_);
  }
  for (int i = 0; i < config_.num_events; ++i) {
    kg::ClassId cls = rng->Bernoulli(0.5) ? handles_.event_action
                                          : handles_.event;
    add(minter->MintGerund(), cls, text::PosTag::kVerb, &events_);
  }
  for (int i = 0; i < 4; ++i) {
    add(minter->MintNoun(), handles_.time_season, text::PosTag::kNoun,
        &seasons_);
  }
  for (int i = 0; i < 6; ++i) {
    add(minter->MintNoun(), handles_.time_holiday, text::PosTag::kNoun,
        &holidays_);
  }
  // Minor domains: small vocabularies so Table 2 has non-zero rows.
  int minor = std::max(4, n / 4);
  for (int i = 0; i < minor; ++i) {
    add(minter->MintNoun() + " " + minter->MintNoun(), handles_.ip,
        text::PosTag::kNoun, &ips_);
    add(minter->MintBrand(), handles_.organization, text::PosTag::kNoun,
        &organizations_);
    add(minter->MintAdjective(), handles_.pattern, text::PosTag::kAdj,
        &patterns_);
    add(minter->MintNoun(), handles_.shape, text::PosTag::kNoun, &shapes_);
    add(minter->MintAdjective(), handles_.smell, text::PosTag::kAdj, &smells_);
    add(minter->MintAdjective(), handles_.taste, text::PosTag::kAdj, &tastes_);
    add(minter->MintAdjective(), handles_.design, text::PosTag::kAdj,
        &designs_);
    add(minter->MintNoun(), handles_.nature, text::PosTag::kNoun, &natures_);
    add(minter->MintNoun(), handles_.quantity, text::PosTag::kNoun,
        &quantities_);
    add(minter->MintAdjective(), handles_.modifier, text::PosTag::kAdj,
        &modifiers_);
  }

  // ---- Sense ambiguity ----
  // Some Location surfaces are also Styles (the "village" case of Figure 7);
  // some Event surfaces are also IP (the "barbecue" movie case).
  size_t n_amb_loc = std::max<size_t>(
      config_.ambiguous_fraction > 0 && !locations_.empty() ? 1 : 0,
      static_cast<size_t>(config_.ambiguous_fraction *
                          static_cast<double>(locations_.size())));
  for (size_t i = 0; i < n_amb_loc && i < locations_.size(); ++i) {
    const std::string& surface = net_.Get(locations_[i]).surface;
    auto res = net_.GetOrAddPrimitiveConcept(surface, handles_.style);
    ALICOCO_CHECK(res.ok());
    tokens_[*res] = text::Tokenize(surface);
    styles_.push_back(*res);
  }
  size_t n_amb_ev = std::max<size_t>(
      config_.ambiguous_fraction > 0 && !events_.empty() ? 1 : 0,
      static_cast<size_t>(config_.ambiguous_fraction *
                          static_cast<double>(events_.size())));
  for (size_t i = 0; i < n_amb_ev && i < events_.size(); ++i) {
    const std::string& surface = net_.Get(events_[i]).surface;
    auto res = net_.GetOrAddPrimitiveConcept(surface, handles_.ip);
    ALICOCO_CHECK(res.ok());
    tokens_[*res] = text::Tokenize(surface);
    ips_.push_back(*res);
  }
}

void World::BuildCompatibility(Rng* rng) {
  auto mark_subset = [&](kg::ConceptId subject,
                         const std::vector<kg::ConceptId>& pool, double p) {
    for (kg::ConceptId other : pool) {
      if (rng->Bernoulli(p)) MarkCompatible(subject, other);
    }
  };

  // Events (and holidays) need categories and tolerate some locations /
  // functions. Every event needs at least 3 category heads.
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());
  for (kg::ConceptId ev : all_events) {
    std::vector<kg::ConceptId> pool = heads_;
    rng->Shuffle(&pool);
    size_t need = 3 + rng->Uniform(4);
    std::vector<kg::ConceptId>& needs = event_needs_[ev];
    for (size_t i = 0; i < need && i < pool.size(); ++i) {
      needs.push_back(pool[i]);
      MarkCompatible(ev, pool[i]);
      // Typed edge: category used_when event (a real schema relation).
      if (net_.taxonomy().IsAncestor(handles_.event,
                                     net_.Get(ev).cls)) {
        (void)net_.AddTypedRelation("used_when", pool[i], ev);
      }
    }
    mark_subset(ev, locations_, 0.4);
    mark_subset(ev, functions_, 0.4);
  }

  for (kg::ConceptId aud : audiences_) {
    mark_subset(aud, functions_, 0.5);
    mark_subset(aud, styles_, 0.5);
  }
  for (kg::ConceptId style : styles_) mark_subset(style, heads_, 0.5);
  for (kg::ConceptId fn : functions_) mark_subset(fn, heads_, 0.5);
  for (kg::ConceptId season : seasons_) {
    mark_subset(season, heads_, 0.6);
    mark_subset(season, styles_, 0.6);
    for (kg::ConceptId head : heads_) {
      if (Compatible(season, head) && rng->Bernoulli(0.3)) {
        (void)net_.AddTypedRelation("suitable_when", head, season);
      }
    }
  }
  // Colors and materials suit everything.
  for (kg::ConceptId c : colors_) {
    for (kg::ConceptId head : heads_) MarkCompatible(c, head);
  }
  for (kg::ConceptId m : materials_) {
    for (kg::ConceptId head : heads_) MarkCompatible(m, head);
  }
  // Derived concepts inherit their head's compatibilities implicitly via
  // head_of_ (checked at use sites).
}

void World::WriteGlosses(Rng* rng) {
  auto set_gloss = [&](kg::ConceptId id, std::vector<std::string> gloss) {
    ALICOCO_CHECK(net_.SetGloss(id, std::move(gloss)).ok());
  };
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());

  for (kg::ConceptId head : heads_) {
    const auto& tax = net_.taxonomy();
    std::vector<std::string> gloss = {"a",
                                      Lower(tax.Get(net_.Get(head).cls).name)};
    gloss.push_back("used");
    gloss.push_back("for");
    int added = 0;
    for (kg::ConceptId ev : all_events) {
      const auto& needs = event_needs_[ev];
      if (std::find(needs.begin(), needs.end(), head) != needs.end()) {
        for (const auto& t : Tokens(ev)) gloss.push_back(t);
        if (++added >= 3) break;
      }
    }
    set_gloss(head, std::move(gloss));
  }
  for (kg::ConceptId d : derived_) {
    std::vector<std::string> gloss = {"a", "kind", "of"};
    for (const auto& t : Tokens(head_of_[d])) gloss.push_back(t);
    set_gloss(d, std::move(gloss));
  }
  for (kg::ConceptId ev : all_events) {
    std::vector<std::string> gloss = {"an", "event", "where", "people",
                                      "need"};
    for (kg::ConceptId head : event_needs_[ev]) {
      for (const auto& t : Tokens(head)) gloss.push_back(t);
    }
    set_gloss(ev, std::move(gloss));
  }
  // Attribute glosses enumerate their compatibility lists (capped) — the
  // encyclopedia knowledge that lets models reason about plausibility.
  constexpr int kGlossCap = 40;
  auto append_compatible = [&](std::vector<std::string>* gloss,
                               kg::ConceptId subject,
                               const std::vector<kg::ConceptId>& pool) {
    int added = 0;
    for (kg::ConceptId other : pool) {
      if (Compatible(subject, other)) {
        for (const auto& t : Tokens(other)) gloss->push_back(t);
        if (++added >= kGlossCap) break;
      }
    }
  };
  for (kg::ConceptId fn : functions_) {
    std::vector<std::string> gloss = {"describes", "things", "suitable",
                                      "for"};
    append_compatible(&gloss, fn, all_events);
    gloss.push_back("like");
    append_compatible(&gloss, fn, heads_);
    set_gloss(fn, std::move(gloss));
  }
  for (kg::ConceptId style : styles_) {
    std::vector<std::string> gloss = {"a", "style", "of"};
    append_compatible(&gloss, style, heads_);
    set_gloss(style, std::move(gloss));
  }
  for (kg::ConceptId season : seasons_) {
    std::vector<std::string> gloss = {"the", "season", "for"};
    append_compatible(&gloss, season, heads_);
    set_gloss(season, std::move(gloss));
  }
  for (kg::ConceptId aud : audiences_) {
    std::vector<std::string> gloss = {"people", "who", "like"};
    append_compatible(&gloss, aud, functions_);
    append_compatible(&gloss, aud, styles_);
    set_gloss(aud, std::move(gloss));
  }
  for (kg::ConceptId loc : locations_) {
    std::vector<std::string> gloss = {"a", "place", "for"};
    append_compatible(&gloss, loc, events_);
    set_gloss(loc, std::move(gloss));
  }
  (void)rng;
}

void World::GenerateItems(Rng* rng) {
  Grammar grammar(rng);
  item_profiles_.reserve(static_cast<size_t>(config_.num_items));
  for (int i = 0; i < config_.num_items; ++i) {
    ItemProfile profile;
    kg::ConceptId head = heads_[rng->Zipf(heads_.size(), 1.05)];
    profile.head = head;
    profile.category = head;
    const auto& kids = derived_of_[head];
    if (!kids.empty() && rng->Bernoulli(0.55)) {
      profile.category = kids[rng->Uniform(kids.size())];
    }
    profile.leaf_class = net_.Get(head).cls;

    auto maybe_attr = [&](const std::vector<kg::ConceptId>& pool, double p,
                          bool require_compat) -> std::optional<kg::ConceptId> {
      if (pool.empty() || !rng->Bernoulli(p)) return std::nullopt;
      for (int attempt = 0; attempt < 8; ++attempt) {
        kg::ConceptId c = Sample(pool, rng);
        if (!require_compat || Compatible(c, head)) return c;
      }
      return std::nullopt;
    };

    std::optional<kg::ConceptId> brand = maybe_attr(brands_, 0.7, false);
    std::optional<kg::ConceptId> color = maybe_attr(colors_, 0.6, true);
    std::optional<kg::ConceptId> fn = maybe_attr(functions_, 0.6, true);
    std::optional<kg::ConceptId> style = maybe_attr(styles_, 0.5, true);
    std::optional<kg::ConceptId> material = maybe_attr(materials_, 0.4, true);
    std::optional<kg::ConceptId> audience = maybe_attr(audiences_, 0.3, false);
    profile.season = maybe_attr(seasons_, 0.3, true);

    SentenceBuilder sb(Sentence::Source::kTitle);
    if (brand) sb.Concept(Tokens(*brand), "Brand");
    if (fn) sb.Concept(Tokens(*fn), "Function");
    if (color) sb.Concept(Tokens(*color), "Color");
    if (style) sb.Concept(Tokens(*style), "Style");
    if (material) sb.Concept(Tokens(*material), "Material");
    sb.Concept(Tokens(profile.category), "Category");
    if (audience) {
      sb.O("for");
      sb.Concept(Tokens(*audience), "Audience");
    }
    if (profile.season) {
      sb.O("for");
      sb.Concept(Tokens(*profile.season), "Time");
    }
    if (rng->Bernoulli(0.3)) sb.O(grammar.FillerNoun());
    Sentence title = sb.Build();

    auto res = net_.AddItem(title.tokens, profile.leaf_class);
    ALICOCO_CHECK(res.ok());
    profile.id = *res;
    ALICOCO_CHECK(net_.LinkItemToPrimitive(profile.id, profile.category).ok());
    for (auto attr : {brand, color, fn, style, material, audience,
                      profile.season}) {
      if (attr) {
        profile.attributes.push_back(*attr);
        (void)net_.LinkItemToPrimitive(profile.id, *attr);
      }
    }
    item_profiles_.push_back(profile);
    sentences_.push_back(std::move(title));
  }
}

void World::GenerateEcConcepts(Rng* rng) {
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());

  auto has_attr = [&](const ItemProfile& item, kg::ConceptId attr) {
    return std::find(item.attributes.begin(), item.attributes.end(), attr) !=
           item.attributes.end();
  };
  auto head_in = [&](const ItemProfile& item,
                     const std::vector<kg::ConceptId>& needs) {
    return std::find(needs.begin(), needs.end(), item.head) != needs.end();
  };

  // Single-primitive e-commerce concepts for events (so compound concepts
  // have isA parents, Table 2's "isA in e-commerce concepts").
  std::unordered_map<kg::ConceptId, kg::EcConceptId> event_ec;
  for (kg::ConceptId ev : all_events) {
    auto res = net_.GetOrAddEcConcept(Tokens(ev));
    ALICOCO_CHECK(res.ok());
    event_ec[ev] = *res;
    ALICOCO_CHECK(net_.LinkEcToPrimitive(*res, ev).ok());
    EcGold gold;
    gold.id = *res;
    gold.interpretation = {ev};
    gold.event_driven = true;
    const auto& needs = event_needs_[ev];
    for (const auto& item : item_profiles_) {
      if (head_in(item, needs)) {
        gold.items.push_back(item.id);
        (void)net_.LinkItemToEc(item.id, *res);
      }
    }
    ec_gold_.push_back(std::move(gold));
  }

  int made = 0;
  int guard = 0;
  while (made < config_.num_good_ec_concepts && ++guard < 50000) {
    int pattern = static_cast<int>(rng->Uniform(5));
    std::vector<std::string> tokens;
    std::vector<kg::ConceptId> interp;
    std::vector<std::pair<kg::ConceptId, std::string>> parts;  // concept, label
    bool event_driven = false;
    std::optional<kg::ConceptId> ev, constraint_a, constraint_b, category;

    switch (pattern) {
      case 0: {  // [Function] [Category] for [Event]
        kg::ConceptId e = Sample(all_events, rng);
        const auto& needs = event_needs_[e];
        if (needs.empty()) continue;
        kg::ConceptId head = needs[rng->Uniform(needs.size())];
        kg::ConceptId fn = Sample(functions_, rng);
        if (!Compatible(fn, e) || !Compatible(fn, head)) continue;
        parts = {{fn, "Function"}, {head, "Category"}};
        ev = e;
        constraint_a = fn;
        category = head;
        break;
      }
      case 1: {  // [Style] [Season] [Category]
        kg::ConceptId head = Sample(heads_, rng);
        kg::ConceptId style = Sample(styles_, rng);
        kg::ConceptId season = Sample(seasons_, rng);
        if (!Compatible(style, head) || !Compatible(season, head)) continue;
        parts = {{style, "Style"}, {season, "Time"}, {head, "Category"}};
        constraint_a = style;
        constraint_b = season;
        category = head;
        break;
      }
      case 2: {  // [Location] [Event]
        kg::ConceptId e = Sample(events_, rng);
        kg::ConceptId loc = Sample(locations_, rng);
        if (!Compatible(loc, e)) continue;
        parts = {{loc, "Location"}, {e, "Event"}};
        ev = e;
        event_driven = true;
        break;
      }
      case 3: {  // [Function] for [Audience]
        kg::ConceptId aud = Sample(audiences_, rng);
        kg::ConceptId fn = Sample(functions_, rng);
        if (!Compatible(fn, aud)) continue;
        parts = {{fn, "Function"}, {aud, "Audience"}};
        constraint_a = fn;
        constraint_b = aud;
        break;
      }
      case 4: {  // [Holiday] gifts for [Audience]
        if (holidays_.empty()) continue;
        kg::ConceptId hol = Sample(holidays_, rng);
        kg::ConceptId aud = Sample(audiences_, rng);
        parts = {{hol, "Time"}, {aud, "Audience"}};
        ev = hol;
        event_driven = true;
        break;
      }
    }

    // Assemble tokens with the pattern's function words.
    TaggedConcept tagged;
    auto push_part = [&](const std::pair<kg::ConceptId, std::string>& part) {
      const auto& toks = Tokens(part.first);
      for (size_t i = 0; i < toks.size(); ++i) {
        tokens.push_back(toks[i]);
        tagged.gold_iob.push_back((i == 0 ? "B-" : "I-") + part.second);
      }
      interp.push_back(part.first);
    };
    auto push_word = [&](const std::string& w) {
      tokens.push_back(w);
      tagged.gold_iob.push_back("O");
    };
    switch (pattern) {
      case 0:
        push_part(parts[0]);
        push_part(parts[1]);
        push_word("for");
        push_part({*ev, DomainLabel(*ev)});
        break;
      case 1:
        push_part(parts[0]);
        push_part(parts[1]);
        push_part(parts[2]);
        break;
      case 2:
        push_part(parts[0]);
        push_part(parts[1]);
        break;
      case 3:
        push_part(parts[0]);
        push_word("for");
        push_part(parts[1]);
        break;
      case 4:
        push_part(parts[0]);
        push_word("gifts");
        push_word("for");
        push_part(parts[1]);
        break;
    }

    if (net_.FindEcConcept(JoinStrings(tokens, " ")).has_value()) continue;
    auto res = net_.GetOrAddEcConcept(tokens);
    ALICOCO_CHECK(res.ok());
    kg::EcConceptId ec = *res;
    for (kg::ConceptId c : interp) {
      ALICOCO_CHECK(net_.LinkEcToPrimitive(ec, c).ok());
    }
    if (ev && event_ec.count(*ev)) {
      (void)net_.AddEcIsA(ec, event_ec[*ev]);
    }

    // Gold item associations.
    EcGold gold;
    gold.id = ec;
    gold.interpretation = interp;
    gold.event_driven = event_driven;
    const std::vector<kg::ConceptId>* needs =
        ev ? &event_needs_[*ev] : nullptr;
    for (const auto& item : item_profiles_) {
      bool ok;
      if (category) {
        // Category-anchored: item of that head satisfying attribute
        // constraints.
        ok = item.head == *category;
        if (ok && constraint_a) ok = has_attr(item, *constraint_a);
        if (ok && constraint_b) ok = has_attr(item, *constraint_b);
      } else if (event_driven && needs != nullptr) {
        // Event-anchored: semantic drift — relevance is via the event's
        // needed categories, not the concept's surface tokens.
        ok = head_in(item, *needs);
      } else {
        // Attribute-only concepts ([Function] for [Audience]).
        ok = constraint_a && has_attr(item, *constraint_a);
        if (ok && constraint_b) ok = ok && has_attr(item, *constraint_b);
      }
      if (ok) {
        gold.items.push_back(item.id);
        (void)net_.LinkItemToEc(item.id, ec);
      }
    }

    // Tagging supervision: allowed labels include every domain the surface
    // token exists in (fuzzy sets of Figure 7).
    tagged.tokens = tokens;
    tagged.allowed_iob.resize(tokens.size());
    for (size_t t = 0; t < tokens.size(); ++t) {
      tagged.allowed_iob[t].push_back(tagged.gold_iob[t]);
      if (tagged.gold_iob[t][0] == 'B') {
        for (kg::ConceptId sense : net_.FindPrimitive(tokens[t])) {
          std::string label = "B-" + DomainLabel(sense);
          if (std::find(tagged.allowed_iob[t].begin(),
                        tagged.allowed_iob[t].end(),
                        label) == tagged.allowed_iob[t].end()) {
            tagged.allowed_iob[t].push_back(label);
          }
        }
      }
    }
    tagged_concepts_.push_back(std::move(tagged));
    ec_gold_.push_back(std::move(gold));
    ++made;
  }
  ALICOCO_CHECK(made == config_.num_good_ec_concepts)
      << "could not generate enough good e-commerce concepts";
}

void World::GenerateCandidates(Rng* rng) {
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());

  // Good candidates: the surfaces of gold compound e-commerce concepts.
  std::vector<const TaggedConcept*> goods;
  for (const auto& t : tagged_concepts_) goods.push_back(&t);
  size_t num_good = std::min(goods.size(),
                             static_cast<size_t>(config_.num_good_ec_concepts));
  for (size_t i = 0; i < num_good; ++i) {
    ConceptCandidate c;
    c.tokens = goods[i]->tokens;
    c.good = true;
    concept_candidates_.push_back(std::move(c));
  }

  int made = 0;
  int guard = 0;
  // Plausibility is the hard criterion (Section 5.2.2), so implausible
  // candidates dominate the negative mix; fragments are what phrase mining
  // produces by crossing concept boundaries.
  const std::vector<double> kind_weights = {0.35, 0.20, 0.10, 0.10, 0.25};
  while (made < config_.num_bad_ec_concepts && ++guard < 100000) {
    ConceptCandidate c;
    c.good = false;
    int kind = static_cast<int>(rng->Categorical(kind_weights));
    switch (kind) {
      case 0: {  // Implausible: an incompatible pair in a valid pattern.
        int sub = static_cast<int>(rng->Uniform(3));
        if (sub == 0) {
          kg::ConceptId e = Sample(all_events, rng);
          kg::ConceptId fn = Sample(functions_, rng);
          const auto& needs = event_needs_[e];
          if (needs.empty()) continue;
          kg::ConceptId head = needs[rng->Uniform(needs.size())];
          if (Compatible(fn, e)) continue;  // must violate
          c.tokens = Tokens(fn);
          for (const auto& t : Tokens(head)) c.tokens.push_back(t);
          c.tokens.push_back("for");
          for (const auto& t : Tokens(e)) c.tokens.push_back(t);
        } else if (sub == 1) {
          kg::ConceptId style = Sample(styles_, rng);
          kg::ConceptId head = Sample(heads_, rng);
          if (Compatible(style, head)) continue;
          c.tokens = Tokens(style);
          for (const auto& t : Tokens(head)) c.tokens.push_back(t);
        } else {
          // "waterproofing for middle school students": function unsuited
          // to the audience.
          kg::ConceptId fn = Sample(functions_, rng);
          kg::ConceptId aud = Sample(audiences_, rng);
          if (Compatible(fn, aud)) continue;
          c.tokens = Tokens(fn);
          c.tokens.push_back("for");
          for (const auto& t : Tokens(aud)) c.tokens.push_back(t);
        }
        c.flaw = ConceptCandidate::Flaw::kImplausible;
        break;
      }
      case 1: {  // Incoherent: scramble a good concept.
        const TaggedConcept* src = goods[rng->Uniform(goods.size())];
        if (src->tokens.size() < 3) continue;
        c.tokens = src->tokens;
        Rng fork = rng->Fork();
        fork.Shuffle(&c.tokens);
        if (c.tokens == src->tokens) continue;
        c.flaw = ConceptCandidate::Flaw::kIncoherent;
        break;
      }
      case 2: {  // Duplicate class: two styles on one category.
        kg::ConceptId s1 = Sample(styles_, rng);
        kg::ConceptId s2 = Sample(styles_, rng);
        if (s1 == s2) continue;
        kg::ConceptId head = Sample(heads_, rng);
        c.tokens = Tokens(s1);
        for (const auto& t : Tokens(s2)) c.tokens.push_back(t);
        for (const auto& t : Tokens(head)) c.tokens.push_back(t);
        c.flaw = ConceptCandidate::Flaw::kDuplicateClass;
        break;
      }
      case 3: {  // Non-e-commerce: nature word + gerund / color + nature.
        if (natures_.empty()) continue;
        kg::ConceptId nat = Sample(natures_, rng);
        if (rng->Bernoulli(0.5)) {
          kg::ConceptId col = Sample(colors_, rng);
          c.tokens = Tokens(col);
          for (const auto& t : Tokens(nat)) c.tokens.push_back(t);
        } else {
          kg::ConceptId e = Sample(events_, rng);
          c.tokens = Tokens(nat);
          for (const auto& t : Tokens(e)) c.tokens.push_back(t);
        }
        c.flaw = ConceptCandidate::Flaw::kNonEcommerce;
        break;
      }
      case 4: {  // Fragment: two compatible attribute+category pieces
                 // concatenated — clear, plausible pieces, no clarity.
        kg::ConceptId h1 = Sample(heads_, rng);
        kg::ConceptId h2 = Sample(heads_, rng);
        if (h1 == h2) continue;
        auto pick_attr = [&](kg::ConceptId head) -> kg::ConceptId {
          for (int attempt = 0; attempt < 16; ++attempt) {
            const auto& pool = rng->Bernoulli(0.5) ? functions_ : styles_;
            kg::ConceptId a = Sample(pool, rng);
            if (Compatible(a, head)) return a;
          }
          return Sample(colors_, rng);
        };
        kg::ConceptId a1 = pick_attr(h1);
        c.tokens = Tokens(a1);
        for (const auto& t : Tokens(h1)) c.tokens.push_back(t);
        if (rng->Bernoulli(0.5)) {
          kg::ConceptId a2 = pick_attr(h2);
          for (const auto& t : Tokens(a2)) c.tokens.push_back(t);
        }
        for (const auto& t : Tokens(h2)) c.tokens.push_back(t);
        c.flaw = ConceptCandidate::Flaw::kFragment;
        break;
      }
    }
    concept_candidates_.push_back(std::move(c));
    ++made;
  }
}

void World::GenerateCorpus(Rng* rng) {
  Grammar grammar(rng);
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());

  // Titles beyond the per-item ones: resample items.
  int extra_titles = config_.titles - config_.num_items;
  for (int i = 0; i < extra_titles; ++i) {
    const Sentence& src =
        sentences_[rng->Uniform(static_cast<size_t>(config_.num_items))];
    sentences_.push_back(src);
  }

  // Reviews: carrier sentences describing items.
  for (int i = 0; i < config_.reviews; ++i) {
    const ItemProfile& item =
        item_profiles_[rng->Uniform(item_profiles_.size())];
    SentenceBuilder sb(Sentence::Source::kReview);
    sb.O(grammar.Determiner());
    sb.Concept(Tokens(item.category), "Category");
    sb.O(grammar.Copula());
    sb.O(grammar.Intensifier());
    bool described = false;
    for (kg::ConceptId attr : item.attributes) {
      std::string domain = DomainLabel(attr);
      if (domain == "Function" || domain == "Style" || domain == "Color") {
        if (described) sb.O(grammar.Conjunction());
        sb.Concept(Tokens(attr), domain);
        described = true;
        if (rng->Bernoulli(0.5)) break;
      }
    }
    if (!described) sb.Concept(Tokens(Sample(functions_, rng)), "Function");
    sentences_.push_back(sb.Build());
  }

  // Guides: Hearst patterns + event-needs sentences.
  for (int i = 0; i < config_.guides; ++i) {
    SentenceBuilder sb(Sentence::Source::kGuide);
    int kind = static_cast<int>(rng->Uniform(4));
    if (kind == 3 && !groups_.empty()) {
      // "<group> such as <head> and <head>" — the only textual evidence for
      // token-disjoint hypernyms.
      kg::ConceptId group = Sample(groups_, rng);
      kg::ClassId mid = net_.Get(group).cls;
      std::vector<kg::ConceptId> members;
      for (kg::ConceptId head : heads_) {
        if (net_.taxonomy().Get(net_.Get(head).cls).parent == mid) {
          members.push_back(head);
        }
      }
      if (members.size() < 2) {
        --i;
        continue;
      }
      sb.Concept(Tokens(group), "Category");
      sb.O("such");
      sb.O("as");
      sb.Concept(Tokens(members[rng->Uniform(members.size())]), "Category");
      sb.O("and");
      sb.Concept(Tokens(members[rng->Uniform(members.size())]), "Category");
      sentences_.push_back(sb.Build());
      continue;
    }
    if (kind == 3) kind = 0;
    if (kind == 0) {
      // "<head> such as <derived> and <derived>"
      kg::ConceptId head = Sample(heads_, rng);
      const auto& kids = derived_of_[head];
      if (kids.size() < 2) {
        --i;
        continue;
      }
      kg::ConceptId a = kids[rng->Uniform(kids.size())];
      kg::ConceptId b = kids[rng->Uniform(kids.size())];
      sb.Concept(Tokens(head), "Category");
      sb.O("such");
      sb.O("as");
      sb.Concept(Tokens(a), "Category");
      sb.O("and");
      sb.Concept(Tokens(b), "Category");
    } else if (kind == 1) {
      // "for <event> you need <head> and <head>". Only the first half of an
      // event's needs ever appears in text: the rest is the corpus gap that
      // only encyclopedia knowledge can bridge (the paper's moon-cake case).
      kg::ConceptId ev = Sample(all_events, rng);
      const auto& needs = event_needs_[ev];
      if (needs.size() < 2) {
        --i;
        continue;
      }
      size_t visible = (needs.size() + 1) / 2;
      sb.O("for");
      sb.Concept(Tokens(ev), DomainLabel(ev));
      sb.O("you");
      sb.O("need");
      sb.Concept(Tokens(needs[rng->Uniform(visible)]), "Category");
      sb.O("and");
      sb.Concept(Tokens(needs[rng->Uniform(visible)]), "Category");
    } else {
      // "every <event> needs <derived-or-head> in <location>"
      kg::ConceptId ev = Sample(events_, rng);
      const auto& needs = event_needs_[ev];
      if (needs.empty()) {
        --i;
        continue;
      }
      size_t visible = (needs.size() + 1) / 2;
      kg::ConceptId head = needs[rng->Uniform(visible)];
      const auto& kids = derived_of_[head];
      kg::ConceptId cat =
          (!kids.empty() && rng->Bernoulli(0.6))
              ? kids[rng->Uniform(kids.size())]
              : head;
      sb.O("every");
      sb.Concept(Tokens(ev), DomainLabel(ev));
      sb.O("needs");
      sb.Concept(Tokens(cat), "Category");
      sb.O("in");
      sb.Concept(Tokens(Sample(locations_, rng)), "Location");
    }
    sentences_.push_back(sb.Build());
  }

  // Queries: short and noisy.
  WordMinter noise_minter(rng->NextUint64() ^ 0x51F1);
  for (int i = 0; i < config_.queries; ++i) {
    SentenceBuilder sb(Sentence::Source::kQuery);
    int kind = static_cast<int>(rng->Uniform(4));
    if (kind == 0) {
      kg::ConceptId head = Sample(heads_, rng);
      const auto& kids = derived_of_[head];
      kg::ConceptId cat = (!kids.empty() && rng->Bernoulli(0.5))
                              ? kids[rng->Uniform(kids.size())]
                              : head;
      sb.Concept(Tokens(cat), "Category");
    } else if (kind == 1) {
      sb.Concept(Tokens(Sample(functions_, rng)), "Function");
      sb.Concept(Tokens(Sample(heads_, rng)), "Category");
    } else if (kind == 2) {
      sb.Concept(Tokens(Sample(brands_, rng)), "Brand");
      sb.Concept(Tokens(Sample(heads_, rng)), "Category");
    } else {
      kg::ConceptId ev = Sample(all_events, rng);
      sb.Concept(Tokens(ev), DomainLabel(ev));
    }
    if (rng->Bernoulli(0.1)) sb.O(noise_minter.MintNoun());
    sentences_.push_back(sb.Build());
  }
}

void World::GenerateUsers(Rng* rng) {
  // Only needs with enough items are usable as latent interests.
  std::vector<const EcGold*> rich;
  for (const auto& g : ec_gold_) {
    if (g.items.size() >= 3) rich.push_back(&g);
  }
  if (rich.empty()) return;
  for (int u = 0; u < config_.num_users; ++u) {
    UserHistory history;
    size_t num_needs = 1 + rng->Uniform(3);
    for (size_t k = 0; k < num_needs; ++k) {
      const EcGold* need = rich[rng->Uniform(rich.size())];
      if (std::find(history.needs.begin(), history.needs.end(), need->id) !=
          history.needs.end()) {
        continue;
      }
      history.needs.push_back(need->id);
      size_t clicks = 2 + rng->Uniform(4);
      for (size_t c = 0; c < clicks; ++c) {
        history.clicked.push_back(
            need->items[rng->Uniform(need->items.size())]);
      }
    }
    // Popularity noise.
    for (int c = 0; c < 2; ++c) {
      history.clicked.push_back(
          item_profiles_[rng->Zipf(item_profiles_.size(), 1.1)].id);
    }
    user_histories_.push_back(std::move(history));
  }
}

void World::GenerateNeedsQueries(Rng* rng) {
  WordMinter novel(rng->NextUint64() ^ 0xBEEF);
  std::vector<kg::ConceptId> all_events = events_;
  all_events.insert(all_events.end(), holidays_.begin(), holidays_.end());
  for (int i = 0; i < config_.num_needs_queries; ++i) {
    std::vector<std::string> q;
    int kind = static_cast<int>(rng->Uniform(4));
    auto push_concept = [&](kg::ConceptId id) {
      for (const auto& t : Tokens(id)) q.push_back(t);
    };
    switch (kind) {
      case 0:
        push_concept(Sample(all_events, rng));
        push_concept(Sample(heads_, rng));
        break;
      case 1:
        push_concept(Sample(functions_, rng));
        push_concept(Sample(heads_, rng));
        break;
      case 2:
        push_concept(Sample(locations_, rng));
        push_concept(Sample(all_events, rng));
        break;
      case 3:
        push_concept(Sample(audiences_, rng));
        push_concept(Sample(styles_, rng));
        break;
    }
    // A slice of genuinely new trend words no ontology can know yet.
    if (rng->Bernoulli(0.45)) q.push_back(novel.MintNoun());
    needs_queries_.push_back(std::move(q));
  }
}

void World::BuildSeedDictionary(Rng* rng) {
  // Hold out a fraction of derived Category concepts: they occur in the
  // corpus but are absent from the bootstrap dictionary, so the mining loop
  // has something to discover.
  std::vector<kg::ConceptId> shuffled = derived_;
  rng->Shuffle(&shuffled);
  size_t holdout = static_cast<size_t>(config_.holdout_category_fraction *
                                       static_cast<double>(shuffled.size()));
  for (size_t i = 0; i < holdout; ++i) {
    const std::string& surface = net_.Get(shuffled[i]).surface;
    holdout_surfaces_.push_back(surface);
    holdout_set_.insert(surface);
  }
  for (const auto& p : net_.primitives()) {
    if (holdout_set_.count(p.surface)) continue;
    seed_dictionary_.emplace_back(p.surface, DomainLabel(p.id));
  }
}

bool World::GoldCompatible(kg::ConceptId a, kg::ConceptId b) const {
  auto head_or_self = [&](kg::ConceptId c) {
    auto it = head_of_.find(c);
    return it == head_of_.end() ? c : it->second;
  };
  kg::ConceptId ha = head_or_self(a);
  kg::ConceptId hb = head_or_self(b);
  return Compatible(a, b) || Compatible(ha, b) || Compatible(a, hb) ||
         Compatible(ha, hb);
}

bool World::IsGoodConcept(const std::vector<std::string>& tokens) const {
  if (tokens.empty() || tokens.size() > 6) return false;

  // Segment into pieces: literals ("for", "gifts") or known surfaces
  // (longest match, up to 2 tokens since world surfaces have <= 2 tokens).
  struct Piece {
    bool literal = false;
    std::string word;
    std::span<const kg::ConceptId> senses;
  };
  std::vector<Piece> pieces;
  size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i] == "for" || tokens[i] == "gifts") {
      Piece p;
      p.literal = true;
      p.word = tokens[i];
      pieces.push_back(std::move(p));
      ++i;
      continue;
    }
    // Longest match first.
    std::span<const kg::ConceptId> senses;
    size_t len = 0;
    if (i + 1 < tokens.size()) {
      senses = net_.FindPrimitive(tokens[i] + " " + tokens[i + 1]);
      if (!senses.empty()) len = 2;
    }
    if (senses.empty()) {
      senses = net_.FindPrimitive(tokens[i]);
      len = 1;
    }
    if (senses.empty()) return false;  // unknown word: not a concept
    Piece p;
    p.senses = senses;
    pieces.push_back(std::move(p));
    i += len;
  }

  // Enumerate sense assignments (small products only).
  size_t combos = 1;
  for (const auto& p : pieces) {
    if (!p.literal) combos *= p.senses.size();
    if (combos > 64) return false;
  }

  auto head_or_self = [&](kg::ConceptId c) {
    auto it = head_of_.find(c);
    return it == head_of_.end() ? c : it->second;
  };
  auto needs_contains = [&](kg::ConceptId ev, kg::ConceptId cat) {
    auto it = event_needs_.find(ev);
    if (it == event_needs_.end()) return false;
    kg::ConceptId head = head_or_self(cat);
    return std::find(it->second.begin(), it->second.end(), head) !=
           it->second.end();
  };

  for (size_t combo = 0; combo < combos; ++combo) {
    // Decode this combination into a signature of (domain, concept).
    std::vector<std::pair<std::string, kg::ConceptId>> sig;
    std::string shape;
    size_t rem = combo;
    bool valid = true;
    for (const auto& p : pieces) {
      if (p.literal) {
        shape += p.word + " ";
        continue;
      }
      size_t pick = rem % p.senses.size();
      rem /= p.senses.size();
      kg::ConceptId c = p.senses[pick];
      std::string domain = DomainLabel(c);
      sig.emplace_back(domain, c);
      shape += domain + " ";
    }
    if (!valid) continue;

    auto compat = [&](size_t a, size_t b) {
      return Compatible(sig[a].second, sig[b].second) ||
             Compatible(head_or_self(sig[a].second),
                        head_or_self(sig[b].second)) ||
             Compatible(sig[a].second, head_or_self(sig[b].second)) ||
             Compatible(head_or_self(sig[a].second), sig[b].second);
    };

    if (shape == "Event " || shape == "Time ") {
      // A bare event / holiday is itself a shopping scenario.
      if (event_needs_.count(sig[0].second)) return true;
    } else if (shape == "Function Category for Event " ||
               shape == "Function Category for Time ") {
      if (compat(0, 2) && compat(0, 1) &&
          needs_contains(sig[2].second, sig[1].second)) {
        return true;
      }
    } else if (shape == "Style Time Category ") {
      if (compat(0, 2) && compat(1, 2)) return true;
    } else if (shape == "Location Event ") {
      if (compat(0, 1)) return true;
    } else if (shape == "Function for Audience " ||
               shape == "Function Audience ") {
      if (compat(0, 1)) return true;
    } else if (shape == "Time gifts for Audience ") {
      if (event_needs_.count(sig[0].second)) return true;
    } else if (shape == "Function Category " || shape == "Style Category " ||
               shape == "Color Category " || shape == "Material Category ") {
      // Attribute + category pairs ("warm hat") are plausible shopping
      // concepts when the attribute suits the category.
      if (compat(0, 1)) return true;
    } else if (shape == "Brand Category " || shape == "Category ") {
      // Brand-qualified or bare categories always carry shopping meaning.
      return true;
    }
  }
  return false;
}

}  // namespace alicoco::datagen
