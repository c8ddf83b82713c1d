#include "kg/persistence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include "datagen/world.h"
#include "kg/stats.h"

namespace alicoco::kg {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

ConceptNet BuildNet() {
  ConceptNet net;
  auto& tax = net.taxonomy();
  ClassId category = *tax.AddDomain("Category");
  ClassId event = *tax.AddDomain("Event");
  ClassId time = *tax.AddDomain("Time");
  ClassId season = *tax.AddClass("Season", time);
  EXPECT_TRUE(net.AddRelation("suitable_when", category, season).ok());

  ConceptId grill = *net.GetOrAddPrimitiveConcept("grill", category);
  ConceptId cookware = *net.GetOrAddPrimitiveConcept("cookware", category);
  ConceptId barbecue = *net.GetOrAddPrimitiveConcept("barbecue", event);
  ConceptId winter = *net.GetOrAddPrimitiveConcept("winter", season);
  EXPECT_TRUE(net.SetGloss(grill, {"metal", "rack", "for", "cooking"}).ok());
  EXPECT_TRUE(net.AddIsA(grill, cookware).ok());
  EXPECT_TRUE(net.AddTypedRelation("suitable_when", grill, winter).ok());

  EcConceptId ob = *net.GetOrAddEcConcept({"outdoor", "barbecue"});
  EcConceptId any = *net.GetOrAddEcConcept({"barbecue"});
  EXPECT_TRUE(net.AddEcIsA(ob, any).ok());
  EXPECT_TRUE(net.LinkEcToPrimitive(ob, barbecue).ok());

  ItemId item = *net.AddItem({"steel", "grill"}, category);
  EXPECT_TRUE(net.LinkItemToPrimitive(item, grill).ok());
  EXPECT_TRUE(net.LinkItemToEc(item, ob).ok());
  return net;
}

TEST(PersistenceTest, RoundTripPreservesEverything) {
  ConceptNet net = BuildNet();
  std::string path = TempPath("net.txt");
  ASSERT_TRUE(SaveConceptNet(net, path).ok());
  auto loaded = LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ConceptNet& net2 = *loaded;

  EXPECT_EQ(net2.taxonomy().size(), net.taxonomy().size());
  EXPECT_EQ(net2.num_primitive_concepts(), net.num_primitive_concepts());
  EXPECT_EQ(net2.num_ec_concepts(), net.num_ec_concepts());
  EXPECT_EQ(net2.num_items(), net.num_items());
  EXPECT_EQ(net2.num_isa_primitive(), net.num_isa_primitive());
  EXPECT_EQ(net2.num_isa_ec(), net.num_isa_ec());
  EXPECT_EQ(net2.num_ec_primitive_links(), net.num_ec_primitive_links());
  EXPECT_EQ(net2.num_item_primitive_links(), net.num_item_primitive_links());
  EXPECT_EQ(net2.num_item_ec_links(), net.num_item_ec_links());
  EXPECT_EQ(net2.typed_relations().size(), net.typed_relations().size());

  // Content-level check: ids and surfaces coincide.
  auto grill = net2.FindPrimitive("grill");
  ASSERT_EQ(grill.size(), 1u);
  EXPECT_EQ(net2.Get(grill[0]).gloss.size(), 4u);
  auto ob = net2.FindEcConcept("outdoor barbecue");
  ASSERT_TRUE(ob.has_value());
  EXPECT_EQ(net2.ItemsForEc(*ob).size(), 1u);
  auto closure = net2.HypernymClosure(grill[0]);
  ASSERT_EQ(closure.size(), 1u);
  EXPECT_EQ(net2.Get(closure[0]).surface, "cookware");
}

TEST(PersistenceTest, StatisticsIdenticalAfterRoundTrip) {
  ConceptNet net = BuildNet();
  std::string path = TempPath("net2.txt");
  ASSERT_TRUE(SaveConceptNet(net, path).ok());
  auto loaded = LoadConceptNet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(StatisticsToTable(ComputeStatistics(net)),
            StatisticsToTable(ComputeStatistics(*loaded)));
}

TEST(PersistenceTest, MissingFile) {
  EXPECT_TRUE(LoadConceptNet("/no/such/file").status().IsIOError());
}

TEST(PersistenceTest, BadHeaderRejected) {
  std::string path = TempPath("bad.txt");
  std::ofstream(path) << "WRONG HEADER\n";
  EXPECT_TRUE(LoadConceptNet(path).status().IsCorruption());
}

TEST(PersistenceTest, TruncatedFileRejected) {
  ConceptNet net = BuildNet();
  std::string path = TempPath("trunc.txt");
  ASSERT_TRUE(SaveConceptNet(net, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path) << content.substr(0, content.size() / 2);
  EXPECT_TRUE(LoadConceptNet(path).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Corrupted-snapshot behavior: every mutation below must surface as
// Status::Corruption — never a crash, an uncaught exception, or a
// count-driven over-allocation.

std::string SnapshotOf(const ConceptNet& net, const char* name) {
  std::string path = TempPath(name);
  EXPECT_TRUE(SaveConceptNet(net, path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string SaveNetToString(const char* name) {
  return SnapshotOf(BuildNet(), name);
}

Status LoadFromString(const char* name, const std::string& content) {
  std::string path = TempPath(name);
  std::ofstream(path) << content;
  return LoadConceptNet(path).status();
}

/// Replaces the whole line beginning with `prefix` (e.g. a section
/// header) with `replacement`.
std::string WithLineReplaced(std::string content, const std::string& prefix,
                             const std::string& replacement) {
  size_t at = content.rfind("\n" + prefix + " ");
  EXPECT_NE(at, std::string::npos) << prefix;
  size_t line_start = at + 1;
  size_t line_end = content.find('\n', line_start);
  content.replace(line_start, line_end - line_start, replacement);
  return content;
}

TEST(PersistenceTest, BitFlippedMagicRejected) {
  std::string content = SaveNetToString("flip_src.txt");
  content[0] ^= 0x20;  // 'A' -> 'a' in ALICOCO_NET
  EXPECT_TRUE(LoadFromString("flip.txt", content).IsCorruption());
}

TEST(PersistenceTest, GarbageCountRejected) {
  // std::stoull throws on this; the loader must catch and report, not die.
  std::string content = SaveNetToString("garbage_src.txt");
  EXPECT_TRUE(LoadFromString("garbage.txt",
                             WithLineReplaced(content, "SCHEMA",
                                              "SCHEMA banana"))
                  .IsCorruption());
}

TEST(PersistenceTest, TrailingJunkInCountRejected) {
  // stoull alone would silently accept "3x" as 3.
  std::string content = SaveNetToString("junkcount_src.txt");
  EXPECT_TRUE(LoadFromString("junkcount.txt",
                             WithLineReplaced(content, "SCHEMA", "SCHEMA 1x"))
                  .IsCorruption());
}

TEST(PersistenceTest, ImplausibleCountRejected) {
  // One flipped length field must not drive the load loop (and every
  // allocation behind it) to an astronomical trip count.
  std::string content = SaveNetToString("bigcount_src.txt");
  EXPECT_TRUE(LoadFromString(
                  "bigcount.txt",
                  WithLineReplaced(content, "PRIMITIVE",
                                   "PRIMITIVE 99999999999999999"))
                  .IsCorruption());
}

TEST(PersistenceTest, NegativeCountRejected) {
  // stoull wraps "-1" to ULLONG_MAX; the plausibility cap catches it.
  std::string content = SaveNetToString("negcount_src.txt");
  EXPECT_TRUE(LoadFromString("negcount.txt",
                             WithLineReplaced(content, "ISA", "ISA -1"))
                  .IsCorruption());
}

TEST(PersistenceTest, OversizedIdFieldRejected) {
  // An id that cannot fit in 32 bits must be corruption, not a silent
  // truncating cast.
  std::string content = SaveNetToString("bigid_src.txt");
  const std::string needle = "\tCategory\n";
  size_t at = content.find(needle);
  ASSERT_NE(at, std::string::npos);
  size_t line_start = content.rfind('\n', at) + 1;
  content.replace(line_start, at - line_start, "8589934592");
  EXPECT_TRUE(LoadFromString("bigid.txt", content).IsCorruption());
}

TEST(PersistenceTest, GarbageEdgeProbabilityRejected) {
  std::string content = SaveNetToString("badprob_src.txt");
  // The ITEM_EC payload line is `item \t ec \t probability`.
  size_t header = content.find("\nITEM_EC ");
  ASSERT_NE(header, std::string::npos);
  size_t line_start = content.find('\n', header + 1) + 1;
  size_t line_end = content.find('\n', line_start);
  ASSERT_NE(line_end, std::string::npos);
  std::string edge = content.substr(line_start, line_end - line_start);
  size_t last_tab = edge.rfind('\t');
  ASSERT_NE(last_tab, std::string::npos);
  edge.replace(last_tab + 1, std::string::npos, "not-a-number");
  content.replace(line_start, line_end - line_start, edge);
  EXPECT_TRUE(LoadFromString("badprob.txt", content).IsCorruption());
}

// ---------------------------------------------------------------------------
// Snapshot bytes. Edge lines follow row order, so a reordered row changes
// the snapshot even where a round trip still passes. A change that alters
// BuildNet() re-records the literal, and one that alters the generated
// world below re-records the digest; either says so in CHANGES.md.

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(PersistenceTest, SnapshotBytesOfHandBuiltNetArePinned) {
  const std::string expected =
      "ALICOCO_NET v1\n"
      "TAXONOMY 4\n"
      "0\tCategory\n"
      "0\tEvent\n"
      "0\tTime\n"
      "3\tSeason\n"
      "SCHEMA 1\n"
      "1\t4\tsuitable_when\n"
      "PRIMITIVE 4\n"
      "1\tgrill\tmetal rack for cooking\n"
      "1\tcookware\t\n"
      "2\tbarbecue\t\n"
      "4\twinter\t\n"
      "EC 2\n"
      "outdoor barbecue\n"
      "barbecue\n"
      "ITEM 1\n"
      "1\tsteel grill\n"
      "ISA 1\n"
      "0\t1\n"
      "EC_ISA 1\n"
      "0\t1\n"
      "EC_PRIM 1\n"
      "0\t2\n"
      "ITEM_PRIM 1\n"
      "0\t0\n"
      "ITEM_EC 1\n"
      "0\t0\t1\n"
      "TYPED 1\n"
      "0\t3\tsuitable_when\n";
  EXPECT_EQ(SaveNetToString("pinned.txt"), expected);
}

TEST(PersistenceTest, SnapshotDigestOfGeneratedGoldNetIsPinned) {
  datagen::WorldConfig cfg;
  cfg.seed = 7;
  cfg.heads_per_leaf = 2;
  cfg.derived_per_head = 3;
  cfg.per_domain_vocab = 12;
  cfg.num_events = 10;
  cfg.num_items = 400;
  cfg.num_good_ec_concepts = 60;
  cfg.num_bad_ec_concepts = 60;
  cfg.titles = 500;
  cfg.reviews = 300;
  cfg.guides = 200;
  cfg.queries = 200;
  cfg.num_users = 30;
  cfg.num_needs_queries = 100;
  // World::Generate runs no nn code, so its gold net is the same on every
  // SIMD tier and pool size.
  const datagen::World world = datagen::World::Generate(cfg);
  const std::string bytes = SnapshotOf(world.net(), "gold_net.txt");
  EXPECT_GT(bytes.size(), 10000u);
  EXPECT_EQ(Fnv1a64(bytes), 0x43234b6b7add654bull)
      << std::hex << Fnv1a64(bytes);
}

}  // namespace
}  // namespace alicoco::kg
