// Replays the committed corrupted-input corpus (tests/corpus/) through
// every deserializer in the tree. Each file must produce a clean Status
// error — never a crash, an uncaught exception, unbounded recursion, or
// a count-driven over-allocation. tools/ci.sh re-runs this suite under
// ASan/UBSan so memory errors on the corrupt paths surface too.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kg/persistence.h"
#include "nn/serialize.h"
#include "obs/json.h"

namespace alicoco {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles(const char* subdir,
                                  const char* ext = nullptr) {
  fs::path dir = fs::path(ALICOCO_CORPUS_DIR) / subdir;
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (ext != nullptr && entry.path().extension() != ext) continue;
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  EXPECT_FALSE(out.empty()) << "empty corpus dir " << dir;
  return out;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CorpusReplayTest, KgSnapshotsFailCleanly) {
  for (const fs::path& file : CorpusFiles("kg")) {
    auto loaded = kg::LoadConceptNet(file.generic_string());
    EXPECT_FALSE(loaded.ok()) << file << " loaded a corrupt snapshot";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << file << ": " << loaded.status().ToString();
  }
}

TEST(CorpusReplayTest, NnCheckpointsFailCleanly) {
  // The loader checks counts/names against an already-constructed store,
  // so give it one real 2x2 parameter named "w" — that lets count=1
  // corpus files reach the deeper name/shape/payload validation.
  Rng rng(42);
  for (const fs::path& file : CorpusFiles("nn", ".bin")) {
    const bool quant =
        file.filename().generic_string().rfind("quant_", 0) == 0;
    Status status;
    if (quant) {
      nn::quant::QuantizedStore store;
      status = nn::LoadQuantizedStore(&store, file.generic_string());
    } else {
      nn::ParameterStore store;
      store.Create("w", 2, 2, nn::ParameterStore::Init::kZero, &rng);
      status = nn::LoadParameters(&store, file.generic_string());
    }
    EXPECT_FALSE(status.ok()) << file << " loaded a corrupt checkpoint";
    EXPECT_TRUE(status.IsCorruption())
        << file << ": " << status.ToString();
  }
}

TEST(CorpusReplayTest, JsonDocumentsFailCleanly) {
  for (const fs::path& file : CorpusFiles("json")) {
    auto parsed = obs::ParseJson(ReadAll(file));
    EXPECT_FALSE(parsed.ok()) << file << " parsed a corrupt document";
    EXPECT_TRUE(parsed.status().IsCorruption())
        << file << ": " << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace alicoco
