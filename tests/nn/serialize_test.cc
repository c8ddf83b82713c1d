#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

namespace alicoco::nn {
namespace {

// RAII stdio handle so every test path closes the file (mirrors the
// FilePtr used inside nn/serialize.cc).
using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

FilePtr OpenFile(const char* path, const char* mode) {
  return FilePtr(std::fopen(path, mode), &std::fclose);
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void BuildStore(ParameterStore* store, uint64_t seed) {
  Rng rng(seed);
  store->Create("emb.table", 5, 3, ParameterStore::Init::kGaussian, &rng,
                0.5f);
  store->Create("fc.W", 3, 2, ParameterStore::Init::kXavier, &rng);
  store->Create("fc.b", 1, 2, ParameterStore::Init::kGaussian, &rng, 0.5f);
}

TEST(SerializeTest, RoundTripRestoresWeights) {
  ParameterStore a;
  BuildStore(&a, 1);
  std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());

  ParameterStore b;
  BuildStore(&b, 99);  // different init
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  for (size_t i = 0; i < a.params().size(); ++i) {
    const auto& pa = a.params()[i];
    const auto& pb = b.params()[i];
    ASSERT_EQ(pa->value.size(), pb->value.size());
    for (size_t k = 0; k < pa->value.size(); ++k) {
      EXPECT_FLOAT_EQ(pa->value.data()[k], pb->value.data()[k]);
    }
  }
}

TEST(SerializeTest, MissingFileIsIOError) {
  ParameterStore s;
  BuildStore(&s, 1);
  EXPECT_TRUE(LoadParameters(&s, "/nonexistent/dir/x.bin").IsIOError());
}

TEST(SerializeTest, BadMagicIsCorruption) {
  std::string path = TempPath("garbage.bin");
  FilePtr f = OpenFile(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f.get());
  f.reset();
  ParameterStore s;
  BuildStore(&s, 1);
  EXPECT_TRUE(LoadParameters(&s, path).IsCorruption());
}

TEST(SerializeTest, ParameterCountMismatchRejected) {
  ParameterStore a;
  BuildStore(&a, 1);
  std::string path = TempPath("count.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ParameterStore b;  // empty store
  EXPECT_TRUE(LoadParameters(&b, path).IsInvalidArgument());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  ParameterStore a;
  Rng rng(1);
  a.Create("w", 2, 2, ParameterStore::Init::kXavier, &rng);
  std::string path = TempPath("shape.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ParameterStore b;
  b.Create("w", 3, 2, ParameterStore::Init::kXavier, &rng);
  EXPECT_TRUE(LoadParameters(&b, path).IsInvalidArgument());
}

TEST(SerializeTest, UnknownParameterNameRejected) {
  ParameterStore a;
  Rng rng(1);
  a.Create("w", 2, 2, ParameterStore::Init::kXavier, &rng);
  std::string path = TempPath("name.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ParameterStore b;
  b.Create("other", 2, 2, ParameterStore::Init::kXavier, &rng);
  EXPECT_TRUE(LoadParameters(&b, path).IsNotFound());
}

TEST(SerializeTest, TruncatedFileIsCorruption) {
  ParameterStore a;
  BuildStore(&a, 1);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  // Truncate to half size.
  FilePtr f = OpenFile(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f.get(), 0, SEEK_END);
  long size = std::ftell(f.get());
  f.reset();
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  ParameterStore b;
  BuildStore(&b, 2);
  EXPECT_TRUE(LoadParameters(&b, path).IsCorruption());
}

TEST(SerializeTest, DuplicateParameterNameIsCorruption) {
  ParameterStore a;
  Rng rng(1);
  a.Create("a", 1, 2, ParameterStore::Init::kXavier, &rng);
  a.Create("b", 1, 2, ParameterStore::Init::kXavier, &rng);
  std::string path = TempPath("duplicate.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  // The file holds magic and count, then per entry name length, name, rows,
  // cols and weights. Rename the second entry from "b" to "a", so the file
  // lists "a" twice and never "b".
  const long second_name = 4 + 4 + (4 + 1 + 4 + 4 + 2 * 4) + 4;
  FilePtr f = OpenFile(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f.get(), second_name, SEEK_SET), 0);
  ASSERT_EQ(std::fgetc(f.get()), 'b');
  ASSERT_EQ(std::fseek(f.get(), second_name, SEEK_SET), 0);
  ASSERT_EQ(std::fputc('a', f.get()), 'a');
  f.reset();
  ParameterStore b;
  b.Create("a", 1, 2, ParameterStore::Init::kXavier, &rng);
  b.Create("b", 1, 2, ParameterStore::Init::kXavier, &rng);
  EXPECT_TRUE(LoadParameters(&b, path).IsCorruption());
}

}  // namespace
}  // namespace alicoco::nn
