#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"

namespace alicoco::nn {
namespace {
constexpr uint32_t kMagic = 0xA11C0C05;

// Bounds on untrusted header fields: a corrupt or truncated file must fail
// with Status::Corruption, never drive an allocation or a loop off a
// garbage length.
constexpr uint32_t kMaxNameLen = 1u << 16;
constexpr uint32_t kMaxParams = 1u << 20;
constexpr uint32_t kMaxDim = 1u << 24;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU32(std::FILE* f, uint32_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}
bool ReadU32(std::FILE* f, uint32_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}
}  // namespace

Status SaveParameters(const ParameterStore& store, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  if (!WriteU32(f.get(), kMagic) ||
      !WriteU32(f.get(), static_cast<uint32_t>(store.params().size()))) {
    return Status::IOError("write failed: " + path);
  }
  for (const auto& p : store.params()) {
    ALICOCO_DCHECK(p != nullptr);
    ALICOCO_CHECK_LE(p->name.size(), kMaxNameLen)
        << "parameter name too long to serialize: " << p->name;
    ALICOCO_CHECK_EQ(static_cast<size_t>(p->value.rows()) *
                         static_cast<size_t>(p->value.cols()),
                     p->value.size())
        << "inconsistent tensor shape for parameter " << p->name;
    uint32_t name_len = static_cast<uint32_t>(p->name.size());
    if (!WriteU32(f.get(), name_len) ||
        std::fwrite(p->name.data(), 1, name_len, f.get()) != name_len ||
        !WriteU32(f.get(), static_cast<uint32_t>(p->value.rows())) ||
        !WriteU32(f.get(), static_cast<uint32_t>(p->value.cols())) ||
        std::fwrite(p->value.data(), sizeof(float), p->value.size(),
                    f.get()) != p->value.size()) {
      return Status::IOError("write failed: " + path);
    }
  }
  return Status::OK();
}

Status LoadParameters(ParameterStore* store, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  uint32_t magic = 0, count = 0;
  if (!ReadU32(f.get(), &magic) || magic != kMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (!ReadU32(f.get(), &count)) return Status::Corruption("truncated: " + path);
  if (count > kMaxParams) {
    return Status::Corruption(
        StringPrintf("implausible parameter count %u in %s", count,
                     path.c_str()));
  }
  if (count != store->params().size()) {
    return Status::InvalidArgument(StringPrintf(
        "parameter count mismatch: file has %u, store has %zu", count,
        store->params().size()));
  }
  std::string name;  // reused across tensors; assign() keeps the capacity
  // With count equal to the store size, a repeated name would leave another
  // parameter unread.
  std::unordered_set<const Parameter*> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0, rows = 0, cols = 0;
    if (!ReadU32(f.get(), &name_len)) {
      return Status::Corruption("truncated: " + path);
    }
    if (name_len == 0 || name_len > kMaxNameLen) {
      return Status::Corruption(
          StringPrintf("implausible name length %u in %s", name_len,
                       path.c_str()));
    }
    name.assign(name_len, '\0');
    if (std::fread(name.data(), 1, name_len, f.get()) != name_len ||
        !ReadU32(f.get(), &rows) || !ReadU32(f.get(), &cols)) {
      return Status::Corruption("truncated: " + path);
    }
    if (rows > kMaxDim || cols > kMaxDim) {
      return Status::Corruption(
          StringPrintf("implausible shape %ux%u for %s", rows, cols,
                       name.c_str()));
    }
    Parameter* p = store->Get(name);
    if (p == nullptr) {
      return Status::NotFound("unknown parameter in file: " + name);
    }
    if (!loaded.insert(p).second) {
      return Status::Corruption("repeated parameter in file: " + name);
    }
    if (p->value.rows() != static_cast<int>(rows) ||
        p->value.cols() != static_cast<int>(cols)) {
      return Status::InvalidArgument("shape mismatch for " + name);
    }
    if (std::fread(p->value.data(), sizeof(float), p->value.size(),
                   f.get()) != p->value.size()) {
      return Status::Corruption("truncated weights for " + name);
    }
  }
  return Status::OK();
}

}  // namespace alicoco::nn
