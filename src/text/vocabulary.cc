#include "text/vocabulary.h"

namespace alicoco::text {

Vocabulary::Vocabulary() {
  tokens_ = {"<pad>", "<unk>"};
  counts_ = {0, 0};
  index_["<pad>"] = kPadId;
  index_["<unk>"] = kUnkId;
}

int Vocabulary::Add(const std::string& token) {
  auto it = index_.find(token);
  if (it != index_.end()) {
    ++counts_[it->second];
    return it->second;
  }
  int id = static_cast<int>(tokens_.size());
  index_.emplace(token, id);
  tokens_.push_back(token);
  counts_.push_back(1);
  return id;
}

int Vocabulary::Id(const std::string& token) const {
  auto it = index_.find(token);
  return it == index_.end() ? kUnkId : it->second;
}

bool Vocabulary::Contains(const std::string& token) const {
  return index_.count(token) > 0;
}

const std::string& Vocabulary::Token(int id) const {
  if (id < 0 || id >= size()) return tokens_[kUnkId];
  return tokens_[static_cast<size_t>(id)];
}

int64_t Vocabulary::Count(int id) const {
  if (id < 0 || id >= size()) return 0;
  return counts_[static_cast<size_t>(id)];
}

std::vector<int> Vocabulary::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<int> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) out.push_back(Id(t));
  return out;
}

std::vector<std::string> Vocabulary::Decode(const std::vector<int>& ids) const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back(Token(id));
  return out;
}

}  // namespace alicoco::text
