// Token <-> integer id mapping with frequency counts.

#ifndef ALICOCO_TEXT_VOCABULARY_H_
#define ALICOCO_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace alicoco::text {

/// Bidirectional token/id map. Id 0 is reserved for <pad>, id 1 for <unk>.
class Vocabulary {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;

  Vocabulary();

  /// Interns `token`, bumping its count; returns its id.
  int Add(const std::string& token);

  /// Id of `token`, or kUnkId if absent.
  int Id(const std::string& token) const;

  /// True if the token is interned.
  bool Contains(const std::string& token) const;

  /// Token for `id`; "<unk>" for out-of-range ids.
  const std::string& Token(int id) const;

  /// Observation count of `id` (0 for specials unless added).
  int64_t Count(int id) const;

  /// Number of distinct ids including the two specials.
  int size() const { return static_cast<int>(tokens_.size()); }

  /// Maps a token sequence to ids (unknowns -> kUnkId).
  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

  /// Maps ids back to tokens.
  std::vector<std::string> Decode(const std::vector<int>& ids) const;

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> counts_;
};

}  // namespace alicoco::text

#endif  // ALICOCO_TEXT_VOCABULARY_H_
