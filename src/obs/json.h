// Minimal JSON reader for the repo's own small JSON documents (perfbench
// reads its reference.json with it).
//
// Just enough of RFC 8259: objects, arrays, strings, numbers,
// true/false/null. Key order is preserved, duplicate keys keep their
// first occurrence in Find, and unknown fields are the caller's business
// to ignore. Strings are read as ASCII: a \u escape above 0x7F reads as
// '?'. Nesting deeper than 64 levels is a parse error, not a stack
// overflow.

#ifndef ALICOCO_OBS_JSON_H_
#define ALICOCO_OBS_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace alicoco::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as one JSON document; Corruption status on any syntax
/// error, with the byte offset in the message.
[[nodiscard]] Result<JsonValue> ParseJson(const std::string& text);

/// Field accessor: Corruption when the key is absent or not a string.
[[nodiscard]] Result<std::string> JsonRequireString(const JsonValue& object,
                                                    const std::string& key);

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_JSON_H_
