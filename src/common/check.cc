#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace alicoco::internal {

CheckFailure::CheckFailure(const char* file, int line, const char* expr) {
  stream_ << "CHECK failed at " << file << ":" << line << ": " << expr << " ";
}

CheckFailure::CheckFailure(const char* file, int line,
                           const std::string& message) {
  stream_ << "CHECK failed at " << file << ":" << line << ": " << message
          << " ";
}

CheckFailure::~CheckFailure() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace alicoco::internal
