// Minimal leveled logging with pluggable sinks.
//
// Usage: ALICOCO_LOG(Info) << "built " << n << " nodes";
// Level filtering via Logger::SetLevel; the level starts at INFO, and no
// bench or example lowers it.
//
// Each emitted line carries a UTC timestamp and a small sequential thread
// id in addition to file:line:
//
//   [INFO 2026-08-05T12:00:00.123Z t1 builder.cc:42] built 96 nodes
//
// The wall clock is injectable (Logger::SetWallClock) so tests pin the
// timestamp and the determinism gate stays satisfied; the default clock in
// logging.cc is the single sanctioned wall-clock read in the codebase.
// Output is pluggable too: Logger::SetSink redirects records away from
// stderr (obs::FileLogSink routes them into the observability output
// directory next to metrics and traces).

#ifndef ALICOCO_COMMON_LOGGING_H_
#define ALICOCO_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "common/check.h"

namespace alicoco {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// One fully-resolved log statement, as handed to sinks.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";  ///< basename, not the full path
  int line = 0;
  uint64_t wall_ms = 0;    ///< milliseconds since the Unix epoch (UTC)
  uint32_t thread_id = 0;  ///< sequential per-thread id, 1-based
  std::string message;
};

/// Receives every record that passes the level gate. Implementations must
/// be thread-safe: Emit may run concurrently from any thread.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Global log-level gate, sink routing, and clock injection.
class Logger {
 public:
  /// Milliseconds since the Unix epoch.
  using WallClock = uint64_t (*)();

  static void SetLevel(LogLevel level);
  static LogLevel level();

  /// Routes records to `sink` instead of stderr; nullptr restores stderr.
  /// The sink must outlive all logging (set it for a program's lifetime).
  static void SetSink(LogSink* sink);

  /// Replaces the wall clock; nullptr restores the real one. Tests inject
  /// a fixed clock to pin timestamps.
  static void SetWallClock(WallClock clock);

  static void Emit(LogLevel level, const char* file, int line,
                   const std::string& message);

  /// The canonical single-line rendering of a record (used by the stderr
  /// default and by obs::FileLogSink, so all outputs look alike).
  static std::string FormatRecord(const LogRecord& record);

  /// `wall_ms` as "YYYY-MM-DDTHH:MM:SS.mmmZ" (proleptic Gregorian, UTC).
  static std::string FormatTimestamp(uint64_t wall_ms);

  /// Sequential 1-based id of the calling thread, assigned on first use.
  static uint32_t CurrentThreadId();
};

/// One log statement; streams accumulate and flush on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() {
    if (level_ >= Logger::level()) {
      Logger::Emit(level_, file_, line_, stream_.str());
    }
  }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

#define ALICOCO_LOG(severity)                                      \
  ::alicoco::LogMessage(::alicoco::LogLevel::k##severity, __FILE__, \
                        __LINE__)

// ALICOCO_CHECK and friends live in common/check.h (included above) so the
// invariant layer is usable without pulling in logging.

}  // namespace alicoco

#endif  // ALICOCO_COMMON_LOGGING_H_
