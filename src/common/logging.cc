#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/string_util.h"

namespace alicoco {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::atomic<LogSink*> g_sink{nullptr};
std::atomic<Logger::WallClock> g_wall_clock{nullptr};

const char* LevelName(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

// The one sanctioned wall-clock read: timestamps are presentation-only
// metadata, never an input to any computation, so determinism holds.
uint64_t RealWallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now()  // lint:allow(banned-time)
              .time_since_epoch())
          .count());
}

}  // namespace

void Logger::SetLevel(LogLevel level) { g_level.store(level); }
LogLevel Logger::level() { return g_level.load(); }

void Logger::SetSink(LogSink* sink) { g_sink.store(sink); }

void Logger::SetWallClock(WallClock clock) { g_wall_clock.store(clock); }

uint32_t Logger::CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1);
  return id;
}

std::string Logger::FormatTimestamp(uint64_t wall_ms) {
  uint64_t ms = wall_ms % 1000;
  uint64_t secs = wall_ms / 1000;
  uint64_t sec = secs % 60;
  uint64_t mins = secs / 60;
  uint64_t min = mins % 60;
  uint64_t hours = mins / 60;
  uint64_t hour = hours % 24;
  uint64_t days = hours / 24;  // days since 1970-01-01
  // Civil-from-days (Howard Hinnant's algorithm), era math over the
  // proleptic Gregorian calendar — no locale, no tz database, no gmtime.
  int64_t z = static_cast<int64_t>(days) + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  uint64_t doe = static_cast<uint64_t>(z - era * 146097);
  uint64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = static_cast<int64_t>(yoe) + era * 400;
  uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  uint64_t mp = (5 * doy + 2) / 153;
  uint64_t d = doy - (153 * mp + 2) / 5 + 1;
  uint64_t m = mp < 10 ? mp + 3 : mp - 9;
  if (m <= 2) ++y;
  return StringPrintf("%04lld-%02llu-%02lluT%02llu:%02llu:%02llu.%03lluZ",
                      static_cast<long long>(y),
                      static_cast<unsigned long long>(m),
                      static_cast<unsigned long long>(d),
                      static_cast<unsigned long long>(hour),
                      static_cast<unsigned long long>(min),
                      static_cast<unsigned long long>(sec),
                      static_cast<unsigned long long>(ms));
}

std::string Logger::FormatRecord(const LogRecord& record) {
  return StringPrintf("[%s %s t%u %s:%d] %s", LevelName(record.level),
                      FormatTimestamp(record.wall_ms).c_str(),
                      record.thread_id, record.file, record.line,
                      record.message.c_str());
}

void Logger::Emit(LogLevel level, const char* file, int line,
                  const std::string& message) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  LogRecord record;
  record.level = level;
  record.file = base;
  record.line = line;
  WallClock wall_clock = g_wall_clock.load();
  record.wall_ms = wall_clock != nullptr ? wall_clock() : RealWallClockMs();
  record.thread_id = CurrentThreadId();
  record.message = message;

  LogSink* sink = g_sink.load();
  if (sink != nullptr) {
    sink->Write(record);
    return;
  }
  std::fprintf(stderr, "%s\n", FormatRecord(record).c_str());
}

}  // namespace alicoco
