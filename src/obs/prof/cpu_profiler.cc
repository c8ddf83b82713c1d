#include "obs/prof/cpu_profiler.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/string_util.h"

#if defined(__GLIBC__)
#include <cxxabi.h>
#include <execinfo.h>
#include <sys/time.h>
#define ALICOCO_PROF_HAVE_BACKTRACE 1
#else
#define ALICOCO_PROF_HAVE_BACKTRACE 0
#endif

namespace alicoco::obs::prof {
namespace {

// Process-wide handler state. `g_active` is the single rendezvous point
// between Start/Stop and the signal handler; `g_in_handler` counts
// handlers that are still executing, so Stop can wait for every handler
// that saw a non-null g_active before it reads the sample array.
//
// The handler increments g_in_handler and then loads g_active; Stop
// stores null to g_active and then loads g_in_handler. All four are
// seq_cst: in their single total order either the increment comes before
// Stop's load (Stop waits for that handler) or Stop's store comes before
// the handler's load (the handler sees null and writes nothing). With
// acquire/release alone both loads could read the old values (store
// buffering), and a handler could write a slot while Stop reads it.
std::atomic<CpuProfiler*> g_active{nullptr};
std::atomic<int> g_in_handler{0};

}  // namespace

void CpuProfilerSignalHandler(int /*signo*/) {
  // Async-signal-safe: atomics and backtrace() into a stack buffer only.
  g_in_handler.fetch_add(1, std::memory_order_seq_cst);
  CpuProfiler* profiler = g_active.load(std::memory_order_seq_cst);
  if (profiler != nullptr) {
    const int saved_errno = errno;
    profiler->HandleSignal();
    errno = saved_errno;
  }
  // Release: publishes this handler's slot write to Stop's load.
  g_in_handler.fetch_sub(1, std::memory_order_release);
}

#if ALICOCO_PROF_HAVE_BACKTRACE

struct CpuProfiler::PlatformState {
  struct sigaction saved_action;
  struct itimerval saved_timer;
};

void CpuProfiler::HandleSignal() {
  // One extra slot so "filled the buffer" is distinguishable from
  // "exactly fit": backtrace gives no truncation signal of its own.
  void* frames[kMaxFrames + 1];
  int depth = backtrace(frames, static_cast<int>(kMaxFrames) + 1);
  if (depth <= 0) return;
  if (depth > static_cast<int>(kMaxFrames)) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    depth = static_cast<int>(kMaxFrames);
  }
  // Stop orders this claim and the slot write through g_in_handler.
  const uint64_t claim = claimed_.fetch_add(1, std::memory_order_relaxed);
  if (claim >= kCapacity) return;  // full: Stop counts it as dropped
  RawSample& sample = slots_[claim];
  sample.depth = depth;
  std::memcpy(sample.frames, frames,
              static_cast<size_t>(depth) * sizeof(void*));
}

Status CpuProfiler::Start(const CpuProfilerOptions& options) {
  ALICOCO_CHECK(!running_) << "CpuProfiler::Start while already running";
  if (options.sample_hz <= 0 || options.sample_hz > 10000) {
    return Status::InvalidArgument(
        StringPrintf("sample_hz %d outside (0, 10000]", options.sample_hz));
  }
  slots_ = std::make_unique<RawSample[]>(kCapacity);
  claimed_.store(0, std::memory_order_relaxed);
  truncated_.store(0, std::memory_order_relaxed);
  samples_ = 0;
  dropped_ = 0;
  platform_ = std::make_unique<PlatformState>();

  // Warm up backtrace: its first call may dlopen libgcc, which allocates
  // and locks — unacceptable inside the handler, fine here.
  void* warmup[4];
  (void)backtrace(warmup, 4);

  CpuProfiler* expected = nullptr;
  ALICOCO_CHECK(g_active.compare_exchange_strong(expected, this))
      << "another CpuProfiler is already active in this process";

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CpuProfilerSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &platform_->saved_action) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return Status::Internal(StringPrintf("sigaction(SIGPROF) failed: %s",
                                         std::strerror(errno)));
  }

  struct itimerval timer;
  const long interval_us = 1000000L / options.sample_hz;
  timer.it_interval.tv_sec = interval_us / 1000000L;
  timer.it_interval.tv_usec = interval_us % 1000000L;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, &platform_->saved_timer) != 0) {
    sigaction(SIGPROF, &platform_->saved_action, nullptr);
    g_active.store(nullptr, std::memory_order_release);
    return Status::Internal(StringPrintf("setitimer(ITIMER_PROF) failed: %s",
                                         std::strerror(errno)));
  }

  running_ = true;
  return Status::OK();
}

Status CpuProfiler::Stop() {
  if (!running_) return Status::OK();

  // Teardown order matters: disarm the timer (no new signals queue up),
  // restore the old disposition, clear g_active (handlers already past
  // their g_active load still hold a valid pointer), then wait for those
  // stragglers before reading the sample array from this thread.
  struct itimerval disarm;
  std::memset(&disarm, 0, sizeof(disarm));
  if (setitimer(ITIMER_PROF, &disarm, nullptr) != 0) {
    return Status::Internal(StringPrintf("setitimer disarm failed: %s",
                                         std::strerror(errno)));
  }
  sigaction(SIGPROF, &platform_->saved_action, nullptr);
  g_active.store(nullptr, std::memory_order_seq_cst);
  while (g_in_handler.load(std::memory_order_seq_cst) != 0) {
    // Handlers run for microseconds; a plain spin outlives them all.
  }

  const uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  samples_ = std::min<uint64_t>(claimed, kCapacity);
  dropped_ = claimed - samples_;
  running_ = false;
  return Status::OK();
}

#else  // !ALICOCO_PROF_HAVE_BACKTRACE

struct CpuProfiler::PlatformState {};

void CpuProfiler::HandleSignal() {}

Status CpuProfiler::Start(const CpuProfilerOptions& options) {
  (void)options;
  return Status::NotImplemented(
      "CpuProfiler requires glibc backtrace() support");
}

Status CpuProfiler::Stop() { return Status::OK(); }

#endif  // ALICOCO_PROF_HAVE_BACKTRACE

CpuProfiler::CpuProfiler() = default;

CpuProfiler::~CpuProfiler() {
  ALICOCO_CHECK(!running_) << "CpuProfiler destroyed while running";
}

bool CpuProfiler::running() const { return running_; }

uint64_t CpuProfiler::ApproxSamples() const {
  return std::min<uint64_t>(claimed_.load(std::memory_order_relaxed),
                            kCapacity);
}

namespace {

// backtrace_symbols lines look like `binary(_ZN7alicoco3FooEv+0x1c)
// [0x55...]`; pull out and demangle the mangled name, falling back to
// the raw frame text when the symbol table has nothing.
std::string SymbolizeFrame(const char* raw) {
  std::string text(raw == nullptr ? "??" : raw);
  size_t open = text.find('(');
  size_t plus = text.find('+', open == std::string::npos ? 0 : open);
  if (open != std::string::npos && plus != std::string::npos && plus > open + 1) {
    std::string mangled = text.substr(open + 1, plus - open - 1);
#if ALICOCO_PROF_HAVE_BACKTRACE
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string out(demangled);
      std::free(demangled);
      return out;
    }
    if (demangled != nullptr) std::free(demangled);
#endif
    return mangled;  // a C symbol, already readable
  }
  // No symbol: keep just the address token so collapsed lines stay short.
  size_t bracket = text.find('[');
  if (bracket != std::string::npos) {
    std::string addr = text.substr(bracket + 1);
    if (!addr.empty() && addr.back() == ']') addr.pop_back();
    return addr;
  }
  return text;
}

bool IsProfilerInternalFrame(const std::string& symbol) {
  return symbol.find("CpuProfilerSignalHandler") != std::string::npos ||
         symbol.find("HandleSignal") != std::string::npos ||
         symbol.find("killpg") != std::string::npos ||  // glibc sigreturn alias
         symbol.find("__restore_rt") != std::string::npos;
}

}  // namespace

CpuProfile CpuProfiler::TakeProfile() const {
  ALICOCO_CHECK(!running_) << "CpuProfiler::TakeProfile while running";
  CpuProfile profile;
  profile.samples = samples_;
  profile.dropped = dropped_;
  profile.truncated_frames = truncated_.load(std::memory_order_relaxed);

#if ALICOCO_PROF_HAVE_BACKTRACE
  // Symbolize each distinct address once; samples repeat hot addresses
  // thousands of times and __cxa_demangle is not cheap.
  std::map<void*, std::string> symbol_cache;
  for (uint64_t i = 0; i < samples_; ++i) {
    const RawSample& sample = slots_[i];
    std::vector<std::string> stack;
    stack.reserve(static_cast<size_t>(sample.depth));
    // Frames arrive leaf-first; emit root-first for collapsed output.
    for (int i = sample.depth - 1; i >= 0; --i) {
      void* addr = sample.frames[i];
      auto it = symbol_cache.find(addr);
      if (it == symbol_cache.end()) {
        void* one[1] = {addr};
        char** names = backtrace_symbols(one, 1);
        std::string symbol =
            names != nullptr ? SymbolizeFrame(names[0]) : std::string("??");
        std::free(names);
        it = symbol_cache.emplace(addr, std::move(symbol)).first;
      }
      stack.push_back(it->second);
    }
    // Trim the handler frames off the leaf end; they are measurement
    // machinery, not workload. The machinery is not always the exact
    // leaf: sanitizer builds intercept backtrace(), leaving an unnamed
    // runtime frame leafward of the handler. So cut at the rootmost
    // recognized machinery frame and drop everything leafward of it.
    // The signal trampoline (__restore_rt) sits immediately rootward of
    // the handler and is not visible to dladdr in every libc; when the
    // cut frame was the handler itself (not a named trampoline alias),
    // an unresolved hex frame now at the leaf is that trampoline — drop
    // exactly that one too. Raw-address leaves in the workload itself
    // (no machinery found) are kept.
    bool cut_at_handler = false;
    for (size_t frame = 0; frame < stack.size(); ++frame) {
      if (IsProfilerInternalFrame(stack[frame])) {
        cut_at_handler =
            stack[frame].find("__restore_rt") == std::string::npos &&
            stack[frame].find("killpg") == std::string::npos;
        stack.erase(stack.begin() + static_cast<ptrdiff_t>(frame),
                    stack.end());
        break;
      }
    }
    if (cut_at_handler && !stack.empty() &&
        stack.back().compare(0, 2, "0x") == 0) {
      stack.pop_back();
    }
    if (stack.empty()) stack.push_back("??");
    ++profile.stacks[std::move(stack)];
  }
#endif
  return profile;
}

std::string CpuProfile::ToCollapsed() const {
  struct Line {
    std::string text;
    uint64_t count;
  };
  std::vector<Line> lines;
  lines.reserve(stacks.size());
  for (const auto& [stack, count] : stacks) {
    std::string joined;
    for (size_t i = 0; i < stack.size(); ++i) {
      if (i != 0) joined += ';';
      // Collapsed format reserves ';' as the frame separator.
      for (char c : stack[i]) joined += (c == ';' ? ':' : c);
    }
    lines.push_back({std::move(joined), count});
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.text < b.text;
  });
  std::string out;
  for (const Line& line : lines) {
    out += line.text;
    out += ' ';
    out += std::to_string(line.count);
    out += '\n';
  }
  return out;
}

std::string CpuProfile::TopNText(size_t n) const {
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_fn;  // self, incl
  for (const auto& [stack, count] : stacks) {
    if (!stack.empty()) by_fn[stack.back()].first += count;
    // A function recursing within one stack still gets one inclusive hit.
    std::vector<std::string> seen;
    for (const std::string& frame : stack) {
      if (std::find(seen.begin(), seen.end(), frame) != seen.end()) continue;
      seen.push_back(frame);
      by_fn[frame].second += count;
    }
  }
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> rows(
      by_fn.begin(), by_fn.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.first != b.second.first) {
      return a.second.first > b.second.first;
    }
    return a.first < b.first;
  });
  if (rows.size() > n) rows.resize(n);

  std::string out = StringPrintf("CPU profile: %llu samples (%llu dropped)\n",
                                 static_cast<unsigned long long>(samples),
                                 static_cast<unsigned long long>(dropped));
  out += StringPrintf("%8s %8s  %s\n", "self", "incl", "function");
  for (const auto& [name, counts] : rows) {
    out += StringPrintf("%8llu %8llu  %s\n",
                        static_cast<unsigned long long>(counts.first),
                        static_cast<unsigned long long>(counts.second),
                        name.c_str());
  }
  return out;
}

}  // namespace alicoco::obs::prof
