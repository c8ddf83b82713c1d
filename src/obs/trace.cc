#include "obs/trace.h"

#include <chrono>

#include "common/string_util.h"

namespace alicoco::obs {
namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Innermost open span on this thread. Spans form a per-thread stack via
// their enclosing_ links; a new span walks it to the nearest open span of
// the SAME tracer for its parent, so two interleaved tracers (e.g. a bench
// harness timer wrapping an instrumented pipeline run) never leak ids into
// each other's traces, yet keep their own chains intact across the
// interleaving.
thread_local const ScopedSpan* tls_innermost_span = nullptr;

}  // namespace

Tracer* CurrentTracer() {
  // Null-tracer spans never join the stack, so an open span has a tracer.
  return tls_innermost_span == nullptr ? nullptr
                                       : tls_innermost_span->tracer_;
}

Tracer::Tracer() : clock_(&SteadyNowUs) {}

Tracer::Tracer(Clock clock) : clock_(std::move(clock)) {}

std::vector<SpanRecord> Tracer::Records() const {
  MutexLock lock(mu_);
  return finished_;
}

std::vector<SpanRecord> Tracer::Drain() {
  MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(finished_);
  return out;
}

size_t Tracer::size() const {
  MutexLock lock(mu_);
  return finished_.size();
}

uint64_t Tracer::NextId() {
  MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::SetSpanListener(SpanListener listener) {
  listener_ = std::move(listener);
}

void Tracer::Record(SpanRecord record) {
  // The listener runs before the record is moved into the collection and
  // outside the lock: a slow listener must not extend the critical
  // section the contention accounting is watching.
  if (listener_) listener_(record);
  MutexLock lock(mu_);
  finished_.push_back(std::move(record));
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->NextId();
  for (const ScopedSpan* open = tls_innermost_span; open != nullptr;
       open = open->enclosing_) {
    if (open->tracer_ == tracer_) {
      record_.parent_id = open->record_.id;
      break;
    }
  }
  record_.name = std::move(name);
  record_.start_us = tracer_->NowUs();
  enclosing_ = tls_innermost_span;
  tls_innermost_span = this;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  record_.duration_us = tracer_->NowUs() - record_.start_us;
  tls_innermost_span = enclosing_;
  tracer_->Record(std::move(record_));
}

void ScopedSpan::AddAttribute(const std::string& key,
                              const std::string& value) {
  if (tracer_ == nullptr) return;
  record_.attributes.emplace_back(key, value);
}

void ScopedSpan::AddAttribute(const std::string& key, uint64_t value) {
  AddAttribute(key, std::to_string(value));
}

void ScopedSpan::AddAttribute(const std::string& key, double value) {
  AddAttribute(key, StringPrintf("%.6g", value));
}

uint64_t ScopedSpan::ElapsedUs() const {
  if (tracer_ == nullptr) return 0;
  return tracer_->NowUs() - record_.start_us;
}

}  // namespace alicoco::obs
