#include "obs/exporters.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace alicoco::obs {
namespace {

/// Prometheus metric names: [a-zA-Z0-9_:], and the first character must
/// not be a digit. Everything else maps to '_'; a leading digit (or an
/// empty name) gets a '_' prefix rather than silently corrupting the
/// exposition format.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

/// Label names are narrower than metric names: no ':' allowed.
std::string SanitizeLabelName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

/// Label values may be any UTF-8, but backslash, double-quote and
/// newline must be escaped per the exposition format.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Registry names may carry labels inline: `base{key=value,...}` (the
/// profiling tier names per-mutex instruments this way). Values are
/// taken verbatim up to ',' or '}' — no quoting in the registry syntax.
struct ParsedName {
  std::string base;
  std::vector<std::pair<std::string, std::string>> labels;
};

ParsedName ParseName(const std::string& name) {
  ParsedName out;
  size_t open = name.find('{');
  if (open == std::string::npos || name.back() != '}') {
    out.base = name;
    return out;
  }
  out.base = name.substr(0, open);
  std::string body = name.substr(open + 1, name.size() - open - 2);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::string item = body.substr(pos, comma - pos);
    size_t eq = item.find('=');
    if (eq != std::string::npos) {
      out.labels.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    } else if (!item.empty()) {
      out.labels.emplace_back(item, "");
    }
    pos = comma + 1;
  }
  return out;
}

/// Renders `{a="1",b="2"}` (optionally with one extra pair appended) or
/// the empty string when there is nothing to render.
std::string RenderLabels(const ParsedName& parsed,
                         const std::string& extra_key = "",
                         const std::string& extra_value = "") {
  if (parsed.labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : parsed.labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeLabelName(key) + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + EscapeLabelValue(extra_value) + "\"";
  }
  out += "}";
  return out;
}

/// Prometheus spells non-values "NaN" (capital N's); %g would print
/// "nan" or "-nan" depending on the libc.
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  return StringPrintf("%.6g", v);
}

/// One TYPE line per metric family: labeled series of the same base
/// (`attribution_allocs{stage="a"}`, `{stage="b"}`) share a single header.
void AppendTypeLine(const std::string& metric, const char* type,
                    std::set<std::string>* seen, std::string* out) {
  if (!seen->insert(metric).second) return;
  out->append("# TYPE " + metric + " " + type + "\n");
}

void AppendHistogram(const ParsedName& parsed, const Histogram& histogram,
                     std::set<std::string>* seen_types, std::string* out) {
  Histogram::Snapshot snap = histogram.snapshot();
  const std::string name = SanitizeName(parsed.base);
  const std::string labels = RenderLabels(parsed);
  AppendTypeLine(name, "histogram", seen_types, out);
  uint64_t cumulative = 0;
  size_t last_nonzero = 0;
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] != 0) last_nonzero = i;
  }
  for (size_t i = 0; i <= last_nonzero; ++i) {
    cumulative += snap.buckets[i];
    out->append(name + "_bucket" +
                RenderLabels(parsed, "le",
                             FormatDouble(Histogram::BucketUpperBound(i))) +
                " " + std::to_string(cumulative) + "\n");
  }
  out->append(name + "_bucket" + RenderLabels(parsed, "le", "+Inf") + " " +
              std::to_string(snap.count) + "\n");
  out->append(name + "_sum" + labels + " " + FormatDouble(snap.sum) + "\n");
  out->append(name + "_count" + labels + " " + std::to_string(snap.count) +
              "\n");
  for (double q : {0.5, 0.95, 0.99}) {
    out->append(name + RenderLabels(parsed, "quantile", FormatDouble(q)) +
                " " + FormatDouble(histogram.Quantile(q)) + "\n");
  }
}

}  // namespace

std::string ExportPrometheusText(const Registry& registry) {
  std::string out;
  std::set<std::string> seen_types;
  for (const std::string& name : registry.CounterNames()) {
    const Counter* counter = registry.FindCounter(name);
    if (counter == nullptr) continue;  // raced removal cannot happen; belt
    ParsedName parsed = ParseName(name);
    std::string metric = SanitizeName(parsed.base) + "_total";
    AppendTypeLine(metric, "counter", &seen_types, &out);
    out.append(metric + RenderLabels(parsed) + " " +
               std::to_string(counter->value()) + "\n");
  }
  for (const std::string& name : registry.GaugeNames()) {
    const Gauge* gauge = registry.FindGauge(name);
    if (gauge == nullptr) continue;
    ParsedName parsed = ParseName(name);
    std::string metric = SanitizeName(parsed.base);
    std::string labels = RenderLabels(parsed);
    AppendTypeLine(metric, "gauge", &seen_types, &out);
    out.append(metric + labels + " " + FormatDouble(gauge->value()) + "\n");
    out.append(metric + "_max" + labels + " " + FormatDouble(gauge->max()) +
               "\n");
  }
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* histogram = registry.FindHistogram(name);
    if (histogram == nullptr) continue;
    AppendHistogram(ParseName(name), *histogram, &seen_types, &out);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ExportTraceJsonl(const std::vector<SpanRecord>& spans) {
  // Sort through an index so the records themselves are never copied.
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const SpanRecord& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->id < b->id;
            });
  std::string out;
  for (const SpanRecord* span_ptr : order) {
    const SpanRecord& span = *span_ptr;
    out.append(StringPrintf(
        "{\"span_id\":%llu,\"parent_id\":%llu,\"name\":\"%s\","
        "\"start_us\":%llu,\"duration_us\":%llu,\"attributes\":{",
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent_id),
        JsonEscape(span.name).c_str(),
        static_cast<unsigned long long>(span.start_us),
        static_cast<unsigned long long>(span.duration_us)));
    for (size_t i = 0; i < span.attributes.size(); ++i) {
      if (i != 0) out.push_back(',');
      out.append("\"" + JsonEscape(span.attributes[i].first) + "\":\"" +
                 JsonEscape(span.attributes[i].second) + "\"");
    }
    out.append("}}\n");
  }
  return out;
}

FileLogSink::FileLogSink(const std::string& path) : out_(path) {
  if (!out_.is_open()) {
    status_ = Status::IOError("cannot open log file: " + path);
  }
}

FileLogSink::~FileLogSink() = default;

Status FileLogSink::status() const { return status_; }

void FileLogSink::Write(const LogRecord& record) {
  // Format outside the critical section: the lock only needs to cover the
  // stream write, not the string assembly, and Write is called from every
  // logging thread at once.
  const std::string line = Logger::FormatRecord(record);
  MutexLock lock(mu_);
  if (!out_.is_open()) return;
  out_ << line << "\n";
  out_.flush();
}

}  // namespace alicoco::obs
