// Span recorder, metric sets and small helpers shared by the benchmark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Fail(const std::string& what) {
  std::cout.flush();
  std::cerr << "perfbench: FAILED: " << what << "\n";
  std::exit(1);
}

std::string Fnv64Hex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double TailPercentile(size_t samples) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1 - pct / 100) >= 10) return pct;
  }
  return 50.0;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << items_[i].name << "\": {\"value\": " << items_[i].value
        << ", \"unit\": \"" << items_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

int SpanLog::Begin(const std::string& name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

void SpanLog::AddMeasuredChild(const std::string& name, int64_t duration_ns) {
  if (!enabled_ || open_.empty()) return;
  Span span;
  span.name = name;
  span.parent = open_.back();
  span.query_id = spans_[span.parent].query_id;
  span.end_ns = NowNs();
  span.start_ns = std::max(spans_[span.parent].start_ns,
                           span.end_ns - duration_ns);
  spans_.push_back(std::move(span));
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

void SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) Fail("cannot write spans to " + path);
  const std::vector<int64_t> self = SelfNs();
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"query_id\": " << s.query_id
        << ", \"self_ns\": " << self[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
