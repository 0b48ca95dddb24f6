#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/random.h"

namespace perfbench {

std::vector<int64_t> OpenLoopSchedule(uint64_t seed, double rate_per_s,
                                      int count) {
  nimbus::Rng rng(seed);
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(std::max(count, 0)));
  double t_ns = 0.0;
  for (int i = 0; i < count; ++i) {
    // Exponential gap; 1 - U lies in (0, 1], so the log is finite.
    t_ns += -std::log(1.0 - rng.Uniform()) / rate_per_s * 1e9;
    due.push_back(static_cast<int64_t>(t_ns));
  }
  return due;
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  if (samples.empty()) {
    return p;
  }
  const int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[static_cast<size_t>(rank - 1)];
  p.above = n - rank;
  p.supported = p.above >= kMinAbove;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Classify(PhaseCounts& counts, const nimbus::Status& status,
              int64_t ticket) {
  if (status.ok()) {
    ++counts.ok;
  } else if (status.code() == nimbus::StatusCode::kUnavailable &&
             ticket < 0) {
    ++counts.shed;
  } else {
    ++counts.failed;
  }
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent,
                             uint64_t request, int64_t start_ns) {
  return Add(name, parent, request, start_ns, start_ns);
}

void SpanRecorder::End(uint32_t id, int64_t end_ns) {
  spans_[id - 1].end_ns = end_ns;
}

uint32_t SpanRecorder::Add(const char* name, uint32_t parent,
                           uint64_t request, int64_t start_ns,
                           int64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return span.id;
}

std::string SpanRecorder::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                  "\"trace_id\":%llu,\"span_id\":%u,\"parent_span_id\":%u}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<unsigned long long>(s.request), s.id, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) {
      continue;
    }
    const Span& p = spans[parent->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[s.parent].emplace_back(lo, hi);
    }
  }
  std::map<std::string, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_lo = intervals.front().first;
      int64_t run_hi = intervals.front().second;
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_hi) {
          covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      covered += run_hi - run_lo;
    }
    self[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
