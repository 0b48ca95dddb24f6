#ifndef NIMBUS_PERFBENCH_HARNESS_H_
#define NIMBUS_PERFBENCH_HARNESS_H_

// The benchmark's own machinery, kept apart from the workload code so
// its tests can pin it down: the seeded open-loop schedule, the
// percentile rule, the outcome accounting, span recording with
// self-time, and the small statistics the report uses.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// Send times, in nanoseconds from the start of an open-loop phase, for
// `count` requests arriving as a Poisson process at `rate_per_s`. The
// gaps are drawn from `seed` alone, so one seed always gives one
// schedule, whatever the system under test does.
std::vector<int64_t> OpenLoopSchedule(uint64_t seed, double rate_per_s,
                                      int count);

// Latency of one open-loop request in microseconds, counted from when it
// was due, not from when the generator got round to sending it: a stall
// that delays later sends is charged to those requests too.
inline double LatencyFromDueUs(int64_t due_ns, int64_t ready_ns) {
  return static_cast<double>(ready_ns - due_ns) / 1000.0;
}

// Nearest-rank percentile of `samples` (q in (0, 1]). `above` counts the
// samples ranked above the reported one; a percentile is `supported`
// only when at least kMinAbove samples lie beyond it, so a p99 needs at
// least 1,000 samples.
struct Percentile {
  double value = 0.0;
  int64_t above = 0;
  bool supported = false;
};
constexpr int64_t kMinAbove = 10;
Percentile PercentileOf(std::vector<double> samples, double q);

// Median of `values` (mean of the middle two for an even count); 0 for
// an empty vector.
double Median(std::vector<double> values);

// Terminal outcomes of one phase. Every request sent is exactly one of
// ok, shed (refused at admission) or failed; Balanced() is the check.
struct PhaseCounts {
  std::string phase;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t failed = 0;
  bool Balanced() const { return sent == ok + shed + failed; }
};

// Files one terminal result: ok, shed (kUnavailable before admission,
// which the service marks with ticket -1) or failed (anything else).
void Classify(PhaseCounts& counts, const nimbus::Status& status,
              int64_t ticket);

// FNV-1a over raw bytes, chained through `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 1469598103934665603ull);

// One timed call into a layer. Spans of one request share `request`;
// `parent` is the id of the enclosing span (0 at a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request = 0;
};

// In-memory span buffer for one recording thread. Spans are appended
// when they open and closed in place, so a parent always precedes its
// children.
class SpanRecorder {
 public:
  // Opens a span and returns its id.
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request,
                 int64_t start_ns);
  void End(uint32_t id, int64_t end_ns);
  // Records an already-timed span; returns its id.
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

  // chrome://tracing JSON in the layout the library's own trace export
  // uses: complete ("X") events in microseconds, request identity in
  // "args".
  std::string ToChromeJson() const;

 private:
  std::vector<Span> spans_;
};

// Self time per span name, in nanoseconds: each span's duration minus
// the part of it covered by its direct children (overlapping children
// count once; child time outside the parent is ignored).
std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // NIMBUS_PERFBENCH_HARNESS_H_
