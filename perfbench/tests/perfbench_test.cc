// Unit tests of the benchmark's own machinery. Build and run with
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankWithTenSamplesAbove) {
  const Percentile p99 = PercentileOf(OneTo(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.above, 10);
  EXPECT_TRUE(p99.supported);

  const Percentile p50 = PercentileOf(OneTo(1000), 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.above, 500);
}

TEST(PercentileTest, TooFewSamplesAboveIsUnsupported) {
  const Percentile p99 = PercentileOf(OneTo(999), 0.99);
  EXPECT_EQ(p99.above, 9);
  EXPECT_FALSE(p99.supported);
  EXPECT_FALSE(PercentileOf({}, 0.5).supported);
}

TEST(PercentileTest, MissesRankAboveEveryLatency) {
  // A shed or failed request enters the latency sample as +inf, so it
  // can only push percentiles up.
  std::vector<double> v = OneTo(100);
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(PercentileOf(v, 1.0).value));
  EXPECT_EQ(PercentileOf(v, 0.5).value, 51.0);
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(OpenLoopSchedule(7, 1000.0, 500), OpenLoopSchedule(7, 1000.0, 500));
  EXPECT_NE(OpenLoopSchedule(7, 1000.0, 500), OpenLoopSchedule(8, 1000.0, 500));
}

TEST(ScheduleTest, PoissonArrivalsAtTheOfferedRate) {
  const int n = 20000;
  const std::vector<int64_t> due = OpenLoopSchedule(3, 5000.0, n);
  ASSERT_EQ(due.size(), static_cast<size_t>(n));
  for (int i = 1; i < n; ++i) {
    ASSERT_LE(due[i - 1], due[i]);
  }
  // Mean gap 1/rate = 200 us, within 3% over 20k arrivals.
  const double mean_gap_ns = static_cast<double>(due.back()) / n;
  EXPECT_NEAR(mean_gap_ns, 200000.0, 6000.0);
}

TEST(ScheduleTest, LatencyIsTimedFromTheDueTime) {
  // Due at 1 ms, sent late at 3 ms, ready at 3.5 ms: the 2 ms the
  // generator ran late is part of the request's latency.
  const int64_t due_ns = 1000000;
  const int64_t ready_ns = 3500000;
  EXPECT_DOUBLE_EQ(LatencyFromDueUs(due_ns, ready_ns), 2500.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const uint32_t root = rec.Add("root", 0, 1, 0, 100);
  rec.Add("a", root, 1, 10, 30);
  rec.Add("b", root, 1, 20, 50);   // Overlaps a: [10, 50) counts once.
  const uint32_t c = rec.Add("c", root, 1, 90, 120);  // Clipped to 100.
  rec.Add("leaf", c, 1, 95, 100);
  const auto self = SelfTimes(rec.spans());
  EXPECT_EQ(self.at("root"), 100 - 40 - 10);
  EXPECT_EQ(self.at("a"), 20);
  EXPECT_EQ(self.at("b"), 30);
  EXPECT_EQ(self.at("c"), 30 - 5);
  EXPECT_EQ(self.at("leaf"), 5);
}

TEST(SelfTimeTest, SameNameSumsAcrossRequests) {
  SpanRecorder rec;
  const uint32_t r1 = rec.Begin("request", 0, 1, 0);
  rec.Add("layer", r1, 1, 0, 4);
  rec.End(r1, 10);
  const uint32_t r2 = rec.Begin("request", 0, 2, 20);
  rec.Add("layer", r2, 2, 22, 25);
  rec.End(r2, 30);
  const auto self = SelfTimes(rec.spans());
  EXPECT_EQ(self.at("request"), 6 + 7);
  EXPECT_EQ(self.at("layer"), 4 + 3);
}

TEST(SelfTimeTest, ChromeJsonCarriesRequestIdentity) {
  SpanRecorder rec;
  const uint32_t root = rec.Add("root", 0, 42, 1000, 5000);
  rec.Add("child", root, 42, 2000, 3000);
  const std::string json = rec.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":42,\"span_id\":2,\"parent_span_id\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
}

TEST(OutcomeTest, EveryResultIsExactlyOneOutcome) {
  PhaseCounts c;
  c.phase = "test";
  const struct {
    nimbus::Status status;
    int64_t ticket;
  } results[] = {
      {nimbus::OkStatus(), 0},
      {nimbus::UnavailableError("queue full"), -1},       // Shed.
      {nimbus::UnavailableError("shard quarantined"), 3},  // Admitted: failed.
      {nimbus::InternalError("journal"), 4},
  };
  for (const auto& r : results) {
    ++c.sent;
    Classify(c, r.status, r.ticket);
  }
  EXPECT_EQ(c.ok, 1);
  EXPECT_EQ(c.shed, 1);
  EXPECT_EQ(c.failed, 2);
  EXPECT_TRUE(c.Balanced());
}

TEST(OutcomeTest, AMissingResultUnbalancesThePhase) {
  PhaseCounts c;
  c.sent = 3;
  Classify(c, nimbus::OkStatus(), 0);
  Classify(c, nimbus::OkStatus(), 1);
  EXPECT_FALSE(c.Balanced());
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
