// Tests for the pipeline benchmark's own statistics (perfbench/stats.hpp).
//
//   cmake -S perfbench -B .bench_build/perfbench && cmake --build .bench_build/perfbench
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace sapbench {
namespace {

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_FALSE(percentile_supported(100, 0.99));
  EXPECT_TRUE(percentile_supported(20, 0.50));
  EXPECT_FALSE(percentile_supported(19, 0.50));
  EXPECT_FALSE(percentile_supported(0, 0.50));
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.99), 990.0);
  EXPECT_EQ(quantile(v, 0.50), 500.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  const auto s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_TRUE(s.p99_supported);
}

TEST(OpenLoop, StalledRequestChargesTheQueueBehindIt) {
  // One blocking connection, due every 10 ms: each request goes out at
  // max(due, previous reply). The first stalls for 100 ms, the rest take 1.
  const std::vector<OpenOp> ops = {
      {0, 0, 100, true},      {10, 100, 101, true}, {20, 101, 102, true},
      {30, 102, 103, true},   {40, 103, 104, true}, {200, 200, 201, true},
  };
  EXPECT_DOUBLE_EQ(due_latency_ms(ops[0]), 100.0);
  EXPECT_DOUBLE_EQ(due_latency_ms(ops[1]), 91.0);  // sent at 100, due at 10
  EXPECT_DOUBLE_EQ(due_latency_ms(ops[4]), 64.0);  // sent at 103, due at 40
  EXPECT_DOUBLE_EQ(due_latency_ms(ops[5]), 1.0);   // the queue drained
  // Timing from the send instead would hide the stall from requests 1..4.
  EXPECT_DOUBLE_EQ(ops[1].done - ops[1].sent, 1.0);
  // None of that wait is the generator's own lateness.
  EXPECT_DOUBLE_EQ(generator_lateness_ms(ops[1], ops[0].done), 0.0);
  EXPECT_DOUBLE_EQ(generator_lateness_ms(ops[5], ops[4].done), 0.0);
  OpenOp late = ops[5];
  late.sent += 3.0;
  EXPECT_DOUBLE_EQ(generator_lateness_ms(late, ops[4].done), 3.0);
}

TEST(OpenLoop, FailuresCountAsMisses) {
  OpenOp failed{0.0, 0.0, 0.5, false};
  EXPECT_EQ(due_latency_ms(failed), kMissMs);
  // 990 fast successes and 10 failures: the p99 is still fast, but the
  // 11th failure moves it past every limit.
  std::vector<double> lat(990, 1.0);
  lat.insert(lat.end(), 10, due_latency_ms(failed));
  EXPECT_EQ(summarize(lat).p99, 1.0);
  lat[0] = due_latency_ms(failed);
  EXPECT_EQ(summarize(lat).p99, kMissMs);
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  constexpr std::int64_t ms = 1'000'000;
  std::vector<Span> spans;
  spans.push_back({"phase", 0, 100 * ms, -1, 0});
  spans.push_back({"op", 10 * ms, 40 * ms, 0, 1});
  spans.push_back({"op", 30 * ms, 60 * ms, 0, 2});   // overlaps the first op
  spans.push_back({"op", 90 * ms, 120 * ms, 0, 3});  // runs past the phase end
  spans.push_back({"serve", 15 * ms, 25 * ms, 1, 1});
  const auto self = self_time_ms(spans);
  // Children cover [10,60] and [90,100] of the phase: 60 ms of 100.
  EXPECT_DOUBLE_EQ(self.at("phase"), 40.0);
  // Ops: 30 - 10 (serve) + 30 + 30.
  EXPECT_DOUBLE_EQ(self.at("op"), 80.0);
  EXPECT_DOUBLE_EQ(self.at("serve"), 10.0);
}

}  // namespace
}  // namespace sapbench
