// Self-tests of the benchmark's own statistics (src/stats.h).
//
// Build and run:  python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>

#include "speed.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.relative_iqr(), (8.25 - 2.75) / 5.5);

  // Unsorted input, odd count: quantiles([5,1,4,2,3], n=4) = [1.5, 3, 4.5].
  const Quartiles odd = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(odd.q1, 1.5);
  EXPECT_DOUBLE_EQ(odd.q2, 3.0);
  EXPECT_DOUBLE_EQ(odd.q3, 4.5);

  // Two values: quantiles([1, 2], n=4) = [0.75, 1.5, 2.25].
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({4.0}, 0.01), 4.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// Probe runs of 1 s each (a toy scale) with probe_seconds 1 and 2:
// speed 1 at full speed, 0.5 when the probe takes twice as long.
TEST(ReferenceSeconds, IntegratesSpeedBetweenProbes) {
  const std::vector<ProbeRun> runs = {{0.0, 1.0, 1.0}, {3.0, 4.0, 1.0}};
  // Between the probes the speed is 1: wall seconds are reference
  // seconds.
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 1.0, 1.0, 3.0), 2.0);
  // The probe runs themselves are not counted.
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 1.0, 0.0, 4.0), 2.0);
  // A probe twice as slow as the reference halves the speed.
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 0.5, 1.0, 3.0), 1.0);
  // Outside the probes, the nearest probe's speed holds.
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 1.0, -2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 1.0, 4.0, 6.0), 2.0);
  EXPECT_THROW(reference_seconds({}, 1.0, 0.0, 1.0), std::logic_error);
}

TEST(ReferenceSeconds, AveragesTheSpeedsOfNeighbouringProbes) {
  // Speeds 1 and 0.5 (probe seconds 1 and 2): 0.75 between them.
  const std::vector<ProbeRun> runs = {{0.0, 1.0, 1.0}, {5.0, 7.0, 2.0}};
  EXPECT_DOUBLE_EQ(reference_seconds(runs, 1.0, 1.0, 5.0), 3.0);
  // A slow spell measured in the wall time of a run, but not in its CPU
  // time (a preempted probe), does not lower the speed.
  const std::vector<ProbeRun> preempted = {{0.0, 9.0, 1.0},
                                           {10.0, 11.0, 1.0}};
  EXPECT_DOUBLE_EQ(reference_seconds(preempted, 1.0, 9.0, 10.0), 1.0);
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  // 10000 samples: p99.9 has exactly 10 beyond it.
  auto t = tail_percentile(ramp(10000));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->p, 0.999);
  EXPECT_DOUBLE_EQ(t->value, 9990.0);

  // 9999 samples: p99.9 leaves only 9 beyond, so p99 is the highest.
  t = tail_percentile(ramp(9999));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->p, 0.99);

  // 1000 samples: p99 leaves exactly 10.
  t = tail_percentile(ramp(1000));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->p, 0.99);
  EXPECT_DOUBLE_EQ(t->value, 990.0);

  // 999 samples: p99 leaves 9, p95 leaves 49.
  t = tail_percentile(ramp(999));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->p, 0.95);

  // 20 samples: only the median has 10 beyond it.
  t = tail_percentile(ramp(20));
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t->p, 0.5);

  // 19 samples: nothing is reportable.
  EXPECT_FALSE(tail_percentile(ramp(19)));
  EXPECT_FALSE(tail_percentile({}));
}

Rung rung(double offered, double achieved, double p50_ms,
          std::size_t served = 1000, std::size_t attempted = 1000) {
  Rung r;
  r.offered_rps = offered;
  r.achieved_rps = achieved;
  r.p50_s = p50_ms * 1e-3;
  r.served = served;
  r.attempted = attempted;
  return r;
}

TEST(Ladder, EachCriterionFailsARung) {
  const LadderCriteria c;  // p50 < 5 ms, >= 99.9% served, >= 0.95x offered
  EXPECT_TRUE(rung_passes(rung(4000, 3990, 1.0), c));
  EXPECT_FALSE(rung_passes(rung(4000, 3990, 5.0), c));          // p50
  EXPECT_FALSE(rung_passes(rung(4000, 3990, 1.0, 998), c));     // served
  EXPECT_TRUE(rung_passes(rung(4000, 3990, 1.0, 999), c));
  EXPECT_FALSE(rung_passes(rung(4000, 3799, 1.0), c));          // achieved
  EXPECT_FALSE(rung_passes(rung(4000, 3990, 1.0, 0, 0), c));    // empty
}

TEST(Ladder, ReportsHighestPassingRungBelowFirstFailure) {
  const LadderCriteria c;
  const std::vector<Rung> rungs = {rung(4000, 3995, 0.6),
                                   rung(5000, 4990, 0.8),
                                   rung(6250, 6240, 1.2),
                                   rung(7812, 6100, 40.0)};
  const LadderVerdict v = judge_ladder(rungs, c);
  EXPECT_EQ(v.best, 2u);
  EXPECT_DOUBLE_EQ(v.max_rps, 6240.0);
}

TEST(Ladder, PassingTopRungIsCensoredError) {
  const LadderCriteria c;
  const std::vector<Rung> rungs = {rung(4000, 3995, 0.6),
                                   rung(5000, 4990, 0.8)};
  EXPECT_THROW(judge_ladder(rungs, c), CensoredLadderError);
  EXPECT_THROW(judge_ladder({}, c), CensoredLadderError);
}

TEST(Ladder, FailingBottomRungMeasuresNothing) {
  const LadderCriteria c;
  EXPECT_THROW(judge_ladder({rung(4000, 2000, 50.0)}, c), LadderFloorError);
}

TEST(OpenLoop, LatencyCountsFromScheduledSendIncludingLateness) {
  // Due at t=1.000, the generator only sent at 1.004 (4 ms late), the
  // server answered 1 ms after the send.
  const OpenLoopSample s{1.000, 1.004, 1.005};
  EXPECT_NEAR(s.lateness(), 0.004, 1e-12);
  EXPECT_NEAR(s.latency(), 0.005, 1e-12);
  // Timed from the send, the same request would read 1 ms: the stall
  // would be hidden.
  EXPECT_GT(s.latency(), s.resolved - s.sent);

  // A stall delays every later send; each one's latency carries its own
  // lateness, so the stall shows in the median.
  std::vector<double> lat;
  for (int i = 0; i < 5; ++i) {
    const double due = 1.0 + 0.001 * i;
    const double sent = 1.010 + 0.0001 * i;  // all sent after a 10 ms stall
    lat.push_back(OpenLoopSample{due, sent, sent + 0.0005}.latency());
  }
  EXPECT_GT(median(lat), 0.005);
}

}  // namespace
}  // namespace perfbench
