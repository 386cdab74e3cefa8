// Statistics the benchmark reports, kept pure so tests/stats_test.cpp can
// pin them without running any workload.
//
//   median / quartiles   — quartiles use the same "exclusive" rule as
//                          Python's statistics.quantiles(values, n=4), so
//                          the spread the benchmark prints is the spread
//                          a reader computes from its raw samples.
//   percentile           — nearest rank.
//   tail_percentile      — the highest reportable percentile: the largest
//                          of {99.9, 99, 95, 90, 50} that still has at
//                          least `min_tail` samples strictly beyond it.
//   rung_passes / judge_ladder — the capacity-ladder verdict. A ladder
//                          whose top rung passes is censored: the true
//                          capacity lies above the last rung, so the
//                          reported maximum would only restate the top
//                          offered rate. judge_ladder throws on that.
//   OpenLoopSample       — an open-loop request timed from its SCHEDULED
//                          send, so a late generator (or a stall that
//                          delays later sends) shows in latency.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `values`; throws std::invalid_argument when empty.
double median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2, the spread measure the benchmark is judged by.
  double relative_iqr() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// Quartiles by Python's statistics.quantiles(values, n=4) "exclusive"
/// method. Needs at least two values (throws std::invalid_argument).
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 1]; throws when empty.
double percentile(std::vector<double> values, double p);

struct TailPercentile {
  double p = 0.0;      ///< the percentile chosen, e.g. 0.99
  double value = 0.0;  ///< its nearest-rank value
};

/// Highest percentile of {0.999, 0.99, 0.95, 0.9, 0.5} with at least
/// `min_tail` samples strictly beyond its rank; nullopt when even the
/// median has fewer.
std::optional<TailPercentile> tail_percentile(std::vector<double> values,
                                              std::size_t min_tail = 10);

/// One rung of an open-loop capacity ladder.
struct Rung {
  double offered_rps = 0.0;
  std::size_t attempted = 0;
  std::size_t served = 0;
  double achieved_rps = 0.0;  ///< served / (last resolve - first schedule)
  double p50_s = 0.0;         ///< latency from the scheduled send
};

struct LadderCriteria {
  double p50_limit_s = 0.005;
  double min_served_fraction = 0.999;
  double min_achieved_fraction = 0.95;
};

/// True when the rung meets all three criteria.
bool rung_passes(const Rung& rung, const LadderCriteria& criteria);

/// Thrown by judge_ladder when the capacity was never reached.
class CensoredLadderError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct LadderVerdict {
  std::size_t best = 0;  ///< index of the highest passing rung below the
                         ///< first failing one
  double max_rps = 0.0;  ///< that rung's achieved rate
};

/// Thrown by judge_ladder when even the bottom rung fails: the ladder
/// started above capacity, so it measured nothing.
class LadderFloorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Judges a ladder run in increasing offered rate. Throws
/// CensoredLadderError when no rung fails (the top rung passed) and
/// LadderFloorError when the bottom rung already fails.
LadderVerdict judge_ladder(const std::vector<Rung>& rungs,
                           const LadderCriteria& criteria);

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response resolved (all on one clock).
struct OpenLoopSample {
  double scheduled = 0.0;
  double sent = 0.0;
  double resolved = 0.0;
  /// Latency the user sees: from the scheduled send, so generator
  /// lateness is included.
  double latency() const { return resolved - scheduled; }
  /// How late the generator ran for this request.
  double lateness() const { return sent - scheduled; }
};

}  // namespace perfbench
