#include "stats.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = len + 1, and cut point
  // i of n=4 interpolates between data[j-1] and data[j] with j = i*m//4
  // clamped to [1, len-1] and weight delta = i*m - j*4.
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("p not in (0, 1]");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::optional<TailPercentile> tail_percentile(std::vector<double> values,
                                              std::size_t min_tail) {
  const std::size_t n = values.size();
  for (double p : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    if (n > 0 && n - std::max<std::size_t>(rank, 1) >= min_tail) {
      return TailPercentile{p, percentile(std::move(values), p)};
    }
  }
  return std::nullopt;
}

bool rung_passes(const Rung& rung, const LadderCriteria& criteria) {
  if (rung.attempted == 0) return false;
  const double served = static_cast<double>(rung.served) /
                        static_cast<double>(rung.attempted);
  return rung.p50_s < criteria.p50_limit_s &&
         served >= criteria.min_served_fraction &&
         rung.achieved_rps >=
             criteria.min_achieved_fraction * rung.offered_rps;
}

LadderVerdict judge_ladder(const std::vector<Rung>& rungs,
                           const LadderCriteria& criteria) {
  std::size_t first_fail = rungs.size();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_passes(rungs[i], criteria)) {
      first_fail = i;
      break;
    }
  }
  if (first_fail == rungs.size()) {
    throw CensoredLadderError(
        "capacity ladder censored: the top rung passed, so the maximum "
        "rate lies above the ladder");
  }
  if (first_fail == 0) {
    const Rung& r = rungs[0];
    throw LadderFloorError(
        "capacity ladder failed at its bottom rung (offered " +
        std::to_string(r.offered_rps) + " rps, achieved " +
        std::to_string(r.achieved_rps) + " rps, served " +
        std::to_string(r.served) + " of " + std::to_string(r.attempted) +
        ", p50 " + std::to_string(r.p50_s * 1e3) +
        " ms); it starts above capacity");
  }
  return {first_fail - 1, rungs[first_fail - 1].achieved_rps};
}

}  // namespace perfbench
