// What one benchmark run reports: named metrics with units and sample
// counts, the operations attempted and missed, the output checks, and the
// run's configuration.
//
// The last line of standard output is one JSON object with exactly the
// keys correct, attempted, failed and metrics; everything else (sample
// counts, configuration, failed checks) is printed as readable lines
// above it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< how many measurements the value summarizes
};

class Report {
 public:
  /// Sets (or overwrites) a metric.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  const Metric& get(const std::string& name) const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Counts `attempted` operations of which `missed` failed, were refused
  /// or answered wrongly.
  void operations(std::size_t attempted, std::size_t missed);
  /// Records an output check; a failed check also counts as a miss.
  void check(bool ok, const std::string& what);
  /// Sets a free-form configuration entry (thread counts, kernel,
  /// sizes, final losses), keeping the order of first appearance.
  void config(const std::string& key, const std::string& value);

  bool correct() const { return failed_checks_.empty() && failed_ == 0; }

  /// Prints the readable lines, then the final JSON line restricted to
  /// `names` (every one must be present).
  void print(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
