#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

const Metric& Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    throw std::logic_error("metric not measured: " + name);
  }
  return it->second;
}

void Report::operations(std::size_t attempted, std::size_t missed) {
  attempted_ += attempted;
  failed_ += missed;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  ++attempted_;
  if (!ok) {
    ++failed_;
    failed_checks_.push_back(what);
  }
}

void Report::config(const std::string& key, const std::string& value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  config_.emplace_back(key, value);
}

void Report::print(const std::vector<std::string>& names) const {
  for (const auto& [k, v] : config_) {
    std::printf("config %-34s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-40s %14.6f %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("checks %zu run, %zu failed\n", checks_, failed_checks_.size());
  for (const auto& c : failed_checks_) {
    std::printf("check FAILED: %s\n", c.c_str());
  }
  std::printf("operations attempted %zu, missed %zu\n", attempted_, failed_);

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = get(names[i]);
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + names[i] + " is not finite");
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].c_str(), m.value,
                  m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
