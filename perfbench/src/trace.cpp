#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void Tracer::add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {spans_.begin(), spans_.end()};
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"id\": %llu, \"parent\": %llu, \"request\": %llu}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start, s.end,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Span::Span(std::string name, std::uint64_t request) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  active_ = true;
  rec_.name = std::move(name);
  rec_.request = request;
  rec_.id = t.next_id();
  rec_.parent = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start = Tracer::now();
}

Span::~Span() {
  if (!active_) return;
  rec_.end = Tracer::now();
  t_current_span = saved_parent_;
  Tracer::global().add(std::move(rec_));
}

void Span::record(std::string name, double start, double end,
                  std::uint64_t request) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.start = start;
  rec.end = end;
  rec.id = t.next_id();
  rec.parent = t_current_span;
  rec.request = request;
  t.add(std::move(rec));
}

}  // namespace perfbench
