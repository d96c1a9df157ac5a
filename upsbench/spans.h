// In-memory span tracer for the benchmark: one span per call into a
// library layer, recorded from the benchmark's own code (nothing inside
// src/ is instrumented). Spans are kept in memory and written once, at the
// end of a traced run, together with each layer's self time.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace upsbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock_type::time_point a,
                                            clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct span_record {
  std::string name;
  int parent = -1;  // index into the span list, -1 for a root
  double start_s = 0;  // relative to the tracer's origin
  double end_s = 0;
};

class tracer {
 public:
  explicit tracer(clock_type::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Returns the new span's id, or -1 when tracing is off.
  int open(const std::string& name, clock_type::time_point t) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(),
                      seconds_between(origin_, t), 0});
    stack_.push_back(id);
    return id;
  }

  void close(int id, clock_type::time_point t) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, t);
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<span_record>& spans() const noexcept {
    return spans_;
  }

  // Self time per span name: each span's duration minus the part of it
  // that its child spans cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

 private:
  clock_type::time_point origin_;
  bool enabled_ = false;
  std::vector<span_record> spans_;
  std::vector<int> stack_;
};

// Times one call into a layer. The wall time is always measured (the
// end-to-end metrics need it); a span is recorded only when tracing is on.
class span {
 public:
  span(tracer& t, const std::string& name)
      : tracer_(t), start_(clock_type::now()) {
    id_ = tracer_.open(name, start_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  ~span() { stop(); }

  // Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      end_ = clock_type::now();
      tracer_.close(id_, end_);
      stopped_ = true;
    }
    return seconds_between(start_, end_);
  }

 private:
  tracer& tracer_;
  clock_type::time_point start_;
  clock_type::time_point end_;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace upsbench
