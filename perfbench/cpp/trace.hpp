// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around the public calls it
// makes into each layer: name ("<layer>.<call>"), start, end, parent span
// and the session (file) id. They stay in memory and are written when the
// run ends, as a Chrome trace (loads in Perfetto and chrome://tracing) and
// as a per-layer self-time table, where self time is a span's duration
// minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::string session;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
  };

  /// Not thread-safe: the traced run records from one thread.
  int begin(std::string name, std::string session);
  void end(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ns) of every span named `name`.
  std::vector<double> durations_ns(const std::string& name) const;
  double total_ns(const std::string& name) const;

  /// Chrome trace-event document ("X" events, one process, one thread).
  intellog::common::Json chrome_trace() const;

  /// Self time per span name and per layer (the name's first component),
  /// with each as a share of `wall_ns`.
  std::string self_time_table(std::uint64_t wall_ns) const;
  /// Self time summed per layer.
  std::map<std::string, double> layer_self_ns() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// RAII span. With a null tracer it does nothing, not even read the clock,
/// so the same code path runs untraced.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string session = {})
      : tracer_(tracer),
        index_(tracer ? tracer->begin(std::move(name), std::move(session)) : -1) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void close() {
    if (tracer_ && index_ >= 0) tracer_->end(index_);
    index_ = -1;
  }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
