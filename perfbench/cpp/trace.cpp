#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

using intellog::common::Json;

int Tracer::begin(std::string name, std::string session) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.session = std::move(session);
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.start_ns = now_ns();
  spans_.push_back(std::move(rec));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close LIFO; tolerate an out-of-order close by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::total_ns(const std::string& name) const {
  double sum = 0;
  for (const double d : durations_ns(name)) sum += d;
  return sum;
}

Json Tracer::chrome_trace() const {
  Json events = Json::array();
  Json thread = Json::object();
  thread["name"] = "thread_name";
  thread["ph"] = "M";
  thread["pid"] = 1;
  thread["tid"] = 1;
  Json thread_args = Json::object();
  thread_args["name"] = "perfbench";
  thread["args"] = std::move(thread_args);
  events.push_back(std::move(thread));
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    Json e = Json::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns - origin) / 1e3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    e["pid"] = 1;
    e["tid"] = 1;
    Json args = Json::object();
    args["span"] = i;
    args["parent"] = s.parent;
    if (!s.session.empty()) args["session"] = s.session;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

namespace {

/// Per-span self time: duration minus the summed durations of its direct
/// children (children nest inside their parent and never overlap, since
/// one thread records them).
std::vector<double> self_ns(const std::vector<Tracer::SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

std::map<std::string, double> Tracer::layer_self_ns() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) out[layer_of(spans_[i].name)] += self[i];
  return out;
}

std::string Tracer::self_time_table(std::uint64_t wall_ns) const {
  struct Row {
    std::size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> by_name;
  const std::vector<double> self = self_ns(spans_);
  double covered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = by_name[spans_[i].name];
    ++r.count;
    r.total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    r.self += self[i];
    if (spans_[i].parent < 0) covered += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  const double wall = static_cast<double>(std::max<std::uint64_t>(1, wall_ns));
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line, "%-44s %9s %12s %12s %8s\n", "span", "count", "total_ms",
                "self_ms", "self_%");
  out << line;
  for (const auto& [name, r] : by_name) {
    std::snprintf(line, sizeof line, "%-44s %9zu %12.3f %12.3f %7.2f%%\n", name.c_str(), r.count,
                  r.total / 1e6, r.self / 1e6, 100.0 * r.self / wall);
    out << line;
  }
  out << "\n";
  std::snprintf(line, sizeof line, "%-44s %12s %8s\n", "layer", "self_ms", "self_%");
  out << line;
  for (const auto& [layer, ns] : layer_self_ns()) {
    std::snprintf(line, sizeof line, "%-44s %12.3f %7.2f%%\n", layer.c_str(), ns / 1e6,
                  100.0 * ns / wall);
    out << line;
  }
  std::snprintf(line, sizeof line, "\ntraced wall %.3f ms; root spans cover %.2f%% of it\n",
                wall / 1e6, 100.0 * covered / wall);
  out << line;
  return out.str();
}

}  // namespace perfbench
