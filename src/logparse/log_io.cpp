#include "logparse/log_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "logparse/mmap_file.hpp"
#include "logparse/scanner.hpp"
#include "obs/flight/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"

namespace intellog::logparse {

namespace fs = std::filesystem;

namespace {

void count_skipped_file(const std::string& path) {
  std::cerr << "log_io: warning: skipping " << path << ": no known log format\n";
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("intellog_ingest_skipped_files_total").add(1);
  }
}

// Splits a mapped file into line views with the SWAR scanner. The views
// point straight into the mapping; offsets are byte-exact (scanner
// semantics mirror the std::getline loop this replaced).
std::vector<std::string_view> scan_lines(std::string_view data) {
  std::vector<std::string_view> lines;
  lines.reserve(data.size() / 48 + 1);  // typical log line runs 60-120 bytes
  LineScanner scanner(data);
  std::string_view line;
  std::size_t offset = 0;
  while (scanner.next(&line, &offset)) lines.push_back(line);
  return lines;
}

bool all_lines_empty(const std::vector<std::string_view>& lines) {
  return std::all_of(lines.begin(), lines.end(),
                     [](std::string_view l) { return l.empty(); });
}

std::vector<std::string> sorted_log_paths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".log") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic order
  return paths;
}

}  // namespace

void write_session_file(const Formatter& fmt, const Session& session,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_session_file: cannot open " + path);
  for (const auto& rec : session.records) out << fmt.render(rec) << "\n";
}

void write_log_directory(const Formatter& fmt, const std::vector<Session>& sessions,
                         const std::string& dir) {
  fs::create_directories(dir);
  for (const auto& s : sessions) {
    write_session_file(fmt, s, (fs::path(dir) / (s.container_id + ".log")).string());
  }
}

Session read_session_file(const std::string& path, std::string_view system) {
  PROF_FRAME("ingest.read_file");
  std::string error;
  auto mapping = MappedFile::open(path, &error);
  if (mapping == nullptr) throw std::runtime_error("read_session_file: cannot open " + path);
  const std::vector<std::string_view> lines = scan_lines(mapping->view());

  // Format auto-detection from the first parseable line.
  const Formatter* fmt = nullptr;
  for (const auto& l : lines) {
    fmt = detect_format(l);
    if (fmt) break;
  }
  const std::string container = fs::path(path).stem().string();
  if (!fmt) {
    if (!all_lines_empty(lines)) count_skipped_file(path);
    return Session{container, std::string(system), path, {}, nullptr, {}};
  }
  auto storage = std::make_shared<SessionStorage>();
  storage->mapping = std::move(mapping);
  Session s = parse_session(*fmt, container, lines, system, storage.get());
  s.source_file = path;
  s.storage = std::move(storage);
  return s;
}

std::vector<Session> read_log_directory(const std::string& dir, std::string_view system) {
  PROF_FRAME("ingest.read_dir");
  if (!fs::exists(dir)) throw std::runtime_error("read_log_directory: no such dir " + dir);
  std::vector<Session> sessions;
  for (const auto& p : sorted_log_paths(dir)) {
    Session s = read_session_file(p, system);
    // A zero-byte .log file is a real observation — a container that died
    // before emitting a single line (e.g. a session abort at startup) —
    // and detection must see it as an empty session. Files with content
    // that parsed to nothing are junk and stay skipped.
    std::error_code ec;
    const bool empty_file = fs::file_size(p, ec) == 0 && !ec;
    if (!s.records.empty() || empty_file) sessions.push_back(std::move(s));
  }
  return sessions;
}

// --- resilient ingestion -----------------------------------------------------

SessionIngest read_session_file_resilient(const std::string& path, std::string_view system,
                                          const IngestOptions& options) {
  PROF_FRAME("ingest.read_file_resilient");
  SessionIngest out;
  out.session.container_id = fs::path(path).stem().string();
  out.session.system = std::string(system);
  out.session.source_file = path;
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    std::cerr << "log_io: warning: cannot read " << path << "\n";
    return out;
  }
  std::string error;
  auto mapping = MappedFile::open(path, &error);
  if (mapping == nullptr) {
    std::cerr << "log_io: warning: cannot read " << path << ": " << error << "\n";
    return out;
  }
  const std::vector<std::string_view> lines = scan_lines(mapping->view());

  const Formatter* fmt = nullptr;
  for (const auto& l : lines) {
    fmt = detect_format(l);
    if (fmt) break;
  }
  if (!fmt) {
    if (all_lines_empty(lines)) return out;
    count_skipped_file(path);
    ++out.stats.skipped_files;
    out.stats.lines_total = lines.size();
    for (const auto& l : lines) {
      if (l.empty()) continue;
      ++out.stats.quarantined;
      ++out.stats.quarantined_by_reason["no-known-format"];
      QuarantinedLine q;
      q.file = path;
      q.line_no = 1 + static_cast<std::size_t>(&l - lines.data());
      q.raw_bytes = l.size();
      q.text = std::string(l.substr(0, options.quarantine_text_bytes));
      q.reason = "no-known-format";
      for (std::size_t i = 0; i + 1 < q.line_no; ++i) q.byte_offset += lines[i].size() + 1;
      out.quarantined.push_back(std::move(q));
      break;  // one forensic sample per skipped file is enough
    }
    FLIGHT_EVENT(kIngestQuarantine, out.stats.quarantined, out.stats.lines_total);
    return out;
  }
  auto storage = std::make_shared<SessionStorage>();
  storage->mapping = std::move(mapping);
  SessionIngest ingest = parse_session_resilient(*fmt, out.session.container_id, lines, system,
                                                 options, path, storage.get());
  ingest.session.storage = std::move(storage);
  FLIGHT_EVENT(kIngestAdmit, ingest.session.records.size(), ingest.stats.lines_total);
  if (ingest.stats.quarantined > 0) {
    FLIGHT_EVENT(kIngestQuarantine, ingest.stats.quarantined, ingest.stats.lines_total);
  }
  return ingest;
}

IngestReport read_log_directory_resilient(const std::string& dir, std::string_view system,
                                          const IngestOptions& options) {
  PROF_FRAME("ingest.read_dir_resilient");
  IngestReport report;
  std::error_code ec;
  if (!fs::exists(dir, ec) || ec) {
    std::cerr << "log_io: warning: no such log directory: " << dir << "\n";
    return report;
  }
  // Directory-level bounded channel: per-file ingest already rotates within
  // each file; this re-applies the caps across files so the oldest evidence
  // rotates out first globally instead of later files being truncated.
  QuarantineChannel channel(options.max_quarantined, options.max_quarantined_bytes);
  for (const auto& p : sorted_log_paths(dir)) {
    SessionIngest one = read_session_file_resilient(p, system, options);
    report.stats.merge(one.stats);
    for (auto& q : one.quarantined) channel.push(std::move(q));
    // Zero-byte files surface as empty sessions (see read_log_directory):
    // a container that never logged is detection signal, not junk.
    std::error_code fec;
    const bool empty_file = fs::file_size(p, fec) == 0 && !fec;
    if (!one.session.records.empty() || empty_file) {
      report.sessions.push_back(std::move(one.session));
    }
  }
  report.quarantined = channel.take();
  report.stats.quarantine_dropped += channel.dropped();

  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->describe("intellog_ingest_skipped_files_total",
                  "Files skipped because no known log format matched");
    reg->describe("intellog_ingest_lines_total", "Raw lines seen by resilient ingest");
    reg->describe("intellog_ingest_records_total", "Records produced by resilient ingest");
    reg->describe("intellog_ingest_duplicates_dropped_total",
                  "Duplicate records dropped during ingest");
    reg->describe("intellog_ingest_reordered_total",
                  "Records reordered into timestamp order during ingest");
    reg->describe("intellog_ingest_quarantined_total",
                  "Lines quarantined during ingest, by reason");
    reg->describe("intellog_ingest_quarantine_dropped_total",
                  "Quarantined lines rotated out oldest-first by the bounded channel");
    reg->counter("intellog_ingest_lines_total").add(report.stats.lines_total);
    reg->counter("intellog_ingest_records_total").add(report.stats.records);
    reg->counter("intellog_ingest_duplicates_dropped_total")
        .add(report.stats.duplicates_dropped);
    reg->counter("intellog_ingest_reordered_total").add(report.stats.reordered);
    reg->counter("intellog_ingest_quarantine_dropped_total")
        .add(report.stats.quarantine_dropped);
    for (const auto& [reason, n] : report.stats.quarantined_by_reason) {
      reg->counter("intellog_ingest_quarantined_total", {{"reason", reason}}).add(n);
    }
  }
  return report;
}

}  // namespace intellog::logparse
