#include "logparse/log_io.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "logparse/mmap_file.hpp"
#include "logparse/scanner.hpp"
#include "obs/flight/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"

namespace intellog::logparse {

namespace fs = std::filesystem;

namespace {

std::string skipped_warning(const std::string& path) {
  return "log_io: warning: skipping " + path + ": no known log format\n";
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

const Formatter* first_format(const std::vector<std::string_view>& lines) {
  for (const auto& l : lines) {
    if (const Formatter* fmt = detect_format(l)) return fmt;
  }
  return nullptr;
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

/// One file's read, made without side effects so that a directory read can
/// run it on a pool worker: the warning the serial reader printed and the
/// skip it counted are carried here and replayed in path order.
struct FileRead {
  SessionIngest ingest;      ///< the plain reader fills only `session`
  bool empty_file = false;   ///< zero bytes on disk
  bool skipped = false;      ///< no known format: intellog_ingest_skipped_files_total
  std::string warning;       ///< stderr text for this file
  std::exception_ptr error;  ///< what reading it threw
};

/// Prints and counts what reading one file observed.
void replay(const FileRead& r) {
  if (!r.warning.empty()) std::cerr << r.warning;
  if (!r.skipped) return;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("intellog_ingest_skipped_files_total").add(1);
  }
}

FileRead read_plain(const std::string& path, std::string_view system) {
  PROF_FRAME("ingest.read_file");
  FileRead out;
  Session& s = out.ingest.session;
  std::string error;
  auto mapping = MappedFile::open(path, &error);
  if (mapping == nullptr) throw std::runtime_error("read_session_file: cannot open " + path);
  out.empty_file = mapping->view().empty();
  const std::vector<std::string_view> lines = scan_lines(mapping->view());
  const Formatter* fmt = first_format(lines);  // format auto-detection
  const std::string container = fs::path(path).stem().string();
  if (!fmt) {
    if (!all_lines_empty(lines)) {
      out.skipped = true;
      out.warning = skipped_warning(path);
    }
    s = Session{container, std::string(system), path, {}, nullptr, {}, {}};
    return out;
  }
  auto storage = std::make_shared<SessionStorage>();
  storage->mapping = std::move(mapping);
  s = parse_session(*fmt, container, lines, system, storage.get());
  s.source_file = path;
  s.storage = std::move(storage);
  return out;
}

FileRead read_resilient(const std::string& path, std::string_view system,
                        const IngestOptions& options) {
  PROF_FRAME("ingest.read_file_resilient");
  FileRead r;
  SessionIngest& out = r.ingest;
  out.session.container_id = fs::path(path).stem().string();
  out.session.system = std::string(system);
  out.session.source_file = path;
  std::string error;
  auto mapping = MappedFile::open(path, &error);
  if (mapping == nullptr) {
    // Off the hot path: a missing file and an unreadable one warn apart,
    // and an unreadable zero-byte file still counts as empty.
    std::error_code ec;
    const bool exists = fs::exists(path, ec) && !ec;
    r.warning = "log_io: warning: cannot read " + path + (exists ? ": " + error : "") + "\n";
    r.empty_file = fs::file_size(path, ec) == 0 && !ec;
    return r;
  }
  r.empty_file = mapping->view().empty();
  const std::vector<std::string_view> lines = scan_lines(mapping->view());
  const Formatter* fmt = first_format(lines);
  if (!fmt) {
    if (all_lines_empty(lines)) return r;
    r.skipped = true;
    r.warning = skipped_warning(path);
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
    return r;
  }
  auto storage = std::make_shared<SessionStorage>();
  storage->mapping = std::move(mapping);
  out = parse_session_resilient(*fmt, out.session.container_id, lines, system, options, path,
                                storage.get());
  out.session.storage = std::move(storage);
  FLIGHT_EVENT(kIngestAdmit, out.session.records.size(), out.stats.lines_total);
  if (out.stats.quarantined > 0) {
    FLIGHT_EVENT(kIngestQuarantine, out.stats.quarantined, out.stats.lines_total);
  }
  return r;
}

/// The file loop both directory readers share. Reads every path with
/// `read` on up to `jobs` workers (0 = hardware concurrency; never more
/// than one per file). Workers claim the next unread index from an atomic
/// counter, so one large file holds up one worker rather than a fixed
/// share of the directory, and each result lands in its own slot for the
/// caller to fold in path order. A read that throws keeps its exception
/// in its slot and stops further claims: the fold rethrows the lowest
/// failing index, and files after it would be discarded unread anyway.
///
/// Memory ordering: the counter only has to hand out distinct indices, so
/// relaxed RMWs suffice; every slot is written by exactly one worker and
/// is published to the caller by parallel_for's future joins.
template <typename Read>
std::vector<FileRead> read_files(const std::vector<std::string>& paths, std::size_t jobs,
                                 const Read& read) {
  std::vector<FileRead> reads(paths.size());
  std::atomic<std::size_t> next{0};
  const auto drain = [&](std::size_t /*worker*/) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < paths.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        reads[i] = read(paths[i]);
      } catch (...) {
        reads[i].error = std::current_exception();
        next.store(paths.size(), std::memory_order_relaxed);
      }
    }
  };
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(jobs, paths.size());
  if (workers <= 1) {
    drain(0);
  } else {
    common::ThreadPool pool(workers);
    pool.parallel_for(workers, drain);
  }
  return reads;
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
  FileRead r = read_plain(path, system);
  replay(r);
  return std::move(r.ingest.session);
}

std::vector<Session> read_log_directory(const std::string& dir, std::string_view system,
                                        std::size_t jobs) {
  PROF_FRAME("ingest.read_dir");
  if (!fs::exists(dir)) throw std::runtime_error("read_log_directory: no such dir " + dir);
  std::vector<FileRead> reads = read_files(
      sorted_log_paths(dir), jobs, [system](const std::string& p) { return read_plain(p, system); });
  std::vector<Session> sessions;
  for (FileRead& r : reads) {
    if (r.error) std::rethrow_exception(r.error);
    replay(r);
    // A zero-byte .log file is a real observation — a container that died
    // before emitting a single line (e.g. a session abort at startup) —
    // and detection must see it as an empty session. Files with content
    // that parsed to nothing are junk and stay skipped.
    if (!r.ingest.session.records.empty() || r.empty_file) {
      sessions.push_back(std::move(r.ingest.session));
    }
  }
  return sessions;
}

// --- resilient ingestion -----------------------------------------------------

SessionIngest read_session_file_resilient(const std::string& path, std::string_view system,
                                          const IngestOptions& options) {
  FileRead r = read_resilient(path, system, options);
  replay(r);
  return std::move(r.ingest);
}

IngestReport read_log_directory_resilient(const std::string& dir, std::string_view system,
                                          const IngestOptions& options, std::size_t jobs) {
  PROF_FRAME("ingest.read_dir_resilient");
  IngestReport report;
  std::error_code ec;
  if (!fs::exists(dir, ec) || ec) {
    std::cerr << "log_io: warning: no such log directory: " << dir << "\n";
    return report;
  }
  std::vector<FileRead> reads =
      read_files(sorted_log_paths(dir), jobs, [system, &options](const std::string& p) {
        return read_resilient(p, system, options);
      });
  // Directory-level bounded channel: per-file ingest already rotates within
  // each file; this re-applies the caps across files so the oldest evidence
  // rotates out first globally instead of later files being truncated.
  QuarantineChannel channel(options.max_quarantined, options.max_quarantined_bytes);
  for (FileRead& r : reads) {
    if (r.error) std::rethrow_exception(r.error);
    replay(r);
    SessionIngest& one = r.ingest;
    report.stats.merge(one.stats);
    for (auto& q : one.quarantined) channel.push(std::move(q));
    // Zero-byte files surface as empty sessions (see read_log_directory):
    // a container that never logged is detection signal, not junk.
    if (!one.session.records.empty() || r.empty_file) {
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
