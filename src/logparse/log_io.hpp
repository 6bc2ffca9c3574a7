// Log-file I/O: sessions as on-disk log files, one file per YARN container.
//
// This is the boundary a real deployment uses — the simulator (or a real
// cluster's log aggregation) writes `<dir>/<container_id>.log` files in the
// system's native format, and the pipeline reads them back with format
// auto-detection. `tools/loggen` and the `intellog` CLI are built on this.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "logparse/formatter.hpp"
#include "logparse/session.hpp"

namespace intellog::logparse {

/// Writes one session to `path` in the given format.
void write_session_file(const Formatter& fmt, const Session& session, const std::string& path);

/// Writes each session to `dir/<container_id>.log`. Creates `dir`.
void write_log_directory(const Formatter& fmt, const std::vector<Session>& sessions,
                         const std::string& dir);

/// Reads every `*.log` file under `dir` (recursively); each file becomes a
/// session whose container id is the file's stem. The format is detected
/// per file from its first parseable line. Files in no known format are
/// skipped with a warning on stderr (counted in
/// `intellog_ingest_skipped_files_total` when a metrics registry is
/// installed).
///
/// Files are read on `jobs` pool workers (0 = hardware concurrency, capped
/// at the file count; 1 reads on the calling thread). Sessions, stderr
/// warnings and metrics are folded in sorted path order, so the result is
/// the same at every `jobs`. A file that cannot be opened throws, as the
/// lowest-ordered such file would in a serial read.
std::vector<Session> read_log_directory(const std::string& dir, std::string_view system = {},
                                        std::size_t jobs = 0);

/// Reads a single log file as one session.
Session read_session_file(const std::string& path, std::string_view system = {});

// --- resilient ingestion (chaos-hardened path) ------------------------------

/// Everything read_log_directory_resilient learned about a directory:
/// sessions built from the surviving records, the quarantine channel
/// (capped at options.max_quarantined entries across all files), and the
/// merged ingest statistics.
struct IngestReport {
  std::vector<Session> sessions;
  std::vector<QuarantinedLine> quarantined;
  IngestStats stats;
};

/// Hardened read_log_directory: never throws on input (a missing or
/// unreadable directory yields an empty report with a stderr warning).
/// Every suspicious line lands in the quarantine channel with its byte
/// offset; exact duplicates are dropped and out-of-order timestamps are
/// reinserted per `options`. Exports `intellog_ingest_*` metrics when a
/// registry is installed: `lines_total`, `records_total`,
/// `quarantined_total{reason=…}`, `duplicates_dropped_total`,
/// `reordered_total`, `skipped_files_total`. `jobs` as in
/// read_log_directory: the stats, the quarantine channel's order and the
/// warnings are folded in path order, identical at every `jobs`.
IngestReport read_log_directory_resilient(const std::string& dir, std::string_view system = {},
                                          const IngestOptions& options = {},
                                          std::size_t jobs = 0);

/// Hardened single-file read. Files in no known format quarantine their
/// first non-empty line with reason "no-known-format".
SessionIngest read_session_file_resilient(const std::string& path, std::string_view system = {},
                                          const IngestOptions& options = {});

}  // namespace intellog::logparse
