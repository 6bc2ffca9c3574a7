// Session management (§5): "Execution in Yarn is encapsulated inside
// containers. Thus, we consider the log messages generated by one container
// as a log session."
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "logparse/formatter.hpp"
#include "logparse/log_record.hpp"
#include "logparse/mmap_file.hpp"

namespace intellog::logparse {

struct FieldLayout;

/// Backing bytes for a session's zero-copy records: the mmap'd source
/// file plus the one string parse has to synthesize, the container id
/// (every record's `container_id` views it). Held by shared_ptr, so the
/// storage never moves — the id's bytes stay put even when it fits the
/// std::string's SSO buffer — and copies of a Session, with the records
/// inside them, stay valid for as long as any copy lives.
struct SessionStorage {
  std::string container_id;
  std::shared_ptr<MappedFile> mapping;
};

/// One log session: everything a single YARN container logged, in order.
struct Session {
  std::string container_id;
  std::string system;  ///< "spark" / "mapreduce" / "tez" / ...
  /// Path of the log file this session was read from (empty for in-memory
  /// sessions). Together with each record's line_no/byte_offset this is the
  /// evidence provenance anomaly reports cite.
  std::string source_file;
  std::vector<LogRecord> records;
  /// Present only for sessions whose records borrow their bytes (mmap
  /// ingest). Owned-record sessions leave it null. Copying or moving the
  /// Session shares/transfers the backing, so either is always safe.
  std::shared_ptr<SessionStorage> storage;
  /// Spell key of each record (-1: no match), cached by the streaming
  /// detector as it consumes them so detection does not match again.
  /// Detection trusts it only while it has exactly one entry per record;
  /// code that edits `records` must clear it (appending without a key
  /// leaves it stale, which is safe: detection re-matches).
  std::vector<int> spell_keys;
  /// The field layout Spell returned with each cached key (null: none),
  /// under the same rule as `spell_keys`. The layouts belong to the model's
  /// Spell: detect only against the model that consumed the records.
  std::vector<const FieldLayout*> spell_layouts;

  std::size_t length() const { return records.size(); }

  /// Rewrites every record to own its bytes and drops the backing, e.g.
  /// before serializing records past the session's lifetime.
  void materialize() {
    for (LogRecord& rec : records) rec.materialize();
    storage.reset();
  }
};

/// Groups records into sessions by container id, preserving arrival order
/// within each container. Records with an empty container id are dropped.
std::vector<Session> split_sessions(const std::vector<LogRecord>& records,
                                    std::string_view system = {});

/// Parses raw lines (one container's log file) into a session using the
/// given formatter. Unparseable lines (stack-trace continuations) are
/// appended to the previous record's content.
Session parse_session(const Formatter& fmt, std::string_view container_id,
                      const std::vector<std::string>& lines, std::string_view system = {});

/// View-based core of parse_session. When `backing` is non-null the
/// produced records BORROW: level/source/content are views into the line
/// bytes (which must outlive the session — the caller attaches the
/// MappedFile to Session::storage) and container_id views the backing's
/// copy of the id. With a null backing every field is an owning copy.
/// Line byte offsets accumulate exactly as the getline path did
/// (line + '\n').
Session parse_session(const Formatter& fmt, std::string_view container_id,
                      const std::vector<std::string_view>& lines, std::string_view system,
                      SessionStorage* backing);

// --- resilient ingestion (chaos-hardened path) ------------------------------
//
// Logs from failing clusters arrive torn, duplicated, reordered and
// interleaved with garbage (§6.4 injects faults *while* jobs log). The
// resilient path never throws on input: every suspicious line is routed to
// a quarantine channel — kept with its byte offset for forensics — instead
// of being silently glued onto a previous record or crashing the parse.

/// One line the ingest layer refused, with enough provenance to find it in
/// the source file (`dd skip=<byte_offset>`).
struct QuarantinedLine {
  std::string file;              ///< source path (or container id)
  std::size_t line_no = 0;       ///< 1-based line number within the file
  std::uint64_t byte_offset = 0; ///< offset of the line's first byte
  std::size_t raw_bytes = 0;     ///< original line length
  std::string text;              ///< raw bytes, truncated for storage
  std::string reason;            ///< "torn"|"binary"|"oversized"|"unparseable"|"no-known-format"
};

struct IngestOptions {
  std::size_t max_line_bytes = 64 * 1024; ///< longer lines are quarantined
  /// Records scanned back to reinsert an out-of-order timestamp into
  /// order (0 disables reordering; arrival order is kept).
  std::size_t reorder_window = 8;
  /// Records scanned back for exact duplicates (same timestamp, level,
  /// source and content); 0 disables deduplication. At-least-once shippers
  /// re-deliver close to the original, so a shallow window suffices — and it
  /// is the dominant per-line cost on clean input, so keep it small. A hit
  /// refreshes the original's window slot, so re-delivery chains (copies of
  /// copies) are caught at any depth.
  std::size_t dedupe_window = 8;
  std::size_t max_quarantined = 10000;      ///< kept lines cap (oldest rotate out, counted)
  std::size_t quarantine_text_bytes = 512;  ///< stored bytes per quarantined line
  /// Cap on summed stored `text` bytes across kept quarantined lines; the
  /// oldest entries rotate out (and are counted) when a garbage flood
  /// would otherwise grow the channel without bound.
  std::size_t max_quarantined_bytes = 1024 * 1024;
};

struct IngestStats {
  std::size_t lines_total = 0;
  std::size_t records = 0;
  std::size_t continuations = 0;
  std::size_t quarantined = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t reordered = 0;
  std::size_t skipped_files = 0;
  /// Quarantined lines rotated out oldest-first because the bounded channel
  /// hit its record or byte cap. Always <= quarantined.
  std::size_t quarantine_dropped = 0;
  std::map<std::string, std::size_t> quarantined_by_reason;

  void merge(const IngestStats& other);
};

/// Bounded holder for quarantined lines: a record cap and a stored-byte cap
/// with oldest-first rotation. Under a garbage flood the newest evidence is
/// what a responder needs; the oldest entries rotate out and are *counted*
/// (dropped()), never silently discarded. A deque keeps rotation O(1) even
/// when a million-line flood churns the channel.
class QuarantineChannel {
 public:
  QuarantineChannel(std::size_t max_records, std::size_t max_bytes)
      : max_records_(max_records), max_bytes_(max_bytes) {}

  /// Admits `q`, rotating out the oldest entries while either cap is
  /// exceeded. A single entry may exceed the byte cap alone (its text is
  /// already truncated upstream); with a zero record cap everything drops.
  void push(QuarantinedLine q);

  std::size_t size() const { return items_.size(); }
  std::size_t stored_bytes() const { return bytes_; }
  std::size_t dropped() const { return dropped_; }

  /// Drains the channel oldest-first; the channel is empty afterwards
  /// (dropped() is preserved).
  std::vector<QuarantinedLine> take();

 private:
  std::deque<QuarantinedLine> items_;
  std::size_t max_records_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::size_t dropped_ = 0;
};

struct SessionIngest {
  Session session;
  std::vector<QuarantinedLine> quarantined;
  IngestStats stats;
};

/// Hardened parse_session: never throws on input. Well-formed lines become
/// records (exact duplicates within `dedupe_window` dropped; out-of-order
/// timestamps reinserted within `reorder_window`); unparseable lines that
/// look like stack-trace continuations still fold into the previous record;
/// everything else — torn format prefixes, binary/invalid-UTF-8 garbage,
/// oversized lines, leading junk — is quarantined with its byte offset.
SessionIngest parse_session_resilient(const Formatter& fmt, std::string_view container_id,
                                      const std::vector<std::string>& lines,
                                      std::string_view system = {},
                                      const IngestOptions& options = {},
                                      std::string_view file = {});

/// View-based core of parse_session_resilient; `backing` as in the
/// parse_session overload. The clean-line fast path allocates nothing —
/// quarantine, continuation-folding, dedupe string compares and reorder
/// bookkeeping stay off it.
SessionIngest parse_session_resilient(const Formatter& fmt, std::string_view container_id,
                                      const std::vector<std::string_view>& lines,
                                      std::string_view system, const IngestOptions& options,
                                      std::string_view file, SessionStorage* backing);

/// True when `line` reads as binary garbage rather than log text: embedded
/// NUL, invalid UTF-8, or a high density of control characters.
bool looks_binary(std::string_view line);

}  // namespace intellog::logparse
