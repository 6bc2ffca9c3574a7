#include "logparse/session.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>

#include "obs/profile/profile.hpp"

namespace intellog::logparse {

std::vector<Session> split_sessions(const std::vector<LogRecord>& records,
                                    std::string_view system) {
  // std::map keeps container order deterministic (sorted by id).
  std::map<std::string, Session, std::less<>> by_container;
  for (const LogRecord& rec : records) {
    if (rec.container_id.empty()) continue;
    auto it = by_container.find(rec.container_id.view());
    if (it == by_container.end()) {
      it = by_container.emplace(rec.container_id.str(), Session{}).first;
      it->second.container_id = rec.container_id.str();
      it->second.system = std::string(system);
    }
    Session& s = it->second;
    s.records.push_back(rec);
    // The output sessions carry no backing storage, so any borrowed input
    // record must not leave dangling views behind (no-op for owned ones).
    s.records.back().materialize();
  }
  std::vector<Session> out;
  out.reserve(by_container.size());
  for (auto& [id, session] : by_container) out.push_back(std::move(session));
  return out;
}

namespace {

std::vector<std::string_view> as_views(const std::vector<std::string>& lines) {
  return std::vector<std::string_view>(lines.begin(), lines.end());
}

// Builds one record from parsed views: borrowing them when the session
// has backing storage, copying otherwise.
LogRecord make_record(const RecordView& v, std::string_view container_id,
                      bool borrow) {
  LogRecord rec;
  rec.timestamp_ms = v.timestamp_ms;
  if (borrow) {
    rec.level = common::ArenaString::borrowed(v.level);
    rec.source = common::ArenaString::borrowed(v.source);
    rec.content = common::ArenaString::borrowed(v.content);
    rec.container_id = common::ArenaString::borrowed(container_id);
  } else {
    rec.level = v.level;
    rec.source = v.source;
    rec.content = v.content;
    rec.container_id = container_id;
  }
  return rec;
}

// The container id records carry: a copy pinned in `backing` when the
// records borrow, the caller's bytes otherwise (make_record copies them).
std::string_view borrow_container_id(SessionStorage* backing, std::string_view container_id) {
  if (backing == nullptr) return container_id;
  backing->container_id = std::string(container_id);
  return backing->container_id;
}

}  // namespace

Session parse_session(const Formatter& fmt, std::string_view container_id,
                      const std::vector<std::string>& lines, std::string_view system) {
  return parse_session(fmt, container_id, as_views(lines), system, nullptr);
}

Session parse_session(const Formatter& fmt, std::string_view container_id,
                      const std::vector<std::string_view>& lines, std::string_view system,
                      SessionStorage* backing) {
  PROF_FRAME("ingest.parse");
  Session s;
  s.container_id = std::string(container_id);
  s.system = std::string(system);
  // Borrowed records view the backing's copy, not s.container_id: short
  // ids sit in the std::string's SSO buffer, which moves with the Session.
  const std::string_view cid = borrow_container_id(backing, container_id);
  s.records.reserve(lines.size());  // continuations only ever shrink this
  RecordView v;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < lines.size(); ++i, offset += lines[i - 1].size() + 1) {
    const std::string_view line = lines[i];
    if (fmt.parse_view(line, &v)) {
      LogRecord rec = make_record(v, cid, backing != nullptr);
      rec.line_no = static_cast<std::uint32_t>(i + 1);
      rec.byte_offset = offset;
      s.records.push_back(std::move(rec));
    } else if (!s.records.empty()) {
      // Continuation (stack trace): materializes the record's content —
      // off the fast path, and repeated appends stay amortized.
      common::ArenaString& c = s.records.back().content;
      c += '\n';
      c += line;
    }
  }
  return s;
}

// --- resilient ingestion -----------------------------------------------------

void IngestStats::merge(const IngestStats& other) {
  lines_total += other.lines_total;
  records += other.records;
  continuations += other.continuations;
  quarantined += other.quarantined;
  duplicates_dropped += other.duplicates_dropped;
  reordered += other.reordered;
  skipped_files += other.skipped_files;
  quarantine_dropped += other.quarantine_dropped;
  for (const auto& [reason, n] : other.quarantined_by_reason) {
    quarantined_by_reason[reason] += n;
  }
}

void QuarantineChannel::push(QuarantinedLine q) {
  if (max_records_ == 0) {
    ++dropped_;
    return;
  }
  bytes_ += q.text.size();
  items_.push_back(std::move(q));
  while (items_.size() > max_records_ || (bytes_ > max_bytes_ && items_.size() > 1)) {
    bytes_ -= items_.front().text.size();
    items_.pop_front();
    ++dropped_;
  }
}

std::vector<QuarantinedLine> QuarantineChannel::take() {
  std::vector<QuarantinedLine> out;
  out.reserve(items_.size());
  for (auto& q : items_) out.push_back(std::move(q));
  items_.clear();
  bytes_ = 0;
  return out;
}

bool looks_binary(std::string_view line) {
  std::size_t control = 0;
  for (std::size_t i = 0; i < line.size();) {
    const unsigned char b = static_cast<unsigned char>(line[i]);
    if (b == 0) return true;  // NUL never appears in log text
    if (b < 0x80) {
      if (b < 0x20 && b != '\t' && b != '\r') ++control;
      ++i;
      continue;
    }
    // Validate one UTF-8 multi-byte sequence.
    std::size_t len = 0;
    if ((b & 0xE0) == 0xC0) len = 2;
    else if ((b & 0xF0) == 0xE0) len = 3;
    else if ((b & 0xF8) == 0xF0) len = 4;
    else return true;  // stray continuation byte or invalid lead
    if (i + len > line.size()) return true;  // truncated sequence
    for (std::size_t k = 1; k < len; ++k) {
      if ((static_cast<unsigned char>(line[i + k]) & 0xC0) != 0x80) return true;
    }
    i += len;
  }
  // Dense control characters = binary spill even if each byte is "valid".
  return control > 2 && control * 10 > line.size();
}

namespace {

/// Both supported formats open with a digit-led timestamp ("2019-06-…",
/// "19/06/…"); an unparseable digit-led line is a torn format prefix, not a
/// stack-trace continuation (those start with whitespace, "at …",
/// "Caused by:", an exception class, …).
bool looks_torn(std::string_view line) {
  return !line.empty() && std::isdigit(static_cast<unsigned char>(line[0]));
}

}  // namespace

SessionIngest parse_session_resilient(const Formatter& fmt, std::string_view container_id,
                                      const std::vector<std::string>& lines,
                                      std::string_view system, const IngestOptions& options,
                                      std::string_view file) {
  return parse_session_resilient(fmt, container_id, as_views(lines), system, options, file,
                                 nullptr);
}

SessionIngest parse_session_resilient(const Formatter& fmt, std::string_view container_id,
                                      const std::vector<std::string_view>& lines,
                                      std::string_view system, const IngestOptions& options,
                                      std::string_view file, SessionStorage* backing) {
  PROF_FRAME("ingest.parse_resilient");
  SessionIngest out;
  out.session.container_id = std::string(container_id);
  out.session.system = std::string(system);
  out.session.source_file = std::string(file);
  const std::string source = file.empty() ? std::string(container_id) : std::string(file);
  const std::string_view cid = borrow_container_id(backing, container_id);

  QuarantineChannel channel(options.max_quarantined, options.max_quarantined_bytes);
  const auto quarantine = [&](std::size_t line_no, std::uint64_t offset,
                              std::string_view line, const char* reason) {
    ++out.stats.quarantined;
    ++out.stats.quarantined_by_reason[reason];
    QuarantinedLine q;
    q.file = source;
    q.line_no = line_no;
    q.byte_offset = offset;
    q.raw_bytes = line.size();
    q.text = std::string(line.substr(0, options.quarantine_text_bytes));
    q.reason = reason;
    channel.push(std::move(q));
  };

  auto& recs = out.session.records;
  recs.reserve(lines.size());  // quarantine/dedupe only ever shrink this

  // Compact dedupe index parallel to `recs`: each accepted record leaves one
  // 64-bit signature mixing its timestamp, content length, and 8 bytes
  // sampled from the middle of the content (where the variable fields live).
  // The duplicate scan is a single integer compare per window entry over a
  // contiguous array; the full string compares only run on a signature hit,
  // so a collision can never drop a non-duplicate. Signatures are computed
  // once at accept time and never updated — a record later extended by a
  // continuation keeps its stale signature, which can only cost a redundant
  // full compare (lines cannot contain '\n', so no single line can equal the
  // extended content anyway).
  const auto sig_of = [](const LogRecord& r) {
    std::uint64_t mid = 0;
    const std::size_t n = std::min<std::size_t>(r.content.size(), 8);
    if (n > 0) std::memcpy(&mid, r.content.data() + (r.content.size() - n) / 2, n);
    return r.timestamp_ms * 0x9E3779B97F4A7C15ull ^ mid * 0xC2B2AE3D27D4EB4Full ^
           static_cast<std::uint64_t>(r.content.size()) * 0x165667B19E3779F9ull;
  };
  // One entry per accepted record. A duplicate hit rotates the matched
  // entry to the back of the window instead of appending: chains of
  // re-deliveries (a copy of a copy) keep the original's entry fresh no
  // matter how many copies were dropped, while the window's *membership*
  // never changes — so interleaved duplicates cannot displace an original
  // and flip the verdict of a later clean line (the duplicates-only parity
  // invariant the chaos soak asserts).
  struct DedupeEntry {
    std::uint64_t sig;
    std::size_t idx;  ///< index into `recs` of the record this entry is for
  };
  std::vector<DedupeEntry> sigs;
  // Counting filter over the window's signatures (a single cache line of
  // byte-sized buckets; the window is clamped so a count cannot wrap): the
  // O(window) scan only runs when the new signature's bucket is occupied —
  // ~window/64 of clean lines — so dedupe is O(1) per line.
  const std::size_t dedupe_window = std::min<std::size_t>(options.dedupe_window, 255);
  if (dedupe_window > 0) sigs.reserve(lines.size());
  std::array<std::uint8_t, 64> bucket{};
  const auto push_sig = [&](std::uint64_t sig, std::size_t idx) {
    sigs.push_back({sig, idx});
    ++bucket[sig & 63];
    if (sigs.size() > dedupe_window) {
      --bucket[sigs[sigs.size() - 1 - dedupe_window].sig & 63];
    }
  };

  std::uint64_t offset = 0;
  RecordView view;
  for (std::size_t i = 0; i < lines.size(); ++i, offset += lines[i - 1].size() + 1) {
    const std::string_view line = lines[i];
    const std::size_t line_no = i + 1;
    ++out.stats.lines_total;

    if (line.size() > options.max_line_bytes) {
      quarantine(line_no, offset, line, "oversized");
      continue;
    }

    if (!fmt.parse_view(line, &view)) {
      // The byte-level binary scan only runs on lines the formatter already
      // rejected, so clean streams never pay for it.
      if (looks_binary(line)) {
        quarantine(line_no, offset, line, "binary");
      } else if (looks_torn(line)) {
        quarantine(line_no, offset, line, "torn");
      } else if (!recs.empty() &&
                 recs.back().content.size() + line.size() < options.max_line_bytes) {
        // Continuation (stack trace): materializes the record's content.
        common::ArenaString& c = recs.back().content;
        c += '\n';
        c += line;
        ++out.stats.continuations;
      } else if (!recs.empty()) {
        quarantine(line_no, offset, line, "oversized");
      } else {
        quarantine(line_no, offset, line, "unparseable");
      }
      continue;
    }
    LogRecord rec = make_record(view, cid, backing != nullptr);
    rec.line_no = static_cast<std::uint32_t>(line_no);
    rec.byte_offset = offset;

    // Exact-duplicate suppression: at-least-once shippers re-deliver
    // verbatim copies close to the original.
    if (dedupe_window > 0) {
      const std::uint64_t nsig = sig_of(rec);
      bool dup = false;
      if (bucket[nsig & 63] != 0) {
        const std::size_t n = sigs.size();
        const std::size_t lo = n > dedupe_window ? n - dedupe_window : 0;
        for (std::size_t k = n; k > lo && !dup; --k) {
          if (sigs[k - 1].sig != nsig) continue;
          const LogRecord& prev = recs[sigs[k - 1].idx];
          if (prev.timestamp_ms == rec.timestamp_ms && prev.content == rec.content &&
              prev.level == rec.level && prev.source == rec.source) {
            dup = true;
            // Refresh, don't append: the next copy in a re-delivery chain
            // arrives within a few records, so moving the original's entry
            // to the back keeps it findable without altering which records
            // the window covers.
            std::rotate(sigs.begin() + static_cast<std::ptrdiff_t>(k - 1),
                        sigs.begin() + static_cast<std::ptrdiff_t>(k), sigs.end());
          }
        }
      }
      if (dup) {
        ++out.stats.duplicates_dropped;
        continue;
      }
      push_sig(nsig, recs.size());
    }

    recs.push_back(std::move(rec));
    ++out.stats.records;

    // Bounded reorder tolerance: a record whose timestamp precedes its
    // neighbours is slotted back into timestamp order, scanning at most
    // `reorder_window` records (ties keep arrival order).
    const std::size_t pos = recs.size() - 1;
    if (options.reorder_window > 0 && pos > 0 &&
        recs[pos].timestamp_ms < recs[pos - 1].timestamp_ms) {
      const std::size_t lo =
          pos > options.reorder_window ? pos - options.reorder_window : 0;
      std::size_t ins = pos;
      while (ins > lo && recs[ins - 1].timestamp_ms > recs[pos].timestamp_ms) --ins;
      std::rotate(recs.begin() + static_cast<std::ptrdiff_t>(ins),
                  recs.begin() + static_cast<std::ptrdiff_t>(pos),
                  recs.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
      if (!sigs.empty()) {
        // The rotation shifted record indices in [ins, pos]; patch the
        // window's entries so they keep pointing at the same records (only
        // the last `dedupe_window` entries are ever read again).
        const std::size_t slo =
            sigs.size() > dedupe_window ? sigs.size() - dedupe_window : 0;
        for (std::size_t k = slo; k < sigs.size(); ++k) {
          if (sigs[k].idx == pos) {
            sigs[k].idx = ins;
          } else if (sigs[k].idx >= ins && sigs[k].idx < pos) {
            ++sigs[k].idx;
          }
        }
      }
      ++out.stats.reordered;
    }
  }
  out.quarantined = channel.take();
  out.stats.quarantine_dropped += channel.dropped();
  return out;
}

}  // namespace intellog::logparse
