// Log record representation plus the simulator's ground-truth side channel.
//
// A LogRecord is what the formatters produce from a raw log line: timestamp,
// level, source class, message content, and the YARN container that emitted
// it (the paper's session unit, §5).
//
// GroundTruth exists because this repo replaces the paper's manual
// source-code inspection (§6.2) with machine-checkable annotations: the
// simulated systems know which template produced each line and what category
// every variable field has. IntelLog itself NEVER reads GroundTruth — only
// the accuracy benches do — so it is not part of LogRecord: the simulator
// keeps it in a side table parallel to each session's records
// (simsys::JobResult::truth).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"

namespace intellog::logparse {

/// The four variable-field categories of §2.1 plus an "other" bucket.
enum class FieldCategory { Entity, Identifier, Value, Locality, Other };

/// One annotated variable field of a template instance.
struct FieldAnnotation {
  std::string text;       ///< the concrete field text in this line
  FieldCategory category;
  std::string id_type;    ///< identifier type (e.g. "TASK") when Identifier
};

/// What the simulator knows about the line it emitted.
struct GroundTruth {
  int template_id = -1;            ///< stable per-system template number
  std::string system;              ///< "spark" / "mapreduce" / "tez" / ...
  bool natural_language = true;    ///< false for pure key-value status lines
  bool injected_anomaly = false;   ///< line exists only because of a fault
  std::vector<FieldAnnotation> fields;
  /// Ground-truth entity phrases in the template's constant text
  /// (lemmatized, lower-case), for Table 4 entity accuracy.
  std::vector<std::string> entities;
  /// Ground-truth operation predicates (lemmatized), for Table 4.
  std::vector<std::string> operations;
};

/// A parsed log line.
///
/// The text fields are ArenaStrings: owning std::strings by default
/// (simulators, checkpoints, tests — everything behaves as before), or
/// zero-copy views into an mmap'd file / session arena when produced by
/// the mmap ingest path. Borrowed records are only valid while their
/// Session's storage is alive; call materialize() before detaching one.
struct LogRecord {
  std::uint64_t timestamp_ms = 0;
  common::ArenaString level = "INFO";
  common::ArenaString source;        ///< logging class, e.g. "storage.BlockManager"
  common::ArenaString content;       ///< the message text
  common::ArenaString container_id;  ///< session key (one YARN container = session)
  /// Ingest provenance (the quarantine channel's byte-offset discipline,
  /// threaded through accepted records too): 1-based line number within the
  /// source file and the offset of the line's first byte. 0/0 when the
  /// record did not come from a file (simulator sessions, checkpoints
  /// written before provenance existed). The source file itself lives on
  /// the Session (one file per container).
  std::uint32_t line_no = 0;
  std::uint64_t byte_offset = 0;

  /// Converts any borrowed fields into owning copies so the record can
  /// outlive its session's backing storage (no-op for owned records).
  void materialize() {
    level.materialize();
    source.materialize();
    content.materialize();
    container_id.materialize();
  }
};

}  // namespace intellog::logparse
