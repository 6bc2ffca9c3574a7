// Per-shard scratch for the detection hot path.
//
// detect() runs once per session over every record; before this existed
// each record paid ~50 heap allocations (LCS DP rows, whitespace token
// vectors, field-text strings, per-group std::set churn). A DetectScratch
// holds all of that working state — an arena for assembled field bytes
// plus reusable vectors — so a shard allocates once and bumps thereafter.
//
// Ownership / lifetime contract:
//  - One DetectScratch per thread (detect_batch: one per shard; the
//    single-session entry points fall back to a thread_local). Never
//    share one across concurrent detect() calls.
//  - detect() calls reset_session() on entry: the arena rewinds in O(1)
//    and its pages are reused for the next session. The session's
//    GroupMessages view the arena and the session's records, so they die
//    with the detect() call; nothing handed out of detect() points into
//    the scratch — report strings are copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "core/subroutine.hpp"
#include "logparse/field_layout.hpp"

namespace intellog::core {

struct DetectScratch {
  /// Backing for the session's GroupMessage identifier arrays, inferred
  /// identifier types and field texts the record does not hold verbatim.
  common::Arena arena;

  // Extraction working set, reused record to record.
  std::vector<std::string_view> ws;  ///< whitespace tokens of the message
  logparse::AlignScratch align;      ///< alignment working vectors
  logparse::FieldLayout layout;      ///< layout of a record Spell gave none

  // Per-group session state, indexed by the detector's compiled group
  // index: the group's messages, whether it appeared, and the groups
  // touched this session. begin_groups() resets only what was touched.
  std::vector<std::vector<GroupMessage>> buckets;
  std::vector<unsigned char> group_seen;
  std::vector<std::uint32_t> touched_groups;
  std::vector<std::string_view> seen_group_names;  ///< coverage edge stamping
  /// Spell key per record, for sessions that carry no cached keys.
  std::vector<int> record_keys;

  // partition_instances working set: "TYPE:value" pairs interned to
  // bucket-local ids through an open-addressing table, posting lists from
  // each id to the instances holding it, and per-instance hit counters.
  std::vector<IdentifierView> interned;      ///< id -> its pair (the messages' views)
  std::vector<std::uint32_t> intern_slots;   ///< hash slot -> id + 1 (0: empty)
  std::vector<std::uint32_t> msg_values;     ///< one message's sorted-unique ids
  std::vector<std::vector<std::uint32_t>> postings;  ///< id -> instances holding it
  std::vector<std::uint32_t> hits;           ///< instance -> message ids it holds
  std::vector<std::uint32_t> hit_list;       ///< instances with nonzero hits
  std::vector<std::uint32_t> id_order;       ///< ids in string order (materializing)

  // SubroutineModel::check_against working set, reused instance to instance.
  std::vector<int> check_keys;
  std::vector<std::pair<int, std::size_t>> check_first_pos;

  /// Instance pool for partition_instances: elements are reused bucket to
  /// bucket so their buffers keep their capacity. Only the first `n` it
  /// returns are meaningful; later elements are stale previous-bucket
  /// state.
  std::vector<SubroutineInstance> instances;
  std::vector<GroupMessage> none_messages;  ///< NONE-sequence accumulator

  /// Rewinds the arena (pages are kept for reuse) and records its
  /// high-water mark in the process-wide peak reported by
  /// detect_arena_bytes_peak(). Call at session boundaries.
  void reset_session();

  /// Clears the group state the previous session touched and sizes the
  /// per-group tables for `n_groups` groups. A scratch may serve several
  /// models, so the tables only ever grow.
  void begin_groups(std::size_t n_groups);
};

/// Largest bytes_peak() any DetectScratch arena has reached so far
/// (observed at reset_session() time). Bench/diagnostics metric.
std::size_t detect_arena_bytes_peak();

}  // namespace intellog::core
