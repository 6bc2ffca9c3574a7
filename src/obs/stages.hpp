// Pipeline stages: one name per stage, shared by every sink.
//
// `OBS_STAGE("detect.scan")` opens the profiler frame of that name and,
// while the flight recorder is on, journals a stage begin/end record pair
// on the calling thread's ring; `flight_chrome_trace` renders the pairs as
// B/E spans (what `intellog train|detect --trace` writes). The literal
// resolves to a row of kStageNames at compile time, so an unknown name
// does not build.
//
// Granularity rule: a stage runs once per file or session, or less often.
// Per-record scopes stay plain PROF_FRAMEs: a stage there would cost two
// ring writes per record and evict the history the rings exist to keep.
//
// Idle cost: with no profiler and the recorder off, a stage is one relaxed
// atomic load and a branch; no allocation, no clock read.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>

#include "obs/profile/profile.hpp"

namespace intellog::obs {

/// One row per stage. Profiler frames use these pointers (`descend` matches
/// by pointer, so all translation units share one node per stage); flight
/// records carry the row index, which the decoder maps back, so new rows go
/// at the end.
inline constexpr const char* kStageNames[] = {
    "train.pipeline",       "train.spell",        "train.extract",
    "train.group_entities", "train.subroutines",  "train.session_view",
    "train.hwgraph",        "detect.batch",       "detect.batch_shard",
    "detect.session",       "detect.scan",        "detect.hwgraph_check",
    "online.drain",         "online.checkpoint",  "simsys.run_job",
    "simsys.session_finish", "serve.tick",        "serve.list_spool",
};
inline constexpr std::size_t kStageCount = std::size(kStageNames);

/// A stage's row in kStageNames; consteval, so a name without a row is a
/// compile error. Implicit, so `ObsStage s("detect.scan")` reads naturally.
struct StageId {
  std::uint16_t index;

  consteval StageId(const char* name) : index(0) {
    for (std::string_view row : kStageNames) {
      if (row == name) return;
      ++index;
    }
    throw "unknown stage name: add a row to kStageNames";
  }
};

namespace stage_detail {
/// Bits of the live stage sinks, set and cleared by the profiler and the
/// recorder; zero while both are off.
inline constexpr unsigned kProfilerSink = 1;
inline constexpr unsigned kFlightSink = 2;
extern constinit std::atomic<unsigned> g_sinks;
}  // namespace stage_detail

/// RAII pipeline stage. Stages nest LIFO per thread, like PROF_FRAME.
class ObsStage {
 public:
  explicit ObsStage(StageId stage) : stage_(stage.index) {
    if (stage_detail::g_sinks.load(std::memory_order_relaxed) != 0) enter();
  }
  ~ObsStage() { close(); }
  ObsStage(const ObsStage&) = delete;
  ObsStage& operator=(const ObsStage&) = delete;

  /// Ends the stage now instead of at scope exit. Idempotent.
  void close() {
    if (frame_) leave();
  }

 private:
  void enter();
  void leave();

  std::optional<ProfFrame> frame_;  // engaged <=> the stage is open
  std::uint16_t stage_;
};

/// Annotates the enclosing scope as the named pipeline stage.
#define OBS_STAGE(name) \
  ::intellog::obs::ObsStage INTELLOG_PROF_CAT(intellog_obs_stage_, __LINE__)(name)

}  // namespace intellog::obs
