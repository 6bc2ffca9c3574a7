// Flight-recorder event vocabulary.
//
// Every FLIGHT_EVENT site names one of these ids; the table below is the
// single source of truth the decoder, the /flightz route, and the CI
// validator use to annotate raw records. Adding an event means adding an
// enum entry AND a table row — decode drops records whose id falls outside
// the table. Stage begin/end records come from OBS_STAGE (obs/stages.hpp)
// and name their stage by its row in that table.
#pragma once

#include <cstddef>
#include <cstdint>

namespace intellog::obs::flight {

enum class FlightEventId : std::uint16_t {
  kRecorderEnable = 0,    ///< a=ring_capacity b=max_threads
  kIngestAdmit,           ///< a=records b=lines_total
  kIngestQuarantine,      ///< a=quarantined b=lines_total
  kSpellRefine,           ///< a=key_id b=key_count
  kStageBegin,            ///< a=stage (obs/stages.hpp row)
  kStageEnd,              ///< a=stage (obs/stages.hpp row)
  kOnlineEvict,           ///< a=session_hash b=open_sessions
  kOnlineCheckpoint,      ///< a=open_sessions b=seq
  kTenantTick,            ///< str=tenant a=tick b=epoch
  kTenantShed,            ///< str=tenant a=files b=bytes
  kBreakerTransition,     ///< str=tenant a=new_state b=old_state (BreakerState)
  kWatchdogRestart,       ///< str=tenant a=epoch b=tick
  kDrainBegin,            ///< a=signal b=tick
  kDrainEnd,              ///< a=ticks b=sessions
  kHttpRequest,           ///< a=status
  kPoolEnqueue,           ///< a=queue_depth
  kPoolDequeue,           ///< a=queue_depth b=delay_us
  kPoolRetire,            ///< a=busy_us b=idle_us
  kSignal,                ///< a=signo b=fault_addr
  kFlightDump,            ///< a=reason b=rings
  kMaxEvent,              // sentinel — keep last
};

struct FlightEventInfo {
  const char* name;       ///< stable snake_case name, e.g. "tenant.tick"
  const char* subsystem;  ///< ingest / spell / stage / online / tenant / serve / http / pool / signal / flight
  const char* arg_a;      ///< annotation for the first u64 argument
  const char* arg_b;      ///< annotation for the second u64 argument
};

inline const FlightEventInfo& event_info(FlightEventId id) {
  static constexpr FlightEventInfo kTable[] = {
      {"flight.enable", "flight", "ring_capacity", "max_threads"},
      {"ingest.admit", "ingest", "records", "lines_total"},
      {"ingest.quarantine", "ingest", "quarantined", "lines_total"},
      {"spell.refine", "spell", "key_id", "key_count"},
      {"stage.begin", "stage", "stage_id", "unused"},
      {"stage.end", "stage", "stage_id", "unused"},
      {"online.evict", "online", "session_hash", "open_sessions"},
      {"online.checkpoint", "online", "open_sessions", "seq"},
      {"tenant.tick", "tenant", "tick", "epoch"},
      {"tenant.shed", "tenant", "files", "bytes"},
      {"tenant.breaker", "tenant", "new_state", "old_state"},
      {"serve.watchdog_restart", "serve", "epoch", "tick"},
      {"serve.drain_begin", "serve", "signal", "tick"},
      {"serve.drain_end", "serve", "ticks", "sessions"},
      {"http.request", "http", "status", "unused"},
      {"pool.enqueue", "pool", "queue_depth", "unused"},
      {"pool.dequeue", "pool", "queue_depth", "delay_us"},
      {"pool.retire", "pool", "busy_us", "idle_us"},
      {"signal.caught", "signal", "signo", "fault_addr"},
      {"flight.dump", "flight", "reason", "rings"},
  };
  static_assert(sizeof(kTable) / sizeof(kTable[0]) ==
                    static_cast<std::size_t>(FlightEventId::kMaxEvent),
                "event table out of sync with FlightEventId");
  return kTable[static_cast<std::size_t>(id)];
}

inline bool valid_event(std::uint16_t raw) {
  return raw < static_cast<std::uint16_t>(FlightEventId::kMaxEvent);
}

}  // namespace intellog::obs::flight
