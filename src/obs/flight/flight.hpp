// Black-box flight recorder: always-on, crash-safe event journal.
//
// Aviation-FDR / JFR style: every thread that emits events owns a
// lock-free ring of fixed 32-byte binary records (common/eventring). The
// `FLIGHT_EVENT` macro costs exactly one relaxed atomic load while the
// recorder is idle, and on the enabled path claims a slot with plain
// stores — no locks, no allocation, ever. Strings are interned into a
// fixed arena (common/strtab) at startup/registration time and referenced
// by 32-bit id from records.
//
// The crash side: `install_crash_handlers()` hooks SIGSEGV/SIGBUS/
// SIGABRT/SIGFPE with an async-signal-safe handler that records the
// signal, freezes the recorder (one atomic store), and dumps the rings +
// string table + signal context to a *pre-opened* blackbox fd using only
// write(2)/lseek(2)/ftruncate(2), then re-raises so the process still dies
// with the original signal. Graceful paths (drain, watchdog shard
// abandonment) snapshot through the same dumper via `ScopedFlightDump`.
//
// Timestamps: records carry steady_clock nanoseconds only; the state keeps
// one (wall_ns, steady_ns) anchor pair captured at enable, and the decoder
// reconstructs wall time as anchor_wall + (steady - anchor_steady) — the
// JFR chunk-epoch trick, which keeps the hot path to a single clock read.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/eventring.hpp"
#include "common/json.hpp"
#include "common/strtab.hpp"
#include "obs/flight/events.hpp"

namespace intellog::obs::flight {

// --- records + state ---------------------------------------------------------

/// One journal entry. 32 bytes, trivially copyable, dumped raw.
struct FlightRecord {
  std::uint64_t steady_ns = 0;  ///< steady_clock; 0 marks a never-written slot
  std::uint16_t event = 0;      ///< FlightEventId
  std::uint16_t tid = 0;        ///< ring slot of the emitting thread
  std::uint32_t str = 0;        ///< FixedStringTable id; 0 = none
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(FlightRecord) == 32, "flight records are fixed 32-byte");

inline constexpr std::size_t kRingCapacity = 4096;  // 128 KiB of history/thread
inline constexpr std::size_t kMaxThreads = 64;
inline constexpr std::size_t kStringArenaBytes = 64 * 1024;
inline constexpr std::size_t kMaxStrings = 2048;

using FlightRing = common::EventRing<FlightRecord, kRingCapacity>;

/// Why a dump was taken (header field; also the arg of flight.dump events).
enum class DumpReason : std::uint32_t {
  kGracefulDrain = 0,
  kSignal = 1,
  kWatchdog = 2,
  kManual = 3,
};

const char* to_string(DumpReason reason);

/// All recorder memory lives here, allocated once at enable and leaked on
/// disable so a frozen dumper (possibly inside a signal handler) can keep
/// reading it without coordinating with the thread that disabled it.
struct FlightState {
  std::atomic<FlightRing*> rings[kMaxThreads] = {};
  std::atomic<std::uint32_t> nrings{0};
  std::atomic<std::uint64_t> dropped{0};  ///< events lost to thread overflow
  common::FixedStringTable strings{kStringArenaBytes, kMaxStrings};
  std::uint64_t anchor_wall_ns = 0;    ///< wall clock at enable
  std::uint64_t anchor_steady_ns = 0;  ///< steady clock at enable
  std::uint64_t generation = 0;        ///< bumps per enable; keys TL ring cache
};

namespace detail {
extern std::atomic<FlightState*> g_state;
void emit_slow(FlightState* st, FlightEventId id, std::uint64_t a, std::uint64_t b,
               std::uint32_t str) noexcept;
}  // namespace detail

// --- recording ---------------------------------------------------------------

/// Starts recording. Idempotent; a fresh enable after disable starts a new
/// generation with empty rings.
void flight_enable();

/// Stops recording (one atomic store). The state is intentionally leaked:
/// a dumper holding a raw pointer may still be reading it.
void flight_disable();

inline bool flight_enabled() {
  return detail::g_state.load(std::memory_order_relaxed) != nullptr;
}

/// The live state, or nullptr when disabled. For snapshots/tests.
inline FlightState* flight_state() {
  return detail::g_state.load(std::memory_order_acquire);
}

/// Interns `s` for use as a record's string id. Mutex + possible map
/// allocation — call at startup/registration time, not per event.
/// Returns 0 when disabled or when the fixed table is full.
std::uint32_t flight_intern(std::string_view s);

/// The hot path. One relaxed load when idle; no allocation ever.
inline void flight_emit(FlightEventId id, std::uint64_t a = 0, std::uint64_t b = 0,
                        std::uint32_t str = 0) noexcept {
  FlightState* st = detail::g_state.load(std::memory_order_relaxed);
  if (st == nullptr) return;
  detail::emit_slow(st, id, a, b, str);
}

#define FLIGHT_EVENT(id, a, b) \
  ::intellog::obs::flight::flight_emit(::intellog::obs::flight::FlightEventId::id, (a), (b))
#define FLIGHT_EVENT_STR(id, a, b, str_id)                                            \
  ::intellog::obs::flight::flight_emit(::intellog::obs::flight::FlightEventId::id, (a), \
                                       (b), (str_id))

// --- dumping -----------------------------------------------------------------

/// Points the recorder at its blackbox file: rotates an existing file to
/// `<path>.1` and pre-opens the fd the crash handler will write to.
/// Returns false (with errno intact) when the file cannot be opened.
bool flight_set_dump_path(const std::string& path);

/// The pre-opened dump fd, or -1. Exposed for tests.
int flight_dump_fd();

/// Snapshot the rings + strings + context to the pre-opened fd. Safe from
/// normal context; the signal handler calls the same underlying writer.
/// No-op (returns false) when no dump path is configured or recording is
/// off. Does not freeze the recorder.
bool flight_dump_now(DumpReason reason);

/// Installs async-signal-safe handlers for SIGSEGV/SIGBUS/SIGABRT/SIGFPE
/// that record the signal, freeze the rings, dump, and re-raise.
void install_crash_handlers();

/// RAII snapshot: dumps with `reason` on destruction. Scope it around a
/// graceful drain or a watchdog shard-abandonment so wedge forensics do
/// not require a crash.
class ScopedFlightDump {
 public:
  explicit ScopedFlightDump(DumpReason reason) : reason_(reason) {}
  ~ScopedFlightDump() { flight_dump_now(reason_); }
  ScopedFlightDump(const ScopedFlightDump&) = delete;
  ScopedFlightDump& operator=(const ScopedFlightDump&) = delete;

 private:
  DumpReason reason_;
};

// --- decoding ----------------------------------------------------------------

/// One validated, annotated record from a dump or live snapshot.
struct DecodedEvent {
  std::uint64_t seq = 0;        ///< per-thread sequence number
  std::uint64_t steady_ns = 0;
  std::uint64_t wall_ns = 0;    ///< reconstructed from the anchor pair
  std::uint32_t slot = 0;       ///< ring slot (dense thread index)
  std::uint32_t os_tid = 0;
  FlightEventId id{};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string str;              ///< resolved string, empty when none
};

struct FlightDump {
  std::uint32_t version = 0;
  DumpReason reason = DumpReason::kManual;
  std::uint32_t signo = 0;
  std::uint64_t fault_addr = 0;
  std::uint64_t anchor_wall_ns = 0;
  std::uint64_t anchor_steady_ns = 0;
  std::uint64_t dump_steady_ns = 0;
  std::uint64_t dropped = 0;
  std::uint32_t nthreads = 0;
  std::vector<std::string> strings;
  /// Merged, time-ordered (steady_ns, then slot, then seq).
  std::vector<DecodedEvent> events;
};

/// Parses a blackbox file. Throws std::runtime_error on bad magic,
/// truncation, or a record size this build does not understand. Torn ring
/// slots (invalid event id / zero timestamp) are silently dropped.
FlightDump decode_flight_file(const std::string& path);

/// Renders the merged log as human-readable text, one event per line.
std::string render_flight_text(const FlightDump& dump);

/// JSON document: header + merged event array (the CI validator input).
common::Json flight_dump_json(const FlightDump& dump);

/// Live snapshot of the enabled recorder's rings, decoded like a dump
/// (reason kManual); nullopt when the recorder is off. Backs /flightz and
/// `intellog train|detect --trace`.
std::optional<FlightDump> flight_snapshot();

/// flight_snapshot() as flight_dump_json, capped at the `max_events` most
/// recent events across all threads. `{"enabled":false}` when the recorder
/// is off. Backs the /flightz admin route.
common::Json flight_snapshot_json(std::size_t max_events = 512);

}  // namespace intellog::obs::flight
