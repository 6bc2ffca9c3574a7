#include "obs/flight/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/stages.hpp"

namespace intellog::obs::flight {

namespace detail {
std::atomic<FlightState*> g_state{nullptr};
}  // namespace detail

namespace {

std::atomic<int> g_dump_fd{-1};

std::uint64_t steady_now_ns() noexcept {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t wall_now_ns() noexcept {
  timespec ts;
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t os_thread_id() noexcept {
#ifdef SYS_gettid
  return static_cast<std::uint32_t>(::syscall(SYS_gettid));
#else
  return 0;
#endif
}

/// Per-thread ring handle, keyed by recorder generation so a
/// disable/enable cycle (tests, bench) re-registers cleanly.
struct ThreadRingCache {
  std::uint64_t generation = UINT64_MAX;
  std::uint32_t slot = 0;
  FlightRing* ring = nullptr;
};
thread_local ThreadRingCache t_ring_cache;

// --- on-disk format ----------------------------------------------------------

constexpr char kMagic[8] = {'I', 'L', 'F', 'R', '1', 0, 0, 0};
// 2: event ids 4/5 are stage.begin/end (were detect.shard_begin/end).
constexpr std::uint32_t kVersion = 2;

struct DumpHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t ring_capacity;
  std::uint32_t reason;
  std::uint32_t signo;
  std::uint32_t nthreads;
  std::uint32_t nstrings;
  std::uint32_t strtab_bytes;
  std::uint64_t fault_addr;
  std::uint64_t anchor_wall_ns;
  std::uint64_t anchor_steady_ns;
  std::uint64_t dump_steady_ns;
  std::uint64_t dropped;
};
static_assert(sizeof(DumpHeader) == 80, "dump header layout is part of the format");

struct RingDumpHeader {
  std::uint32_t slot;
  std::uint32_t os_tid;
  std::uint64_t head;
  std::uint64_t nrecords;  ///< record structs that follow
};
static_assert(sizeof(RingDumpHeader) == 24);

/// write(2) until done; EINTR-safe; async-signal-safe.
bool full_write(int fd, const void* data, std::size_t n) noexcept {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// The dump writer. Everything it touches is preallocated plain memory;
/// the only calls are lseek/ftruncate/write — all async-signal-safe.
bool write_dump_to_fd(int fd, FlightState* st, DumpReason reason, int signo,
                      std::uint64_t fault_addr) noexcept {
  ::lseek(fd, 0, SEEK_SET);  // latest snapshot wins within a run
  while (::ftruncate(fd, 0) < 0 && errno == EINTR) {
  }

  const std::uint32_t nrings_raw = st->nrings.load(std::memory_order_acquire);
  const std::uint32_t nthreads =
      std::min<std::uint32_t>(nrings_raw, static_cast<std::uint32_t>(kMaxThreads));
  // Read the string count before the arena watermark: `used` may include
  // bytes of a string still being appended, but every offset/length pair
  // below `nstrings` is fully published.
  const std::uint32_t nstrings = st->strings.size();
  const std::uint32_t strtab_bytes = static_cast<std::uint32_t>(st->strings.arena_used());

  DumpHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.record_size = sizeof(FlightRecord);
  h.ring_capacity = static_cast<std::uint32_t>(kRingCapacity);
  h.reason = static_cast<std::uint32_t>(reason);
  h.signo = static_cast<std::uint32_t>(signo);
  h.nthreads = nthreads;
  h.nstrings = nstrings;
  h.strtab_bytes = strtab_bytes;
  h.fault_addr = fault_addr;
  h.anchor_wall_ns = st->anchor_wall_ns;
  h.anchor_steady_ns = st->anchor_steady_ns;
  h.dump_steady_ns = steady_now_ns();
  h.dropped = st->dropped.load(std::memory_order_relaxed);

  if (!full_write(fd, &h, sizeof(h))) return false;
  if (!full_write(fd, st->strings.offsets(), nstrings * sizeof(std::uint32_t))) return false;
  if (!full_write(fd, st->strings.lengths(), nstrings * sizeof(std::uint32_t))) return false;
  if (!full_write(fd, st->strings.arena_data(), strtab_bytes)) return false;

  for (std::uint32_t slot = 0; slot < nthreads; ++slot) {
    FlightRing* ring = st->rings[slot].load(std::memory_order_acquire);
    RingDumpHeader rh{};
    rh.slot = slot;
    if (ring == nullptr) {
      // A thread claimed the slot but has not published its ring yet.
      if (!full_write(fd, &rh, sizeof(rh))) return false;
      continue;
    }
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    rh.os_tid = ring->os_tid;
    rh.head = head;
    rh.nrecords = head < kRingCapacity ? head : kRingCapacity;
    if (!full_write(fd, &rh, sizeof(rh))) return false;
    // The raw array, indexed by seq & mask; when not yet wrapped, the
    // resident prefix [0, head) is exactly the first `nrecords` slots.
    if (!full_write(fd, ring->records, rh.nrecords * sizeof(FlightRecord))) return false;
  }
  return true;
}

// --- crash handler -----------------------------------------------------------

void crash_handler(int sig, siginfo_t* info, void*) {
  static std::atomic<int> entered{0};
  int expected = 0;
  if (entered.compare_exchange_strong(expected, 1)) {
    FlightState* st = detail::g_state.load(std::memory_order_acquire);
    const std::uint64_t fault_addr =
        info != nullptr ? reinterpret_cast<std::uint64_t>(info->si_addr) : 0;
    if (st != nullptr) {
      // Journal the signal itself — but only if this thread already owns
      // a ring; registration allocates and is off-limits here.
      ThreadRingCache& tc = t_ring_cache;
      if (tc.generation == st->generation && tc.ring != nullptr) {
        FlightRecord r;
        r.steady_ns = steady_now_ns();
        r.event = static_cast<std::uint16_t>(FlightEventId::kSignal);
        r.tid = static_cast<std::uint16_t>(tc.slot);
        r.a = static_cast<std::uint64_t>(sig);
        r.b = fault_addr;
        tc.ring->push(r);
      }
      // Freeze: one store. Other threads stop emitting; we keep the raw
      // pointer and dump what the rings held at the moment of death.
      detail::g_state.store(nullptr, std::memory_order_release);
      const int fd = g_dump_fd.load(std::memory_order_acquire);
      if (fd >= 0) {
        write_dump_to_fd(fd, st, DumpReason::kSignal, sig, fault_addr);
      }
    }
  }
  // SA_RESETHAND restored the default disposition before we ran, so the
  // re-raise kills the process with the original signal (exit 128+sig).
  ::raise(sig);
}

}  // namespace

const char* to_string(DumpReason reason) {
  switch (reason) {
    case DumpReason::kGracefulDrain:
      return "graceful-drain";
    case DumpReason::kSignal:
      return "signal";
    case DumpReason::kWatchdog:
      return "watchdog";
    case DumpReason::kManual:
      return "manual";
  }
  return "unknown";
}

namespace detail {

void emit_slow(FlightState* st, FlightEventId id, std::uint64_t a, std::uint64_t b,
               std::uint32_t str) noexcept {
  ThreadRingCache& tc = t_ring_cache;
  if (tc.generation != st->generation) {
    const std::uint32_t slot = st->nrings.fetch_add(1, std::memory_order_acq_rel);
    if (slot < kMaxThreads) {
      auto* ring = new FlightRing();
      ring->os_tid = os_thread_id();
      st->rings[slot].store(ring, std::memory_order_release);
      tc.slot = slot;
      tc.ring = ring;
    } else {
      tc.ring = nullptr;  // thread budget exhausted: count drops instead
    }
    tc.generation = st->generation;
  }
  if (tc.ring == nullptr) {
    st->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  FlightRecord r;
  r.steady_ns = steady_now_ns();
  r.event = static_cast<std::uint16_t>(id);
  r.tid = static_cast<std::uint16_t>(tc.slot);
  r.str = str;
  r.a = a;
  r.b = b;
  tc.ring->push(r);
}

}  // namespace detail

void flight_enable() {
  static std::mutex mu;
  static std::uint64_t generation = 0;
  std::lock_guard lock(mu);
  if (detail::g_state.load(std::memory_order_relaxed) != nullptr) return;
  auto* st = new FlightState();
  st->anchor_wall_ns = wall_now_ns();
  st->anchor_steady_ns = steady_now_ns();
  st->generation = ++generation;
  detail::g_state.store(st, std::memory_order_release);
  stage_detail::g_sinks.fetch_or(stage_detail::kFlightSink, std::memory_order_relaxed);
  flight_emit(FlightEventId::kRecorderEnable, kRingCapacity, kMaxThreads);
}

void flight_disable() {
  // The state (and its rings) is never freed: a dumper or snapshot reader
  // racing this store may still hold the raw pointer. Parking it on a
  // process-lifetime retired list keeps it reachable, so leak checkers see
  // the retention as deliberate rather than as a lost allocation.
  FlightState* st = detail::g_state.exchange(nullptr, std::memory_order_acq_rel);
  stage_detail::g_sinks.fetch_and(~stage_detail::kFlightSink, std::memory_order_relaxed);
  if (st != nullptr) {
    static std::mutex mu;
    static std::vector<FlightState*>* retired = new std::vector<FlightState*>();
    std::lock_guard lock(mu);
    retired->push_back(st);
  }
}

std::uint32_t flight_intern(std::string_view s) {
  FlightState* st = flight_state();
  return st != nullptr ? st->strings.intern(s) : common::FixedStringTable::kNone;
}

bool flight_set_dump_path(const std::string& path) {
  // Rotate a prior run's dump out of the way before pre-opening.
  if (::access(path.c_str(), F_OK) == 0) {
    const std::string aged = path + ".1";
    ::rename(path.c_str(), aged.c_str());
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const int prev = g_dump_fd.exchange(fd, std::memory_order_acq_rel);
  if (prev >= 0) ::close(prev);
  return true;
}

int flight_dump_fd() { return g_dump_fd.load(std::memory_order_acquire); }

bool flight_dump_now(DumpReason reason) {
  FlightState* st = flight_state();
  const int fd = g_dump_fd.load(std::memory_order_acquire);
  if (st == nullptr || fd < 0) return false;
  const std::uint32_t nthreads = std::min<std::uint32_t>(
      st->nrings.load(std::memory_order_acquire), static_cast<std::uint32_t>(kMaxThreads));
  flight_emit(FlightEventId::kFlightDump, static_cast<std::uint64_t>(reason), nthreads);
  return write_dump_to_fd(fd, st, reason, /*signo=*/0, /*fault_addr=*/0);
}

void install_crash_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = crash_handler;
  sigemptyset(&sa.sa_mask);
  // RESETHAND so the re-raise takes the default (fatal) action; NODEFER so
  // a fault inside the handler itself cannot deadlock delivery.
  sa.sa_flags = SA_SIGINFO | SA_RESETHAND | SA_NODEFER;
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

// --- decoding ----------------------------------------------------------------

namespace {

std::uint64_t wall_of(std::uint64_t steady_ns, std::uint64_t anchor_wall,
                      std::uint64_t anchor_steady) {
  // Events can slightly predate the anchor only through clock weirdness;
  // clamp instead of underflowing.
  if (steady_ns >= anchor_steady) return anchor_wall + (steady_ns - anchor_steady);
  const std::uint64_t back = anchor_steady - steady_ns;
  return back > anchor_wall ? 0 : anchor_wall - back;
}

void sort_events(std::vector<DecodedEvent>& events) {
  std::sort(events.begin(), events.end(), [](const DecodedEvent& x, const DecodedEvent& y) {
    if (x.steady_ns != y.steady_ns) return x.steady_ns < y.steady_ns;
    if (x.slot != y.slot) return x.slot < y.slot;
    return x.seq < y.seq;
  });
}

bool is_stage(FlightEventId id) {
  return id == FlightEventId::kStageBegin || id == FlightEventId::kStageEnd;
}

/// Validates and annotates one record. Stage records resolve their stage
/// name into `str`.
void decode_record(const FlightRecord& r, std::uint64_t seq, std::uint32_t slot,
                   std::uint32_t os_tid, const FlightDump& ctx,
                   std::vector<DecodedEvent>& out) {
  // Torn or never-written slots: a producer may have been mid-push when
  // the rings were frozen. Validate instead of synchronizing.
  if (r.steady_ns == 0 || !valid_event(r.event)) return;
  const auto id = static_cast<FlightEventId>(r.event);
  if (is_stage(id) && r.a >= kStageCount) return;
  DecodedEvent ev;
  ev.seq = seq;
  ev.steady_ns = r.steady_ns;
  ev.wall_ns = wall_of(r.steady_ns, ctx.anchor_wall_ns, ctx.anchor_steady_ns);
  ev.slot = slot;
  ev.os_tid = os_tid;
  ev.id = id;
  ev.a = r.a;
  ev.b = r.b;
  if (is_stage(id)) {
    ev.str = kStageNames[r.a];
  } else if (r.str != 0 && r.str <= ctx.strings.size()) {
    ev.str = ctx.strings[r.str - 1];
  }
  out.push_back(std::move(ev));
}

}  // namespace

FlightDump decode_flight_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("flight: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());

  const auto need = [&](std::size_t off, std::size_t n, const char* what) {
    if (off + n > bytes.size()) {
      throw std::runtime_error(std::string("flight: truncated dump (") + what + ")");
    }
  };

  DumpHeader h{};
  need(0, sizeof(h), "header");
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("flight: bad magic — not a blackbox dump: " + path);
  }
  if (h.version != kVersion) {
    throw std::runtime_error("flight: unsupported dump version " + std::to_string(h.version));
  }
  if (h.record_size != sizeof(FlightRecord)) {
    throw std::runtime_error("flight: record size mismatch (dump " +
                             std::to_string(h.record_size) + ", decoder " +
                             std::to_string(sizeof(FlightRecord)) + ")");
  }

  FlightDump dump;
  dump.version = h.version;
  dump.reason = static_cast<DumpReason>(h.reason);
  dump.signo = h.signo;
  dump.fault_addr = h.fault_addr;
  dump.anchor_wall_ns = h.anchor_wall_ns;
  dump.anchor_steady_ns = h.anchor_steady_ns;
  dump.dump_steady_ns = h.dump_steady_ns;
  dump.dropped = h.dropped;
  dump.nthreads = h.nthreads;

  std::size_t off = sizeof(h);
  need(off, static_cast<std::size_t>(h.nstrings) * 8 + h.strtab_bytes, "string table");
  std::vector<std::uint32_t> soff(h.nstrings), slen(h.nstrings);
  std::memcpy(soff.data(), bytes.data() + off, h.nstrings * sizeof(std::uint32_t));
  off += h.nstrings * sizeof(std::uint32_t);
  std::memcpy(slen.data(), bytes.data() + off, h.nstrings * sizeof(std::uint32_t));
  off += h.nstrings * sizeof(std::uint32_t);
  const char* arena = bytes.data() + off;
  for (std::uint32_t i = 0; i < h.nstrings; ++i) {
    if (static_cast<std::size_t>(soff[i]) + slen[i] > h.strtab_bytes) {
      throw std::runtime_error("flight: corrupt string table entry");
    }
    dump.strings.emplace_back(arena + soff[i], slen[i]);
  }
  off += h.strtab_bytes;

  for (std::uint32_t t = 0; t < h.nthreads; ++t) {
    RingDumpHeader rh{};
    need(off, sizeof(rh), "ring header");
    std::memcpy(&rh, bytes.data() + off, sizeof(rh));
    off += sizeof(rh);
    if (rh.nrecords > kRingCapacity) throw std::runtime_error("flight: corrupt ring header");
    need(off, rh.nrecords * sizeof(FlightRecord), "ring records");
    // The raw ring array, indexed by seq & mask. It follows the string
    // arena, so it is not necessarily 8-byte aligned: memcpy each record
    // out instead of casting in place.
    for (std::uint64_t seq = rh.head - rh.nrecords; seq < rh.head; ++seq) {
      FlightRecord r;
      std::memcpy(&r, bytes.data() + off + (seq & (kRingCapacity - 1)) * sizeof(FlightRecord),
                  sizeof(r));
      decode_record(r, seq, rh.slot, rh.os_tid, dump, dump.events);
    }
    off += rh.nrecords * sizeof(FlightRecord);
  }
  sort_events(dump.events);
  return dump;
}

std::string render_flight_text(const FlightDump& dump) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "blackbox: reason=%s signo=%u fault_addr=0x%llx threads=%u events=%zu "
                "dropped=%llu\n",
                to_string(dump.reason), dump.signo,
                static_cast<unsigned long long>(dump.fault_addr), dump.nthreads,
                dump.events.size(), static_cast<unsigned long long>(dump.dropped));
  out += line;

  for (const DecodedEvent& ev : dump.events) {
    const FlightEventInfo& info = event_info(ev.id);
    const double rel_s =
        ev.steady_ns >= dump.anchor_steady_ns
            ? static_cast<double>(ev.steady_ns - dump.anchor_steady_ns) / 1e9
            : -static_cast<double>(dump.anchor_steady_ns - ev.steady_ns) / 1e9;
    const time_t wall_s = static_cast<time_t>(ev.wall_ns / 1'000'000'000ull);
    struct tm tm_utc;
    ::gmtime_r(&wall_s, &tm_utc);
    char when[40];
    std::strftime(when, sizeof(when), "%Y-%m-%dT%H:%M:%S", &tm_utc);
    std::snprintf(line, sizeof(line),
                  "[t%02u tid=%u] +%010.6fs %s.%03uZ %-22s %s=%llu %s=%llu", ev.slot,
                  ev.os_tid, rel_s, when,
                  static_cast<unsigned>((ev.wall_ns / 1'000'000ull) % 1000), info.name,
                  info.arg_a, static_cast<unsigned long long>(ev.a), info.arg_b,
                  static_cast<unsigned long long>(ev.b));
    out += line;
    if (!ev.str.empty()) {
      out += " \"";
      out += ev.str;
      out += '"';
    }
    out += '\n';
  }
  return out;
}

namespace {

common::Json events_json(const FlightDump& dump) {
  common::Json events = common::Json::array();
  for (const DecodedEvent& ev : dump.events) {
    const FlightEventInfo& info = event_info(ev.id);
    common::Json e = common::Json::object();
    e["seq"] = static_cast<std::size_t>(ev.seq);
    e["steady_ns"] = static_cast<std::size_t>(ev.steady_ns);
    e["wall_ns"] = static_cast<std::size_t>(ev.wall_ns);
    e["slot"] = static_cast<std::size_t>(ev.slot);
    e["os_tid"] = static_cast<std::size_t>(ev.os_tid);
    e["event"] = info.name;
    e["subsystem"] = info.subsystem;
    e[info.arg_a] = static_cast<std::size_t>(ev.a);
    e[info.arg_b] = static_cast<std::size_t>(ev.b);
    if (!ev.str.empty()) e["str"] = ev.str;
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace

common::Json flight_dump_json(const FlightDump& dump) {
  common::Json out = common::Json::object();
  out["kind"] = "intellog_flight";
  out["version"] = static_cast<std::size_t>(dump.version);
  out["reason"] = to_string(dump.reason);
  out["signo"] = static_cast<std::size_t>(dump.signo);
  char addr[24];
  std::snprintf(addr, sizeof(addr), "0x%llx", static_cast<unsigned long long>(dump.fault_addr));
  out["fault_addr"] = addr;
  out["anchor_wall_ns"] = static_cast<std::size_t>(dump.anchor_wall_ns);
  out["anchor_steady_ns"] = static_cast<std::size_t>(dump.anchor_steady_ns);
  out["dump_steady_ns"] = static_cast<std::size_t>(dump.dump_steady_ns);
  out["dropped"] = static_cast<std::size_t>(dump.dropped);
  out["threads"] = static_cast<std::size_t>(dump.nthreads);
  out["events"] = events_json(dump);
  return out;
}

std::optional<FlightDump> flight_snapshot() {
  FlightState* st = flight_state();
  if (st == nullptr) return std::nullopt;

  FlightDump live;
  live.version = kVersion;
  live.reason = DumpReason::kManual;
  live.anchor_wall_ns = st->anchor_wall_ns;
  live.anchor_steady_ns = st->anchor_steady_ns;
  live.dump_steady_ns = steady_now_ns();
  live.dropped = st->dropped.load(std::memory_order_relaxed);
  const std::uint32_t nthreads = std::min<std::uint32_t>(
      st->nrings.load(std::memory_order_acquire), static_cast<std::uint32_t>(kMaxThreads));
  live.nthreads = nthreads;
  const std::uint32_t nstrings = st->strings.size();
  for (std::uint32_t i = 1; i <= nstrings; ++i) live.strings.emplace_back(st->strings.text(i));

  std::vector<FlightRecord> scratch(kRingCapacity);
  for (std::uint32_t slot = 0; slot < nthreads; ++slot) {
    FlightRing* ring = st->rings[slot].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::uint64_t first = 0;
    const std::uint64_t n = ring->snapshot(scratch.data(), &first);
    for (std::uint64_t i = 0; i < n; ++i) {
      decode_record(scratch[i], first + i, slot, ring->os_tid, live, live.events);
    }
  }
  sort_events(live.events);
  return live;
}

common::Json flight_snapshot_json(std::size_t max_events) {
  std::optional<FlightDump> live = flight_snapshot();
  if (!live) {
    common::Json out = common::Json::object();
    out["enabled"] = false;
    return out;
  }
  if (live->events.size() > max_events) {
    live->events.erase(live->events.begin(),
                       live->events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  common::Json out = flight_dump_json(*live);
  out["enabled"] = true;
  return out;
}

}  // namespace intellog::obs::flight
