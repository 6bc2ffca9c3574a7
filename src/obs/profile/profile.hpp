// Performance Observatory: in-process sampling profiler with allocation
// attribution.
//
// Hot paths carry lightweight RAII annotations (`PROF_FRAME("spell.match")`,
// or OBS_STAGE from obs/stages.hpp for a named pipeline stage) that are one
// relaxed atomic load and a branch when no Profiler is installed. While
// a Profiler is live, each annotated scope descends into a process-global
// frame tree (lock-free: children are published with a CAS onto an
// intrusive sibling list and never removed until the session ends) and a
// dedicated steady-clock sampler thread periodically reads every registered
// thread's innermost-frame pointer, bumping that node's relaxed sample
// counter. Separately, the global operator new replacement (alloc_hook.cpp)
// attributes allocation bytes/counts to the innermost active frame, which
// is how per-record std::string pressure becomes visible per pipeline stage.
// Allocation counts batch in plain thread-locals and flush into the frame
// tree on frame transitions (the only points where the attribution target
// changes), so the per-allocation cost is two non-atomic increments; live
// mid-run reads (status snapshots) can lag by the open frames' pending
// counts, but anything read after the frames close is exact.
//
// Shadow-stack invariants:
//  - Frame names must be string literals; nodes store the pointer.
//  - Frames are strictly scoped (RAII) and per-thread; the thread-local
//    innermost pointer and its generation stamp are updated together by the
//    owning thread only.
//  - Cross-profiler staleness is handled by generation stamps: a frame
//    opened under session N never attributes samples or allocations to a
//    tree from session M != N.
//  - A Profiler must outlive every thread that may touch frames while it is
//    installed: destroy it only after profiled threads have quiesced
//    (thread pools joined). The CLI/bench scopes guarantee this.
//  - At most one Profiler is installed at a time (the constructor throws
//    otherwise).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace intellog::obs {

class Profiler;

/// One node in the frame tree: a distinct annotated call path. Counters are
/// relaxed atomics bumped from profiled threads (enters/allocs), the alloc
/// hook, and the sampler thread (samples).
struct FrameNode {
  const char* name = "";          ///< string literal (see file header)
  FrameNode* parent = nullptr;    ///< nullptr only for the root sentinel
  std::atomic<FrameNode*> first_child{nullptr};
  FrameNode* next_sibling = nullptr;  ///< immutable after CAS publication
  std::atomic<std::uint64_t> enters{0};
  std::atomic<std::uint64_t> samples{0};      ///< sampler hits (innermost)
  std::atomic<std::uint64_t> alloc_bytes{0};  ///< attributed operator new bytes
  std::atomic<std::uint64_t> allocs{0};
};

namespace prof_detail {

/// Per-thread slot the sampler reads. Owned by a shared_ptr per thread;
/// the global thread registry holds weak_ptrs so exiting threads can
/// deregister without racing the sampler.
struct ThreadState {
  std::atomic<FrameNode*> current{nullptr};  ///< innermost frame or nullptr
};

// Alloc-hook fast path state. g_alloc_enabled is true only while a
// Profiler with track_allocs is installed; t_frame/t_gen are updated
// together by the owning thread (t_gen guards against frames left open
// across profiler sessions).
extern std::atomic<bool> g_alloc_enabled;
extern std::atomic<std::uint64_t> g_generation;
extern thread_local FrameNode* t_frame;
extern thread_local std::uint64_t t_gen;

void note_alloc_slow(std::size_t size) noexcept;

/// Called by the operator new replacement on every allocation. Must be
/// async-signal-ish cheap when disabled: one relaxed load and a branch.
inline void note_alloc(std::size_t size) noexcept {
  if (!g_alloc_enabled.load(std::memory_order_relaxed)) return;
  note_alloc_slow(size);
}

/// The calling thread's sampler slot (registered on first use).
ThreadState* thread_state();

/// True when alloc_hook.cpp's operator new replacement is linked into this
/// binary. Under -fsanitize builds the sanitizer runtime owns operator new
/// instead (the replacement TU is never extracted from the archive) and
/// profile.cpp routes attribution through the sanitizer's malloc hooks —
/// same counters, plus coverage of plain malloc().
bool operator_new_replaced() noexcept;

}  // namespace prof_detail

struct ProfilerOptions {
  /// Sampler tick period. 1 kHz keeps the sampler's wakeup cost inside the
  /// 10% overhead budget even on single-vCPU machines, where every tick is
  /// a forced context switch away from the profiled thread.
  std::uint64_t sample_period_us = 1000;
  bool track_allocs = true;

  /// Defaults overridden by INTELLOG_PROF_PERIOD_US when set (CI drops the
  /// period so short seeded runs still collect thousands of samples).
  static ProfilerOptions from_env();
};

/// One hot frame row (status snapshots, `top`, bench attribution).
struct HotFrame {
  std::string path;  ///< ';'-joined frame names, root-first
  std::uint64_t self_samples = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
  double self_pct = 0.0;  ///< self_samples / total_samples * 100
};

/// A profiling session: owns the frame tree and the sampler thread, and
/// installs itself as the process-global profiler for its lifetime.
class Profiler {
 public:
  /// Returns once the sampler thread has taken its first tick, i.e. after
  /// about one sample period.
  explicit Profiler(ProfilerOptions opts = ProfilerOptions::from_env());
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Stops collection (sampler joined, alloc hook disarmed, global accessor
  /// cleared). The tree remains readable. Idempotent; the destructor calls
  /// it first.
  void stop();

  const ProfilerOptions& options() const { return opts_; }
  std::uint64_t generation() const { return generation_; }
  const FrameNode* root() const { return &root_; }
  std::uint64_t sampler_ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }
  /// Wall time from construction to stop() (or to now while running), ms.
  double duration_ms() const;

  std::uint64_t total_samples() const;  ///< sum of self samples over the tree
  std::uint64_t total_alloc_bytes() const;
  std::uint64_t total_allocs() const;
  std::uint64_t unattributed_alloc_bytes() const {
    return unattributed_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t unattributed_allocs() const {
    return unattributed_allocs_.load(std::memory_order_relaxed);
  }

  /// Collapsed-stack export (flamegraph.pl / speedscope): one
  /// "frame;frame;frame COUNT" line per sampled path, weight = CPU samples.
  std::string collapsed() const;
  /// Same format, weight = attributed allocation bytes.
  std::string collapsed_alloc() const;
  /// pprof-style JSON: totals + one row per frame path with self/cumulative
  /// samples and allocation attribution, plus lock-contention rows.
  common::Json to_json() const;
  /// Top-n frames by self samples (ties by alloc bytes).
  std::vector<HotFrame> hot_frames(std::size_t n) const;
  /// hot_frames() rendered as an aligned text table.
  std::string hot_table(std::size_t n) const;

  /// get-or-create `name` under `parent`. Lock-free; used by ProfFrame.
  /// Threads that enter the same new frame at once all get the one node
  /// that won the publishing CAS: a loser rescans only the siblings pushed
  /// since its last scan and frees its own unpublished node on a match.
  /// Nodes are matched by name pointer, not by text.
  FrameNode* descend(FrameNode* parent, const char* name);
  FrameNode* root_mutable() { return &root_; }
  void note_unattributed(std::size_t size) noexcept {
    unattributed_bytes_.fetch_add(size, std::memory_order_relaxed);
    unattributed_allocs_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void sampler_loop();
  static void delete_children(FrameNode* node);

  ProfilerOptions opts_;
  std::uint64_t generation_;
  FrameNode root_;
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> unattributed_bytes_{0};
  std::atomic<std::uint64_t> unattributed_allocs_{0};
  std::uint64_t start_ns_ = 0;
  std::uint64_t stop_ns_ = 0;  ///< 0 while running
  bool stopped_ = false;

  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool stop_requested_ = false;
  bool sampler_ticked_ = false;  ///< set once sampler_loop has ticked once
  std::thread sampler_;
};

/// The installed profiler, or nullptr (the default). One relaxed load.
Profiler* profiler();

/// RAII frame annotation. `name` must be a string literal. No-op (one
/// relaxed load + branch) when no profiler is installed.
class ProfFrame {
 public:
  explicit ProfFrame(const char* name);
  ~ProfFrame();
  ProfFrame(const ProfFrame&) = delete;
  ProfFrame& operator=(const ProfFrame&) = delete;

  /// Exits the frame now (instead of at scope end). Idempotent. For
  /// scopes that end mid-function; frames must still unwind LIFO per
  /// thread.
  void close();

 private:
  prof_detail::ThreadState* ts_ = nullptr;  // non-null <=> engaged
  FrameNode* prev_frame_ = nullptr;
  std::uint64_t prev_gen_ = 0;
  std::uint64_t gen_ = 0;
};

#define INTELLOG_PROF_CAT2(a, b) a##b
#define INTELLOG_PROF_CAT(a, b) INTELLOG_PROF_CAT2(a, b)
/// Annotates the enclosing scope as a profiler frame.
#define PROF_FRAME(name) \
  ::intellog::obs::ProfFrame INTELLOG_PROF_CAT(intellog_prof_frame_, __LINE__)(name)

}  // namespace intellog::obs
