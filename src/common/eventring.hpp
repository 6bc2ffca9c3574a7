// Fixed-record lock-free journal ring: the storage primitive under the
// flight recorder (obs/flight).
//
// One ring belongs to exactly one producer thread; any number of readers
// (live snapshots, the crash-time dumper) may scan it concurrently. The
// producer publishes with a single release store of a monotonically
// increasing head counter; it never blocks, never allocates, and never
// takes a lock, which is what makes the write path safe to call from
// anywhere — including from inside a signal handler.
//
// Slots are written and read only as relaxed atomic 64-bit words (the
// crash dumper copies raw bytes), so a racing reader sees no data race but
// may copy records the producer overwrote mid-copy. `snapshot` detects
// and drops exactly those:
//  - push(s) stores claimed = s + 1, issues a release fence, stores the
//    slot words, then publishes head = s + 1 (release).
//  - snapshot loads head (acquire: every seq below it is published),
//    copies the resident seqs, issues an acquire fence and reads claimed.
//  - A copied word written by push(s) makes that push's release fence
//    synchronize with the reader's acquire fence, so claimed >= s + 1 is
//    visible. Push s overwrites seq s - Capacity, so every torn or stale
//    copy has a seq below claimed - Capacity, and snapshot drops those.
// Re-reading head instead would not do: a push that has claimed seq h but
// not published it can tear the oldest slot while head still reads h.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace intellog::common {

/// Power-of-two ring of trivially-copyable `Record`s with a monotonic head.
template <typename Record, std::size_t Capacity>
struct alignas(64) EventRing {
  static_assert(Capacity >= 2 && (Capacity & (Capacity - 1)) == 0,
                "EventRing capacity must be a power of two");
  static_assert(std::is_trivially_copyable_v<Record>, "records are copied as raw words");
  static_assert(sizeof(Record) % sizeof(std::uint64_t) == 0 &&
                    alignof(Record) >= alignof(std::uint64_t),
                "records are copied as whole, aligned 64-bit words");

  static constexpr std::size_t kCapacity = Capacity;
  static constexpr std::uint64_t kMask = Capacity - 1;
  static constexpr std::size_t kWords = sizeof(Record) / sizeof(std::uint64_t);

  /// Total records ever pushed (not an index — wraps are implicit).
  std::atomic<std::uint64_t> head{0};
  /// Records whose slot writes have begun: head, or head + 1 mid-push.
  std::atomic<std::uint64_t> claimed{0};
  /// OS thread id of the owning producer, for post-mortem annotation.
  std::uint32_t os_tid = 0;
  Record records[Capacity] = {};

  /// Producer-only. Overwrites the oldest record once full.
  void push(const Record& r) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    std::uint64_t words[kWords];
    std::memcpy(words, &r, sizeof(Record));
    claimed.store(h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    auto* slot = reinterpret_cast<std::uint64_t*>(&records[h & kMask]);
    for (std::size_t w = 0; w < kWords; ++w) {
      std::atomic_ref<std::uint64_t>(slot[w]).store(words[w], std::memory_order_relaxed);
    }
    head.store(h + 1, std::memory_order_release);
  }

  /// Records currently resident (≤ Capacity).
  std::uint64_t size() const noexcept {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    return h < Capacity ? h : Capacity;
  }

  /// Sequence number of the oldest resident record.
  std::uint64_t oldest_seq() const noexcept {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    return h < Capacity ? 0 : h - Capacity;
  }

  /// Copies the resident records, oldest first, into `out` (which must
  /// hold `Capacity` entries) and returns how many it copied; out[i] is the
  /// record pushed as seq `*first_seq + i` (overwritten ones are dropped).
  std::uint64_t snapshot(Record* out, std::uint64_t* first_seq = nullptr) const noexcept {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t n = h < Capacity ? h : Capacity;
    const std::uint64_t first = h - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t words[kWords];
      auto* slot = reinterpret_cast<std::uint64_t*>(
          const_cast<Record*>(&records[(first + i) & kMask]));
      for (std::size_t w = 0; w < kWords; ++w) {
        words[w] = std::atomic_ref<std::uint64_t>(slot[w]).load(std::memory_order_relaxed);
      }
      std::memcpy(&out[i], words, sizeof(Record));
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t c2 = claimed.load(std::memory_order_relaxed);
    const std::uint64_t valid = c2 > Capacity ? c2 - Capacity : 0;
    const std::uint64_t stale = valid > first ? std::min(valid - first, n) : 0;
    if (stale > 0) std::copy(out + stale, out + n, out);
    if (first_seq != nullptr) *first_seq = first + stale;
    return n - stale;
  }
};

}  // namespace intellog::common
