// Lock-free per-thread event ring: push/wrap arithmetic, snapshot windows,
// and the single-producer ordering contract the flight recorder builds on.
#include "common/eventring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using intellog::common::EventRing;

struct Rec {
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};

TEST(EventRing, StartsEmpty) {
  EventRing<Rec, 8> ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.oldest_seq(), 0u);
  Rec out[8];
  EXPECT_EQ(ring.snapshot(out), 0u);
}

TEST(EventRing, PushBelowCapacityKeepsEverythingInOrder) {
  EventRing<Rec, 8> ring;
  for (std::uint64_t i = 0; i < 5; ++i) ring.push({i, i * 10});
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.oldest_seq(), 0u);
  Rec out[8];
  ASSERT_EQ(ring.snapshot(out), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].payload, i * 10);
  }
}

TEST(EventRing, WrapKeepsTheNewestCapacityRecords) {
  EventRing<Rec, 8> ring;
  for (std::uint64_t i = 0; i < 21; ++i) ring.push({i, i});
  EXPECT_EQ(ring.head.load(), 21u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.oldest_seq(), 13u);
  Rec out[8];
  ASSERT_EQ(ring.snapshot(out), 8u);
  // Oldest-first: records 13..20.
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].seq, 13 + i);
}

TEST(EventRing, HeadCountsTotalPushesNotResidency) {
  EventRing<Rec, 4> ring;
  for (std::uint64_t i = 0; i < 100; ++i) ring.push({i, 0});
  EXPECT_EQ(ring.head.load(), 100u);
  EXPECT_EQ(ring.size(), 4u);
}

TEST(EventRing, SlotIndexingIsHeadMaskedSoSeqMapsToASlot) {
  EventRing<Rec, 4> ring;
  for (std::uint64_t i = 0; i < 7; ++i) ring.push({i, 0});
  // Resident window is seqs 3..6; each must sit at records[seq & mask].
  for (std::uint64_t seq = 3; seq < 7; ++seq) {
    EXPECT_EQ(ring.records[seq & 3].seq, seq);
  }
}

// One producer, one concurrent reader: the reader's snapshots must always
// be internally ordered even while pushes race (the torn-slot caveat only
// permits a stale/garbage *latest* slot, never reordering).
TEST(EventRing, ConcurrentSnapshotSeesMonotonicSequences) {
  EventRing<Rec, 64> ring;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) ring.push({i++, 0});
  });
  // On a loaded host the producer may not be scheduled for a while; the
  // head assertion below is only meaningful once it has run at all.
  while (ring.head.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 200; ++round) {
    Rec out[64];
    const std::size_t n = ring.snapshot(out);
    std::uint64_t prev = 0;
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      // Skip slots the producer may be mid-writing (seq 0 default or any
      // value; the flight decoder validates records semantically — here we
      // only check the stable prefix keeps ascending).
      if (!first && out[i].seq != 0 && out[i].seq < prev) {
        // A lower seq later in the window is only legal when the producer
        // lapped us mid-copy; tolerate but don't count as ordered.
        break;
      }
      if (out[i].seq != 0) {
        prev = out[i].seq;
        first = false;
      }
    }
  }
  stop.store(true);
  producer.join();
  EXPECT_GT(ring.head.load(), 0u);
}

// A producer laps a small ring while a reader snapshots it in a loop:
// every snapshot must come back as consecutive, untorn records starting at
// the reported sequence number. Records overwritten mid-copy are dropped,
// never returned. The reader runs for 250 ms (and 20,000 snapshots at
// least): when the two threads share a CPU, the overlaps that catch a
// missed drop come only as often as the producer is preempted mid-push.
TEST(EventRing, SnapshotUnderALappingProducerIsConsecutive) {
  struct Checked {
    std::uint64_t seq = 0;
    std::uint64_t inverse = 0;  // ~seq: a torn copy mixes two records
  };
  EventRing<Checked, 8> ring;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) ring.push({i, ~i});
  });
  while (ring.head.load() < 8) std::this_thread::yield();
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  std::uint64_t bad = 0, copied = 0;
  for (int round = 0; round < 20000 || std::chrono::steady_clock::now() < until; ++round) {
    Checked out[8];
    std::uint64_t first = 0;
    const std::uint64_t n = ring.snapshot(out, &first);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (out[i].seq != first + i || out[i].inverse != ~out[i].seq) ++bad;
    }
    copied += n;
  }
  stop.store(true);
  producer.join();
  EXPECT_EQ(bad, 0u) << "of " << copied << " records copied";
  EXPECT_GT(copied, 0u);
}

}  // namespace
