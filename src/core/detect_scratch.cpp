#include "core/detect_scratch.hpp"

#include <atomic>

namespace intellog::core {

namespace {

std::atomic<std::size_t> g_arena_bytes_peak{0};

}  // namespace

void DetectScratch::reset_session() {
  const std::size_t peak = arena.bytes_peak();
  std::size_t cur = g_arena_bytes_peak.load(std::memory_order_relaxed);
  while (peak > cur &&
         !g_arena_bytes_peak.compare_exchange_weak(cur, peak, std::memory_order_relaxed)) {
  }
  arena.reset();
}

void DetectScratch::begin_groups(std::size_t n_groups) {
  for (const std::uint32_t g : touched_groups) {
    buckets[g].clear();
    group_seen[g] = 0;
  }
  touched_groups.clear();
  if (buckets.size() < n_groups) buckets.resize(n_groups);
  if (group_seen.size() < n_groups) group_seen.resize(n_groups, 0);
}

std::size_t detect_arena_bytes_peak() {
  return g_arena_bytes_peak.load(std::memory_order_relaxed);
}

}  // namespace intellog::core
