#include "common/arena.hpp"

#include <cstdlib>
#include <cstring>
#include <new>

// Weak references so plain builds resolve these to nullptr while ASan
// builds get real shadow poisoning — same idiom as the profiler's
// sanitizer hooks (src/obs/profile/profile.cpp).
extern "C" __attribute__((weak)) void __asan_poison_memory_region(
    const volatile void* addr, std::size_t size);
extern "C" __attribute__((weak)) void __asan_unpoison_memory_region(
    const volatile void* addr, std::size_t size);

namespace intellog::common {
namespace {

void shadow_poison(void* p, std::size_t n) {
  if (__asan_poison_memory_region != nullptr && n > 0) {
    __asan_poison_memory_region(p, n);
  }
}

void shadow_unpoison(void* p, std::size_t n) {
  if (__asan_unpoison_memory_region != nullptr && n > 0) {
    __asan_unpoison_memory_region(p, n);
  }
}

}  // namespace

PagePool::~PagePool() {
  for (std::byte* page : free_) {
    shadow_unpoison(page, kPageSize);
    ::operator delete(page);
  }
}

PagePool& PagePool::global() {
  // Leaked on purpose: arenas in static-duration objects (thread-local
  // detect scratch) may release pages during shutdown after a
  // function-local static pool would already be destroyed.
  static PagePool* pool = new PagePool();
  return *pool;
}

std::byte* PagePool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::byte* page = free_.back();
      free_.pop_back();
      return page;
    }
    ++created_;
  }
  return static_cast<std::byte*>(::operator new(kPageSize));
}

void PagePool::release(std::byte* page) {
  if (page == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(page);
}

PagePool::Stats PagePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{created_, free_.size()};
}

bool Arena::poison_default() {
  const char* env = std::getenv("INTELLOG_ARENA_POISON");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

Arena::Arena(PagePool* pool) : Arena(pool, poison_default()) {}

Arena::Arena(PagePool* pool, bool poison_on_reset)
    : pool_(pool), poison_(poison_on_reset) {}

Arena::~Arena() {
  for (std::byte* page : pages_) {
    shadow_unpoison(page, PagePool::kPageSize);
    pool_->release(page);
  }
  for (const BigBlock& b : big_) {
    shadow_unpoison(b.ptr, b.size);
    ::operator delete(b.ptr);
  }
}

Arena::Arena(Arena&& other) noexcept
    : pool_(other.pool_),
      pages_(std::move(other.pages_)),
      page_index_(other.page_index_),
      cur_(other.cur_),
      cur_used_(other.cur_used_),
      big_(std::move(other.big_)),
      last_big_(other.last_big_),
      bytes_used_(other.bytes_used_),
      bytes_peak_(other.bytes_peak_),
      poison_(other.poison_) {
  other.pages_.clear();
  other.big_.clear();
  other.page_index_ = 0;
  other.cur_ = nullptr;
  other.cur_used_ = 0;
  other.bytes_used_ = 0;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    this->~Arena();
    new (this) Arena(std::move(other));
  }
  return *this;
}

void Arena::start_page(std::size_t index) {
  while (pages_.size() <= index) {
    pages_.push_back(pool_->acquire());
  }
  page_index_ = index;
  cur_ = pages_[index];
  cur_used_ = 0;
}

void* Arena::allocate(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  if (n > PagePool::kPageSize) {
    // Oversized: dedicated heap block, geometric so repeated big requests
    // amortize. The block is handed out whole; its slack is not bumped.
    std::size_t size = n;
    if (size < last_big_ * 2) size = last_big_ * 2;
    std::byte* ptr = static_cast<std::byte*>(::operator new(size));
    big_.push_back(BigBlock{ptr, size});
    last_big_ = size;
    bytes_used_ += n;
    if (bytes_used_ > bytes_peak_) bytes_peak_ = bytes_used_;
    return ptr;
  }
  if (cur_ == nullptr) start_page(0);
  std::size_t aligned = (cur_used_ + (align - 1)) & ~(align - 1);
  if (aligned + n > PagePool::kPageSize) {
    start_page(page_index_ + 1);
    aligned = 0;
  }
  std::byte* out = cur_ + aligned;
  cur_used_ = aligned + n;
  bytes_used_ += n;
  if (bytes_used_ > bytes_peak_) bytes_peak_ = bytes_used_;
  if (poison_) shadow_unpoison(out, n);
  return out;
}

std::string_view Arena::copy(std::string_view s) {
  if (s.empty()) return std::string_view(reinterpret_cast<const char*>(this), 0);
  char* dst = static_cast<char*>(allocate(s.size(), 1));
  std::memcpy(dst, s.data(), s.size());
  return std::string_view(dst, s.size());
}

std::string_view Arena::concat(std::string_view a, std::string_view b) {
  const std::size_t total = a.size() + b.size();
  if (total == 0) return std::string_view(reinterpret_cast<const char*>(this), 0);
  char* dst = static_cast<char*>(allocate(total, 1));
  if (!a.empty()) std::memcpy(dst, a.data(), a.size());
  if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
  return std::string_view(dst, total);
}

void Arena::reset() {
  if (poison_) {
    // Fill every byte that was ever handed out this cycle so stale views
    // read as garbage even without ASan, then poison the shadow so ASan
    // tiers fault on the first touch.
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      const std::size_t used =
          i < page_index_ ? PagePool::kPageSize : (i == page_index_ ? cur_used_ : 0);
      if (used == 0) continue;
      // allocate() unpoisons only the bytes it hands out, so alignment gaps
      // (and the tail of a granule a short allocation shares) are still
      // poisoned from the last reset.
      shadow_unpoison(pages_[i], used);
      std::memset(pages_[i], 0xCD, used);
      shadow_poison(pages_[i], used);
    }
    for (const BigBlock& b : big_) {
      std::memset(b.ptr, 0xCD, b.size);
    }
  }
  for (const BigBlock& b : big_) {
    ::operator delete(b.ptr);
  }
  big_.clear();
  last_big_ = 0;
  page_index_ = 0;
  cur_ = pages_.empty() ? nullptr : pages_[0];
  cur_used_ = 0;
  bytes_used_ = 0;
}

}  // namespace intellog::common
