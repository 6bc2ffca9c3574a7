#include "serve/spool_watch.hpp"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "serve/tenant.hpp"

#ifdef __linux__
#include <sys/inotify.h>
#include <unistd.h>
#endif

namespace intellog::serve {

#ifdef __linux__

namespace {
// A spool name arriving (create, rename in) or leaving (rename out,
// unlink), and the directory itself going away.
constexpr std::uint32_t kSpoolEvents =
    IN_CREATE | IN_MOVED_TO | IN_MOVED_FROM | IN_DELETE | IN_DELETE_SELF | IN_MOVE_SELF;
}  // namespace

SpoolWatch::SpoolWatch() : fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {}

SpoolWatch::~SpoolWatch() {
  if (fd_ >= 0) ::close(fd_);
}

void SpoolWatch::add(const std::string& dir) {
  int wd = fd_ >= 0 ? ::inotify_add_watch(fd_, dir.c_str(), kSpoolEvents) : -1;
  // Two tenant paths naming one directory share a watch descriptor; the
  // later slot goes unwatched rather than steal the earlier one's events.
  if (wd >= 0 && std::find(wd_.begin(), wd_.end(), wd) != wd_.end()) wd = -1;
  wd_.push_back(wd);
  changed_.push_back(true);
}

std::vector<bool> SpoolWatch::take_changes() {
  if (fd_ >= 0) {
    alignas(inotify_event) char buf[16 * 1024];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof buf)) > 0) {
      for (const char* p = buf; p < buf + n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(p);
        p += sizeof(inotify_event) + ev->len;
        if (ev->mask & IN_Q_OVERFLOW) {
          std::fill(changed_.begin(), changed_.end(), true);
          continue;
        }
        const auto at = std::find(wd_.begin(), wd_.end(), ev->wd);
        if (at == wd_.end()) continue;  // a watch already dropped
        const auto slot = static_cast<std::size_t>(at - wd_.begin());
        if (ev->mask & (IN_IGNORED | IN_DELETE_SELF | IN_MOVE_SELF)) {
          // The watch is gone, or follows a directory that is no longer
          // at the spool's path: this tenant lists every tick from now on.
          ::inotify_rm_watch(fd_, ev->wd);  // EINVAL once the kernel removed it
          wd_[slot] = -1;
          changed_[slot] = true;
        } else if (ev->len != 0 && is_spool_name(std::string_view(ev->name))) {
          changed_[slot] = true;
        }
      }
    }
  }
  std::vector<bool> out = changed_;
  for (std::size_t i = 0; i < changed_.size(); ++i) changed_[i] = wd_[i] < 0;
  return out;
}

#else  // no inotify: every tenant lists every tick

SpoolWatch::SpoolWatch() = default;
SpoolWatch::~SpoolWatch() = default;

void SpoolWatch::add(const std::string&) {
  wd_.push_back(-1);
  changed_.push_back(true);
}

std::vector<bool> SpoolWatch::take_changes() { return changed_; }

#endif

}  // namespace intellog::serve
