// Change notification for the serve daemon's tenant spools.
//
// One inotify instance per daemon, one watch per tenant directory. The
// daemon drains it before each supervision tick and hands every shard one
// bit: did a spool name arrive in or leave this tenant's directory since
// the last drain. Events on names that are not spool names (the daemon's
// own checkpoint, ledger and temp writes) never count.
//
// A tenant without a watch reads "changed" on every drain, which makes its
// shard list every tick exactly as it would with no watcher at all. That
// covers every way a watch can be missing or lost: inotify_init1 or
// inotify_add_watch failing (EMFILE, ENOSPC, a non-Linux build), and a
// watch the kernel dropped (IN_IGNORED) or whose directory moved or was
// deleted. A queue overflow marks every tenant changed once.
//
// The instance is opened once and closed once per daemon: closing an
// inotify descriptor costs tens of milliseconds whatever it watches, while
// adding or removing a watch costs microseconds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace intellog::serve {

class SpoolWatch {
 public:
  SpoolWatch();
  ~SpoolWatch();

  SpoolWatch(const SpoolWatch&) = delete;
  SpoolWatch& operator=(const SpoolWatch&) = delete;

  /// Watches one more spool directory. Its slot is the number of earlier
  /// add() calls; a directory that cannot be watched still gets a slot,
  /// which then always reads changed.
  void add(const std::string& dir);

  /// Reads every queued event and returns, per slot, whether that spool may
  /// have changed since the previous call. Never blocks.
  std::vector<bool> take_changes();

 private:
  int fd_ = -1;
  std::vector<int> wd_;  ///< per slot; -1: no watch
  std::vector<bool> changed_;
};

}  // namespace intellog::serve
