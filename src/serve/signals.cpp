#include "serve/signals.hpp"

#include <atomic>
#include <csignal>

#include "obs/flight/flight.hpp"

namespace intellog::serve {

namespace {

// Written from signal handlers and from request_stop() on any thread, read
// by the work loops on another: an atomic, and a lock-free one, because only
// lock-free atomics are async-signal-safe.
std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the stop flag must stay async-signal-safe");

void on_stop(int sig) {
  // Keep the first signal: a SIGINT followed by SIGTERM still reports the
  // operator's original intent, and repeated deliveries stay idempotent.
  int none = 0;
  g_stop_signal.compare_exchange_strong(none, sig);
}

}  // namespace

void install_stop_signals() {
  std::signal(SIGTERM, &on_stop);
  std::signal(SIGINT, &on_stop);
}

int stop_signal() { return g_stop_signal.load(); }

void clear_stop_signal() { g_stop_signal.store(0); }

void request_stop(int sig) { on_stop(sig); }

void install_crash_signals() { obs::flight::install_crash_handlers(); }

}  // namespace intellog::serve
