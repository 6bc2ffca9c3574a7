// Async-signal-safe stop flag shared by the long-running entry points.
//
// `intellog serve` and streaming `detect --checkpoint` both need SIGTERM/
// SIGINT to mean "finish the current unit of work, flush a final
// checkpoint, exit cleanly" rather than the default immediate death. The
// handler only sets a lock-free std::atomic<int>; the work loops poll
// stop_signal() at their own (amortized) cadence and run the drain path on
// the main thread, so nothing async-unsafe ever happens in signal context.
#pragma once

namespace intellog::serve {

/// Installs SIGTERM + SIGINT handlers that record the signal number.
/// Idempotent; later installs keep the first flag. Does not use SA_RESTART,
/// so blocking reads are interrupted and the poll loop sees the flag soon.
void install_stop_signals();

/// The first stop signal delivered, or 0 when none. One atomic load.
int stop_signal();

/// Clears the flag (tests and in-process restarts).
void clear_stop_signal();

/// Marks a stop as if `sig` had been delivered (in-process drain triggers,
/// e.g. the soak harness asking a daemon to stop without raise()).
void request_stop(int sig);

/// Installs the flight recorder's fatal-signal handlers (SIGSEGV/SIGBUS/
/// SIGABRT/SIGFPE): journal the signal, freeze the rings, dump to the
/// pre-opened blackbox fd, re-raise. Thin wrapper over
/// obs::flight::install_crash_handlers so serve owns all of its signal
/// dispositions in one place.
void install_crash_signals();

}  // namespace intellog::serve
