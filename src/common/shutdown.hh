#pragma once

// Graceful-shutdown flag shared by the CLI and the sweep runner.
// install_shutdown_handler() routes SIGINT and SIGTERM to an
// async-signal-safe flag; nothing else happens in the handler.  The
// sweep's workers poll the flag between jobs and drain in-flight work; the
// CLI then writes any requested event exports and exits 128+signal — so an
// operator Ctrl-C costs at most the jobs already running.

#include <atomic>
#include <csignal>

namespace ascoma {

/// Install the SIGINT/SIGTERM handler (idempotent).  A second delivery of
/// either signal restores the default disposition, so a stuck drain can
/// still be killed by pressing Ctrl-C twice.
void install_shutdown_handler();

/// True once SIGINT or SIGTERM was delivered.
bool shutdown_requested();

/// The flag itself, for code that polls it from worker threads
/// (core::SweepOptions::stop).  Never null; lock-free.
const std::atomic<bool>* shutdown_flag();

/// The signal that triggered shutdown (0 when none yet).
int shutdown_signal();

/// Test hook: simulate or clear a delivery without raising a real signal.
void set_shutdown_requested(int signal);

}  // namespace ascoma
