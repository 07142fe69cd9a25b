#include "common/shutdown.hh"

#include <atomic>

#include "common/annotate.hh"

namespace ascoma {

namespace {

// Lock-free atomics are async-signal-safe, and unlike sig_atomic_t they are
// also safe to poll from the sweep's worker threads.
std::atomic<int> g_signal{0};
std::atomic<bool> g_requested{false};

extern "C" ASCOMA_SIGNAL_SAFE void on_shutdown_signal(int sig) {
  // order: relaxed — g_signal is published by the release store of
  // g_requested below; any reader that saw g_requested with acquire also
  // sees this signal number.
  g_signal.store(sig, std::memory_order_relaxed);
  // order: release — pairs with the acquire load in shutdown_requested():
  // observing true guarantees g_signal (and anything else the interrupted
  // thread wrote before the signal) is visible to the drainer.
  g_requested.store(true, std::memory_order_release);
  // Second delivery: fall back to the default disposition so a wedged drain
  // can still be interrupted.
  std::signal(sig, SIG_DFL);
}

}  // namespace

void install_shutdown_handler() {
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
}

bool shutdown_requested() {
  // order: acquire — pairs with the handler's release store; see there.
  return g_requested.load(std::memory_order_acquire);
}

// order: relaxed — only meaningful after shutdown_requested() returned
// true, whose acquire already ordered this value; read in isolation it is
// advisory (0 until a delivery).
int shutdown_signal() { return g_signal.load(std::memory_order_relaxed); }

const std::atomic<bool>* shutdown_flag() { return &g_requested; }

void set_shutdown_requested(int signal) {
  // order: relaxed/release — same pairing as the real handler above.
  g_signal.store(signal, std::memory_order_relaxed);
  g_requested.store(signal != 0, std::memory_order_release);
}

}  // namespace ascoma
