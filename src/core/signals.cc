#include "core/signals.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include <unistd.h>

namespace promptem::core {

void IgnoreSigPipe() {
  struct sigaction action {};
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

void BlockShutdownSignals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void InstallShutdownHandler(std::function<void(int)> on_signal) {
  // Re-block in the installing thread (harmless if already blocked);
  // only the sigwait below ever consumes these signals.
  BlockShutdownSignals();
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);

  std::thread([set, handler = std::move(on_signal)] {
    int signo = 0;
    if (sigwait(&set, &signo) != 0) return;
    if (handler) handler(signo);
    // A second signal means "stop waiting for the drain": exit with the
    // conventional fatal-signal code immediately.
    int again = 0;
    if (sigwait(&set, &again) == 0) {
      std::fprintf(stderr, "second signal %d, exiting immediately\n", again);
      _exit(128 + again);
    }
  }).detach();
}

}  // namespace promptem::core
