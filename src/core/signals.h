#ifndef PROMPTEM_CORE_SIGNALS_H_
#define PROMPTEM_CORE_SIGNALS_H_

#include <functional>

namespace promptem::core {

/// Ignores SIGPIPE process-wide (idempotent). Any long-lived process that
/// writes to sockets or pipes must call this before serving: a peer that
/// disconnects mid-response otherwise kills the whole process with the
/// default SIGPIPE disposition. With it ignored, the write returns EPIPE
/// and the caller handles the dead peer like any other I/O error.
void IgnoreSigPipe();

/// Blocks SIGINT/SIGTERM in the calling thread (idempotent). Call first
/// thing in main(), before any thread — pool workers, daemon loops —
/// exists: every later thread inherits the mask, which is what ensures a
/// delivery can only ever surface in InstallShutdownHandler's sigwait
/// watcher instead of asynchronously killing whichever unblocked thread
/// the kernel picked.
void BlockShutdownSignals();

/// Graceful-shutdown plumbing for SIGINT/SIGTERM.
///
/// Requires BlockShutdownSignals() semantics: it (re-)blocks both
/// signals in the calling thread and starts a dedicated watcher thread
/// that sigwait()s for them — but only threads spawned after the mask
/// was first applied are covered, so call BlockShutdownSignals() at
/// startup and install the handler whenever the state it needs exists.
/// The first delivery invokes `on_signal(signo)` from the watcher thread
/// — a normal thread context, so the callback may take locks, write
/// files (e.g. flush a cache through the atomic save path), or wake a
/// poll loop. A second delivery _exit(128+sig)s immediately:
/// one Ctrl-C drains, two force-quit.
///
/// Because the signals are blocked rather than handled, in-flight
/// syscalls are never interrupted by them — but reads/writes must still
/// retry EINTR for every other signal (see serve/protocol.h's ReadFull /
/// WriteFull).
void InstallShutdownHandler(std::function<void(int)> on_signal);

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_SIGNALS_H_
