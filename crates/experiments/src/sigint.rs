//! Cooperative SIGINT/SIGTERM handling for sweep binaries.
//!
//! A raw, zero-dependency handler (std already links libc, so `signal(2)`
//! is available without adding a crate) that only sets an atomic flag. The
//! pool's workers stop claiming new jobs once the flag is up and the
//! in-flight simulations bail at their next guard check, so an interrupted
//! sweep leaves a valid journal of every completed point instead of a
//! corrupt CSV. SIGTERM — what watchdogs and container runtimes send
//! before escalating to SIGKILL — takes the same clean-flush path as a
//! user's Ctrl-C.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process exit code for a run cut short by SIGINT/SIGTERM (the shell
/// convention `128 + SIGINT`); part of the exit-code contract documented in
/// `EXPERIMENTS.md`.
pub const EXIT_INTERRUPTED: i32 = 130;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Installs the SIGINT and SIGTERM handlers (idempotent; a no-op off
/// Unix). Both signals share one flag: either means "flush and exit 130".
pub fn install() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_signum: i32) {
            INTERRUPTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is async-signal-safe to install, and the handler
        // only stores to an atomic (itself async-signal-safe).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// The flag itself, for a run guard to poll
/// ([`stcc::RunGuard::cancel`]).
#[must_use]
pub(crate) fn flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// Whether a SIGINT or SIGTERM has been received since [`install`].
#[must_use]
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Raises the interrupt flag programmatically (what the signal handler
/// does; exposed so tests can exercise the drain path).
pub fn trigger() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Clears the interrupt flag (test support: the flag is process-global).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}
