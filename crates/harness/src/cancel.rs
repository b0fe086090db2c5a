//! Cooperative cancellation for interrupted sweeps.
//!
//! A single process-wide [`AtomicBool`] rises when SIGINT (Ctrl-C)
//! arrives; the executor's workers poll it, finish their in-flight
//! cells — completions still reach the journal — and stop drawing new
//! ones. Remaining cells report [`crate::Outcome::Cancelled`] and the
//! sweep ends with a summary and every completion journaled, so
//! `--resume` picks up exactly where the interrupt landed.
//!
//! The handler is installed with the raw C `signal(2)` API (the `libc`
//! crate is unavailable offline); the handler body only stores into an
//! atomic, which is async-signal-safe. A second SIGINT while draining
//! restores the default disposition so an impatient operator's next
//! Ctrl-C kills the process immediately.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide cancellation flag SIGINT raises.
static CANCELLED: AtomicBool = AtomicBool::new(false);

/// Whether a cancellation has been requested.
pub fn cancelled() -> bool {
    CANCELLED.load(Ordering::SeqCst)
}

/// Raises the cancellation flag (also what the SIGINT handler does).
pub fn cancel() {
    CANCELLED.store(true, Ordering::SeqCst);
}

/// Lowers the flag — tests only; real sweeps exit after cancelling.
#[doc(hidden)]
pub fn reset() {
    CANCELLED.store(false, Ordering::SeqCst);
}

/// The flag itself, for wiring into
/// [`crate::executor::ExecContext::cancel`].
pub fn flag() -> &'static AtomicBool {
    &CANCELLED
}

#[cfg(unix)]
mod imp {
    use super::CANCELLED;
    use std::sync::atomic::Ordering;

    // Raw prototypes for signal(2) — the libc crate is not available
    // in this offline build. `sighandler_t` is a plain function
    // pointer on every platform we target (x86-64/aarch64 Linux, mac).
    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe operations here: one atomic store,
        // then re-arm to the default disposition so the *next* Ctrl-C
        // kills the process instead of being swallowed mid-drain.
        CANCELLED.store(true, Ordering::SeqCst);
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT handler. Safe to call more than once; a no-op
/// on non-unix targets.
pub fn install_sigint_handler() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        reset();
        assert!(!cancelled());
        cancel();
        assert!(cancelled());
        assert!(flag().load(std::sync::atomic::Ordering::SeqCst));
        reset();
        assert!(!cancelled());
    }

    #[test]
    fn handler_installs_without_crashing() {
        install_sigint_handler();
        install_sigint_handler();
    }
}
