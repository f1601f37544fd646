//! Process signals without the `libc` crate: a SIGTERM/SIGINT latch for
//! graceful shutdown, and a `kill(2)` wrapper for harnesses that drive a
//! child process. A long-running loop (the server's accept loop, the
//! shard supervisor) polls [`signal_latched`] beside its
//! [`CancelToken`](crate::CancelToken) and drains the same way on either.

use std::sync::atomic::{AtomicBool, Ordering};

static LATCHED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // An atomic store is async-signal-safe; everything else happens on
    // the polling loop.
    LATCHED.store(true, Ordering::SeqCst);
}

/// Installs the process-wide SIGTERM/SIGINT handler that sets the latch
/// [`signal_latched`] reports. A no-op on non-Unix platforms.
pub fn install_signal_latch() {
    // SAFETY: `on_signal` only performs an atomic store, and both SIGINT
    // (2) and SIGTERM (15) are catchable signals.
    #[cfg(unix)]
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

/// `true` once SIGTERM or SIGINT arrived after [`install_signal_latch`].
/// The latch never resets.
#[must_use]
pub fn signal_latched() -> bool {
    LATCHED.load(Ordering::SeqCst)
}

/// Sends `sig` to `pid`. Returns `false` on non-Unix platforms or if the
/// signal could not be delivered.
fn send_signal(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    {
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        // SAFETY: plain syscall wrapper; no memory is touched.
        unsafe { kill(pid, sig) == 0 }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        false
    }
}

/// Sends SIGTERM to `pid` (graceful drain of a child server or shard).
/// Returns `false` on non-Unix platforms or if the signal could not be
/// delivered.
#[must_use]
pub fn send_sigterm(pid: u32) -> bool {
    send_signal(pid, 15)
}

/// Sends SIGKILL to `pid` (chaos harnesses kill a child mid-run to prove
/// crash safety). Returns `false` on non-Unix platforms or if the signal
/// could not be delivered.
#[must_use]
pub fn send_sigkill(pid: u32) -> bool {
    send_signal(pid, 9)
}
