//! # phishare-test-util — shared test-only helpers
//!
//! Utilities that several crates' test suites need but production code
//! must never touch. Dev-dependency only: nothing here ships in a binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard};

/// Process-wide lock for tests that mutate environment variables.
///
/// `std::env::set_var` is not thread-safe against concurrent readers, and
/// `cargo test` runs tests on a thread pool, so every env-mutating test —
/// in *any* crate of the workspace — must hold this for its whole body.
/// All other code paths take the value through injectable parameters
/// instead (`*_override(raw: Option<&str>)` helpers), so only the one
/// test per variable that exercises the real `std::env` wiring needs it,
/// and it restores the variable before releasing the lock.
///
/// The lock is intentionally insensitive to poisoning: a panicking test
/// must not cascade into every later env test failing on a poisoned
/// mutex, so the guard is recovered and reused.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Acquire the process-wide environment lock (see module docs).
pub fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_lock_recovers_from_poison() {
        // Two sequential acquisitions must both succeed.
        drop(env_lock());
        drop(env_lock());
    }
}
