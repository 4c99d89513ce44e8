//! Switched synchronization primitives for the rank mailboxes.
//!
//! Normal builds re-export `std`; under `--cfg loom` the same names
//! resolve to the vendored loom shims so `cargo test --test
//! loom_mailbox` can exhaustively model-check the `RankComm` mailbox
//! protocol — per-`(source, tag)` FIFO pending queues, `recv_any`
//! arrival-order delivery and the receive future's park/wake handshake
//! (see `tests/loom_mailbox.rs` and DESIGN.md §9).

#[cfg(loom)]
pub(crate) use loom::sync::{Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard if a panicking holder poisoned it
/// (a mailbox stays consistent whatever its holder was doing: every
/// critical section is a queue push/drain or a waker swap).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(loom)]
    let guard = match m.lock() {
        Ok(g) => g,
        Err(never) => match never {},
    };
    #[cfg(not(loom))]
    let guard = m.lock().unwrap_or_else(|e| e.into_inner());
    guard
}
