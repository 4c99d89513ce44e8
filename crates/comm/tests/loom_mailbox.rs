//! Loom model checking of the `RankComm` mailbox protocol
//! (`src/rank.rs`).
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bns-comm --test loom_mailbox --release
//! ```
//!
//! Under `--cfg loom` each rank's mailbox lock (guarding its envelope
//! queue and the parked receive's waker) resolves to the vendored loom
//! shim. Rank 0 runs on the model's main thread and every other rank on
//! a `loom::thread`, each under a test-local [`block_on`] that sleeps
//! on a loom `Mutex`/`Condvar` until the rank's waker fires, so every
//! test below explores **every** interleaving of the rank threads
//! instead of the one the OS happens to produce.
//!
//! What the models verify, in every schedule:
//! * no lost wakeup: a receive that registers its waker and parks is
//!   always woken by the send that satisfies it, wherever that send
//!   lands relative to the receive's drain/register/re-check sequence
//!   (a lost wakeup leaves a rank asleep forever — a loom deadlock),
//! * per-`(source, tag)` FIFO: two same-tag messages are delivered in
//!   send order even when an interleaved other-tag receive forces the
//!   first one through the pending queue,
//! * `recv_any` wakeup: with several candidate senders racing, each
//!   message is delivered exactly once with the right source, whether
//!   it was already buffered (`recv_any_ready`) or had to be awaited
//!   (`recv_any_waited`),
//! * `recv_any` never drops non-candidate or other-tag traffic — it
//!   lands in the pending queues and is still receivable afterwards.

#![cfg(loom)]

use bns_comm::{create_world, RankComm, TrafficClass};
use loom::sync::{Arc, Condvar, Mutex};
use std::future::Future;
use std::task::{Context, Poll, Wake, Waker};

/// A rank thread's wake flag: set by the waker, awaited by
/// [`block_on`].
struct Signal {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for Signal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.woken.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

/// Polls `fut` to completion, sleeping between polls until its waker
/// fires. A wakeup that never comes blocks this thread for good, which
/// the model checker reports as a deadlock.
fn block_on<F: Future>(fut: F) -> F::Output {
    let signal = Arc::new(Signal {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&signal));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        let mut woken = signal.woken.lock().unwrap();
        while !*woken {
            woken = signal.cv.wait(woken).unwrap();
        }
        *woken = false;
    }
}

/// Rank 0 on the model's main thread, every other rank on its own
/// `loom::thread`, each driving its future with [`block_on`]; outputs
/// in rank order. (Parking the main thread in `join` while it owns no
/// rank would only multiply the explored schedules.)
fn run_world<T, F, Fut>(k: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(RankComm) -> Fut,
    Fut: Future<Output = T> + Send + 'static,
{
    let mut comms = create_world(k).into_iter();
    let first = comms.next().expect("k >= 1");
    let handles: Vec<_> = comms
        .map(|c| {
            let fut = f(c);
            loom::thread::spawn(move || block_on(fut))
        })
        .collect();
    let mut out = vec![block_on(f(first))];
    out.extend(handles.into_iter().map(|h| h.join().unwrap()));
    out
}

#[test]
fn fifo_per_source_tag_with_out_of_tag_buffering() {
    loom::model(|| {
        let out = run_world(2, |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 7, vec![1u32], TrafficClass::Control);
                c.send(1, 9, vec![2u32], TrafficClass::Control);
                c.send(1, 7, vec![3u32], TrafficClass::Control);
                vec![]
            } else {
                // Pull the middle tag first: whenever it has already
                // arrived, the first tag-7 message must pass through
                // the pending queue, and FIFO on (0, 7) must survive
                // the detour in every schedule.
                let mid: Vec<u32> = c.recv(0, 9).await;
                let a: Vec<u32> = c.recv(0, 7).await;
                let b: Vec<u32> = c.recv(0, 7).await;
                vec![mid[0], a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![2, 1, 3]);
    });
    eprintln!(
        "fifo model: {} schedules explored",
        loom::last_iteration_count()
    );
}

#[test]
fn recv_any_delivers_each_racing_sender_exactly_once() {
    loom::model(|| {
        let out = run_world(3, |mut c| async move {
            match c.rank() {
                0 => {
                    let (s1, v1): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]).await;
                    let (s2, v2): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]).await;
                    // Both senders race; every schedule must deliver both
                    // messages, once each, with payload matching source.
                    assert_ne!(s1, s2, "a sender was delivered twice");
                    assert_eq!(v1[0] as usize, s1 * 100);
                    assert_eq!(v2[0] as usize, s2 * 100);
                    s1
                }
                r => {
                    c.send(0, 7, vec![(r * 100) as u32], TrafficClass::Control);
                    r
                }
            }
        });
        assert!(out[0] == 1 || out[0] == 2);
    });
    eprintln!(
        "recv_any race model: {} schedules explored",
        loom::last_iteration_count()
    );
}

#[test]
fn recv_any_buffers_non_candidate_and_other_tag_traffic() {
    loom::model(|| {
        let out = run_world(3, |mut c| async move {
            match c.rank() {
                0 => {
                    // Only rank 2 is a candidate; rank 1's message and rank
                    // 2's other-tag message must be parked, not dropped, in
                    // every arrival order.
                    let (src, v): (usize, Vec<u32>) = c.recv_any(7, &[2]).await;
                    assert_eq!((src, v[0]), (2, 5));
                    let other: Vec<u32> = c.recv(2, 8).await;
                    let non_candidate: Vec<u32> = c.recv(1, 7).await;
                    other[0] * 10 + non_candidate[0]
                }
                1 => {
                    c.send(0, 7, vec![3u32], TrafficClass::Control);
                    0
                }
                _ => {
                    c.send(0, 8, vec![4u32], TrafficClass::Control);
                    c.send(0, 7, vec![5u32], TrafficClass::Control);
                    0
                }
            }
        });
        assert_eq!(out[0], 43);
    });
    eprintln!(
        "recv_any buffering model: {} schedules explored",
        loom::last_iteration_count()
    );
}
