//! Per-rank bounded query queues and the size/linger batcher.
//!
//! Every shard worker drains exactly one [`RankQueue`]; the router
//! pushes a query onto the queue of the rank that owns the target node.
//! The queue is bounded — a saturated shard pushes back on the load
//! generator instead of buffering unboundedly — and strictly FIFO, so
//! per-rank query order is the submission order (asserted by proptest).
//!
//! Batch formation trades latency for throughput with two knobs
//! ([`BatchPolicy`]): a batch closes when it reaches `max_batch`
//! queries *or* when `linger` has elapsed since the batch's first query
//! was picked up, whichever comes first. `linger = 0` degrades to
//! "serve whatever is queued right now".

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One node-classification query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Global id of the node to classify.
    pub node: u32,
    /// Intended (scheduled) arrival instant — latency is charged from
    /// here, not from when the queue accepted the query.
    pub arrival: Instant,
    /// Where to deliver the logits row; `None` for fire-and-forget load
    /// (the harness only measures latency).
    pub reply: Option<std::sync::mpsc::Sender<Vec<f32>>>,
}

impl Query {
    /// A fire-and-forget query.
    pub fn new(node: u32, arrival: Instant) -> Self {
        Self {
            node,
            arrival,
            reply: None,
        }
    }
}

/// The latency/throughput knob for batch formation.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Hard cap on queries per batch (at least 1).
    pub max_batch: usize,
    /// How long a partially-filled batch may wait for stragglers.
    pub linger: Duration,
}

impl BatchPolicy {
    /// A policy that never waits: batch = current queue contents,
    /// capped at `max_batch`.
    pub fn immediate(max_batch: usize) -> Self {
        Self {
            max_batch,
            linger: Duration::ZERO,
        }
    }
}

/// Pops at most `max_batch` queries off the front of `q` into `out`,
/// preserving FIFO order. The pure core of batch formation — the
/// concurrent wrapper below and the proptests share it.
pub fn drain_batch(q: &mut VecDeque<Query>, max_batch: usize, out: &mut Vec<Query>) {
    let take = q.len().min(max_batch.saturating_sub(out.len()));
    for _ in 0..take {
        out.push(q.pop_front().expect("len checked"));
    }
}

#[derive(Debug)]
struct QueueState {
    q: VecDeque<Query>,
    closed: bool,
}

/// A bounded MPSC query queue with blocking push (backpressure) and a
/// batching pop.
#[derive(Debug)]
pub struct RankQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl RankQueue {
    /// A queue holding at most `capacity` pending queries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                q: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Pending query count.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().q.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a query, blocking while the queue is full. Returns
    /// `false` (dropping the query) iff the queue has been closed.
    pub fn push(&self, query: Query) -> bool {
        self.push_with(query, &mut || {})
    }

    /// Seam behind [`RankQueue::push`]: `on_full` runs (queue still
    /// locked) each time the queue is observed full, immediately before
    /// blocking. A test signals "producer parked" from the hook instead
    /// of sleeping and hoping the producer got that far — the condvar
    /// releases the lock atomically, so anything the signalled thread
    /// does under the lock is ordered strictly after the wait begins.
    fn push_with(&self, query: Query, on_full: &mut dyn FnMut()) -> bool {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return false;
            }
            if st.q.len() < self.capacity {
                st.q.push_back(query);
                drop(st);
                self.not_empty.notify_one();
                return true;
            }
            on_full();
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Closes the queue: future pushes fail, and once drained,
    /// `pop_batch` returns `false` forever.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the queue and drops every pending query: blocked and
    /// future pushes return `false`, and the dropped queries' reply
    /// senders disconnect their receivers. A worker calls this on its
    /// way out, so a worker that dies mid-batch strands no client.
    pub(crate) fn close_and_drain(&self) {
        let pending = {
            // Runs during unwinding too: a poisoned lock must not turn
            // the unwind into an abort.
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.closed = true;
            std::mem::take(&mut st.q)
        };
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(pending);
    }

    /// Forms the next batch into `out` (cleared first). Blocks until at
    /// least one query is available, then lingers per `policy` for more
    /// (up to `policy.max_batch`). Returns `false` iff the queue is
    /// closed and fully drained — the worker's exit signal.
    pub fn pop_batch(&self, policy: &BatchPolicy, out: &mut Vec<Query>) -> bool {
        self.pop_batch_with(policy, out, &mut || {})
    }

    /// Seam behind [`RankQueue::pop_batch`]: `before_linger_wait` runs
    /// (queue locked) immediately before each timed straggler wait. A
    /// test releases its straggler producer from the hook, so "query
    /// arrives during the linger window" is a forced interleaving
    /// rather than a race against a sleep.
    fn pop_batch_with(
        &self,
        policy: &BatchPolicy,
        out: &mut Vec<Query>,
        before_linger_wait: &mut dyn FnMut(),
    ) -> bool {
        out.clear();
        let max_batch = policy.max_batch.max(1);
        let mut st = self.state.lock().unwrap();
        // Wait for the batch's first query.
        while st.q.is_empty() {
            if st.closed {
                return false;
            }
            st = self.not_empty.wait(st).unwrap();
        }
        drain_batch(&mut st.q, max_batch, out);
        // Linger for stragglers.
        if out.len() < max_batch && !policy.linger.is_zero() {
            let deadline = Instant::now() + policy.linger;
            loop {
                if st.closed {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                before_linger_wait();
                let (g, _timeout) = self.not_empty.wait_timeout(st, deadline - now).unwrap();
                st = g;
                drain_batch(&mut st.q, max_batch, out);
                if out.len() >= max_batch {
                    break;
                }
            }
        }
        drop(st);
        self.not_full.notify_all();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn q(node: u32) -> Query {
        Query::new(node, Instant::now())
    }

    #[test]
    fn fifo_and_bounds_single_thread() {
        let rq = RankQueue::bounded(64);
        for n in 0..10 {
            assert!(rq.push(q(n)));
        }
        let policy = BatchPolicy::immediate(4);
        let mut out = Vec::new();
        let mut seen = Vec::new();
        while !rq.is_empty() {
            assert!(rq.pop_batch(&policy, &mut out));
            assert!(!out.is_empty() && out.len() <= 4);
            seen.extend(out.iter().map(|x| x.node));
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn close_drains_then_stops() {
        let rq = RankQueue::bounded(8);
        rq.push(q(1));
        rq.close();
        assert!(!rq.push(q(2)), "push after close must fail");
        let mut out = Vec::new();
        assert!(rq.pop_batch(&BatchPolicy::immediate(8), &mut out));
        assert_eq!(out.len(), 1);
        assert!(!rq.pop_batch(&BatchPolicy::immediate(8), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn close_and_drain_drops_pending_replies_and_refuses_pushes() {
        let rq = RankQueue::bounded(4);
        let (tx, rx) = std::sync::mpsc::channel();
        for n in 0..3 {
            assert!(rq.push(Query {
                node: n,
                arrival: Instant::now(),
                reply: Some(tx.clone()),
            }));
        }
        drop(tx);
        rq.close_and_drain();
        assert!(rq.is_empty());
        assert!(rx.recv().is_err(), "every pending reply sender dropped");
        assert!(!rq.push(q(9)), "push after close_and_drain must fail");
        assert!(!rq.pop_batch(&BatchPolicy::immediate(4), &mut Vec::new()));
    }

    /// Deterministic via the `push_with` seam: the producer signals
    /// from inside the "queue is full" hook, so the consumer pops only
    /// once the producer is provably at its blocking point — no sleep,
    /// no race.
    #[test]
    fn push_blocks_until_pop_frees_a_slot() {
        let rq = Arc::new(RankQueue::bounded(2));
        rq.push(q(0));
        rq.push(q(1));
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let rq2 = Arc::clone(&rq);
        let t = std::thread::spawn(move || {
            rq2.push_with(q(2), &mut || {
                parked_tx.send(()).expect("test alive");
            })
        });
        // Runs strictly after the producer observed the queue full and
        // entered its condvar wait; free a slot.
        parked_rx.recv().expect("producer parked");
        let mut out = Vec::new();
        assert!(rq.pop_batch(&BatchPolicy::immediate(1), &mut out));
        assert_eq!(out[0].node, 0);
        assert!(t.join().unwrap(), "blocked push must complete");
        assert_eq!(rq.len(), 2);
    }

    /// Deterministic via the `pop_batch_with` seam: the straggler is
    /// released only once the consumer is at its linger wait, so it is
    /// guaranteed to arrive inside the window regardless of scheduler
    /// stalls (the generous linger is a ceiling, never slept through).
    #[test]
    fn linger_collects_stragglers() {
        let rq = Arc::new(RankQueue::bounded(16));
        rq.push(q(0));
        let (lingering_tx, lingering_rx) = std::sync::mpsc::channel();
        let rq2 = Arc::clone(&rq);
        let t = std::thread::spawn(move || {
            lingering_rx.recv().expect("consumer lingering");
            rq2.push(q(1));
        });
        let policy = BatchPolicy {
            max_batch: 2,
            linger: Duration::from_secs(60),
        };
        let mut out = Vec::new();
        assert!(rq.pop_batch_with(&policy, &mut out, &mut || {
            let _ = lingering_tx.send(());
        }));
        t.join().unwrap();
        // The straggler arrived inside the linger window, so it must
        // ride in the same batch (and close it at max_batch).
        assert_eq!(out.iter().map(|x| x.node).collect::<Vec<_>>(), vec![0, 1]);
    }
}
