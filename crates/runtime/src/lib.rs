//! Cooperative rank scheduler: k rank futures on a fixed OS worker set.
//!
//! The paper's headline experiments run at up to k=192 partitions
//! (Fig. 3/8, Table 6). A thread-per-rank engine oversubscribes the
//! host as soon as k exceeds the core count and starves every rank's
//! kernel-pool share down to one thread. This crate decouples the two:
//! each rank is a future — straight-line `async` code that returns
//! `Poll::Pending` wherever it awaits a message — and a fixed set of
//! workers (default `available_parallelism`, override [`ENV_WORKERS`])
//! polls whichever futures are runnable. A parked future costs a queue
//! slot, not a core; its [`std::task::Waker`] (registered with the
//! `bns-comm` mailbox by the receive future) marks it runnable again
//! when a message arrives.
//!
//! # Determinism
//!
//! The scheduler never touches task-owned data: each future is polled
//! by at most one worker at a time (enforced by the per-task state
//! machine below), and each future's code runs in program order
//! regardless of which worker polls it or how polls interleave across
//! tasks. A future whose computation is deterministic therefore
//! produces bitwise-identical results at any worker count — the
//! property the engine's loss-curve pinning tests assert (DESIGN.md
//! §12).
//!
//! # Wakeup protocol
//!
//! Each task carries an atomic state: `Parked`, `Ready` (queued),
//! `Running`, `Notified` (wake arrived mid-poll), or `Done`. A wake on
//! a `Parked` task enqueues it; a wake on a `Running` task flips it to
//! `Notified` so that when its poll returns `Pending` the worker
//! re-enqueues it immediately instead of parking — a message that
//! lands between the mailbox's last check and the park cannot drop a
//! task.

// The scheduler itself holds no unsafe; the audited unsafe stays in
// bns-tensor/bns-nn (see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Environment variable overriding the scheduler worker count.
pub const ENV_WORKERS: &str = "BNS_WORKERS";

/// Resolved scheduler worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerConfig {
    /// OS threads the scheduler may occupy, caller included (>= 1).
    pub workers: usize,
}

impl WorkerConfig {
    /// Exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The process-wide worker count: `BNS_WORKERS` when set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let env = std::env::var(ENV_WORKERS).ok();
        Self::resolve(env.as_deref())
    }

    /// Pure resolution helper backing [`WorkerConfig::from_env`]
    /// (separated so the parse rules are testable without mutating
    /// process environment).
    pub fn resolve(env: Option<&str>) -> Self {
        if let Some(s) = env {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n >= 1 {
                    return Self::new(n);
                }
            }
        }
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// A boxed rank future as [`run_tasks`] takes it.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

// Per-task scheduling states (stored in an AtomicU8).
const PARKED: u8 = 0;
const READY: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Shared {
    states: Vec<AtomicU8>,
    /// FIFO of READY task indices.
    queue: Mutex<VecDeque<usize>>,
    /// Signals "queue non-empty or run over" to sleeping workers.
    available: Condvar,
    /// Tasks not yet DONE; the run ends when it reaches zero.
    live: AtomicUsize,
    /// Set when a task panicked; all workers drain out.
    poisoned: AtomicBool,
    /// First captured panic payload, re-raised on the caller.
    panic: Mutex<Option<PanicPayload>>,
    /// Which worker last polled each task (steal accounting).
    last_worker: Vec<AtomicUsize>,
    parks: AtomicU64,
    steals: AtomicU64,
    wakes: AtomicU64,
    max_ready_depth: AtomicU64,
}

impl Shared {
    fn enqueue(&self, idx: usize) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(idx);
        // The edge to WeightedSampler::len (which locks `state`) is a
        // name collision, not a real call.
        // bns-allow(BNS-A003): VecDeque::len, not WeightedSampler::len
        let depth = q.len() as u64;
        drop(q);
        self.max_ready_depth.fetch_max(depth, Ordering::Relaxed);
        self.available.notify_one();
    }

    /// Wakes every sleeping worker to re-check `live` and `poisoned`.
    /// Workers read those under the queue lock and then sleep on
    /// `available`, so the lock is taken first: a worker that read the
    /// old value is then already asleep and gets the notify, instead of
    /// missing it between its check and its wait and sleeping forever.
    fn wake_all_workers(&self) {
        drop(self.queue.lock().unwrap_or_else(|e| e.into_inner()));
        self.available.notify_all();
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    fn wake(&self, idx: usize) {
        loop {
            match self.states[idx].load(Ordering::SeqCst) {
                PARKED => {
                    if self.states[idx]
                        .compare_exchange(PARKED, READY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.wakes.fetch_add(1, Ordering::Relaxed);
                        self.enqueue(idx);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[idx]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.wakes.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                // Already queued, already notified, or finished: the
                // pending wake is subsumed.
                _ => return,
            }
        }
    }
}

/// The waker behind each task's [`Waker`]: marks task `idx` runnable
/// (no-op if it is already queued or done). Callable from any thread.
struct TaskWaker {
    shared: Arc<Shared>,
    idx: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.shared.wake(self.idx);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.wake(self.idx);
    }
}

/// Counters from one [`run_tasks`] call, for `rt.*` telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Times a task parked (its poll returned `Pending` with no wake
    /// pending).
    pub parks: u64,
    /// Times a task resumed on a different worker than its last poll.
    pub steals: u64,
    /// Wakes that transitioned a task to runnable.
    pub wakes: u64,
    /// High-water mark of the ready queue.
    pub max_ready_depth: u64,
}

/// Runs `tasks` to completion on `workers` OS threads (the calling
/// thread serves as worker 0; `workers - 1` are spawned) and returns
/// their outputs in task order. `setup(w)` runs once on each worker
/// before it starts polling and the guard it returns is dropped when
/// the worker drains out — the engine uses it to install each worker's
/// kernel thread pool.
///
/// Task `i` is rank `i`: every poll of it runs with the telemetry
/// thread rank set to `i`, so its spans land on rank `i`'s timeline
/// whichever worker polls it. Futures stay alive until every task has
/// finished (a finished rank's mailbox outlives it).
///
/// The worker count is clamped to `tasks.len()` — extra workers would
/// never have a task to run.
///
/// # Panics
///
/// A panic inside any task aborts the run and resurfaces on the caller.
pub fn run_tasks<T, S, G>(
    tasks: Vec<BoxFuture<'_, T>>,
    workers: usize,
    setup: S,
) -> (Vec<T>, RunStats)
where
    T: Send,
    S: Fn(usize) -> G + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return (Vec::new(), RunStats::default());
    }
    let workers = workers.clamp(1, n);
    let shared = Arc::new(Shared {
        states: (0..n).map(|_| AtomicU8::new(READY)).collect(),
        queue: Mutex::new((0..n).collect()),
        available: Condvar::new(),
        live: AtomicUsize::new(n),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        last_worker: (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect(),
        parks: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        wakes: AtomicU64::new(0),
        max_ready_depth: AtomicU64::new(n as u64),
    });
    let wakers: Vec<Waker> = (0..n)
        .map(|idx| {
            Waker::from(Arc::new(TaskWaker {
                shared: Arc::clone(&shared),
                idx,
            }))
        })
        .collect();
    // Each future is polled by at most one worker at a time (state
    // machine), but *which* worker migrates, so each slot is a Mutex.
    // Polls hold the lock for their full duration; wakers never touch
    // it.
    let slots: Vec<Mutex<BoxFuture<'_, T>>> = tasks.into_iter().map(Mutex::new).collect();
    let outputs: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let run = Run {
        shared: &shared,
        wakers: &wakers,
        slots: &slots,
        outputs: &outputs,
    };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let run = &run;
            let setup = &setup;
            scope.spawn(move || {
                let _guard = setup(w);
                run.worker_loop(w);
            });
        }
        let _guard = setup(0);
        run.worker_loop(0);
    });
    // Re-raise the first captured panic on the caller.
    if let Some(p) = shared.take_panic() {
        panic::resume_unwind(p);
    }
    let stats = RunStats {
        parks: shared.parks.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        wakes: shared.wakes.load(Ordering::Relaxed),
        max_ready_depth: shared.max_ready_depth.load(Ordering::Relaxed),
    };
    bns_telemetry::counter_add("rt.parks", stats.parks);
    bns_telemetry::counter_add("rt.steals", stats.steals);
    bns_telemetry::counter_add("rt.wakes", stats.wakes);
    bns_telemetry::gauge_set("rt.ready_depth", stats.max_ready_depth as f64);
    let mut results = Vec::with_capacity(n);
    for out in outputs {
        let out = out.into_inner().unwrap_or_else(|e| e.into_inner());
        results.push(out.expect("every task ran to completion"));
    }
    (results, stats)
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// What every worker of one [`run_tasks`] call shares.
struct Run<'r, 'a, T> {
    shared: &'r Shared,
    wakers: &'r [Waker],
    slots: &'r [Mutex<BoxFuture<'a, T>>],
    outputs: &'r [Mutex<Option<T>>],
}

impl<T> Run<'_, '_, T> {
    fn worker_loop(&self, w: usize) {
        let shared = self.shared;
        loop {
            let idx = {
                let mut q = shared.queue.lock().unwrap();
                loop {
                    if shared.live.load(Ordering::SeqCst) == 0
                        || shared.poisoned.load(Ordering::SeqCst)
                    {
                        return;
                    }
                    if let Some(idx) = q.pop_front() {
                        break idx;
                    }
                    // The edge to JobBatch::wait (which locks
                    // `completed`) is a name collision.
                    // bns-allow(BNS-A003): Condvar::wait, not JobBatch::wait
                    q = shared.available.wait(q).unwrap();
                }
            };
            shared.states[idx].store(RUNNING, Ordering::SeqCst);
            let prev = shared.last_worker[idx].swap(w, Ordering::Relaxed);
            if prev != usize::MAX && prev != w {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            // Spans recorded during this poll attribute to the rank,
            // not to whichever OS worker picked it.
            bns_telemetry::set_thread_rank(idx);
            let polled = {
                let mut fut = self.slots[idx].lock().unwrap_or_else(|e| e.into_inner());
                let mut cx = Context::from_waker(&self.wakers[idx]);
                // AssertUnwindSafe: on Err the payload is re-raised and
                // the run aborts, so no one observes the broken future.
                panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
            };
            match polled {
                Err(payload) => {
                    shared
                        .panic
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get_or_insert(payload);
                    shared.poisoned.store(true, Ordering::SeqCst);
                    shared.wake_all_workers();
                    return;
                }
                Ok(Poll::Ready(out)) => {
                    *self.outputs[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    shared.states[idx].store(DONE, Ordering::SeqCst);
                    if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                        shared.wake_all_workers();
                    }
                }
                Ok(Poll::Pending) => {
                    match shared.states[idx].compare_exchange(
                        RUNNING,
                        PARKED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            shared.parks.fetch_add(1, Ordering::Relaxed);
                        }
                        // A wake landed mid-poll (state is NOTIFIED):
                        // runnable again immediately.
                        Err(_) => {
                            shared.states[idx].store(READY, Ordering::SeqCst);
                            shared.enqueue(idx);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::poll_fn;

    /// Returns `Pending` once after waking itself: a cooperative yield.
    async fn yield_now() {
        let mut yielded = false;
        poll_fn(|cx| {
            if yielded {
                Poll::Ready(())
            } else {
                yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        })
        .await
    }

    fn countdown(left: usize, hits: Arc<AtomicUsize>) -> BoxFuture<'static, usize> {
        Box::pin(async move {
            for _ in 0..left {
                hits.fetch_add(1, Ordering::SeqCst);
                yield_now().await;
            }
            left
        })
    }

    #[test]
    fn all_tasks_run_to_completion_at_any_worker_count() {
        for workers in [1usize, 2, 8, 64] {
            let hits = Arc::new(AtomicUsize::new(0));
            let tasks = (0..12)
                .map(|i| countdown(i + 1, Arc::clone(&hits)))
                .collect();
            let (outputs, stats) = run_tasks(tasks, workers, |_| ());
            assert_eq!(hits.load(Ordering::SeqCst), (1..=12).sum::<usize>());
            assert_eq!(
                outputs,
                (1..=12).collect::<Vec<_>>(),
                "outputs in task order"
            );
            assert_eq!(stats.parks, 0, "self-waking tasks never park");
        }
    }

    /// A waits parked until B flips the flag and wakes it — on one
    /// worker this deadlocks unless parking actually releases the
    /// worker and the wake re-enqueues A.
    #[test]
    fn park_then_wake_crosses_tasks_on_one_worker() {
        for workers in [1usize, 2] {
            let flag = Arc::new(AtomicBool::new(false));
            let slot: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
            let (f, s) = (Arc::clone(&flag), Arc::clone(&slot));
            let waiter: BoxFuture<'_, ()> = Box::pin(poll_fn(move |cx| {
                // Register, then re-check: a set between the two is
                // still seen.
                *s.lock().unwrap() = Some(cx.waker().clone());
                if f.load(Ordering::SeqCst) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }));
            let (f, s) = (Arc::clone(&flag), Arc::clone(&slot));
            let setter: BoxFuture<'_, ()> = Box::pin(async move {
                f.store(true, Ordering::SeqCst);
                if let Some(w) = s.lock().unwrap().take() {
                    w.wake();
                }
            });
            let (_, stats) = run_tasks(vec![waiter, setter], workers, |_| ());
            assert!(flag.load(Ordering::SeqCst));
            assert!(stats.wakes >= 1);
        }
    }

    #[test]
    fn setup_guard_runs_per_worker_and_drops() {
        let setups = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicUsize::new(0));
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks = (0..4).map(|_| countdown(3, Arc::clone(&hits))).collect();
        run_tasks(tasks, 3, |_w| {
            setups.fetch_add(1, Ordering::SeqCst);
            Guard(Arc::clone(&drops))
        });
        assert_eq!(setups.load(Ordering::SeqCst), 3);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_task_count() {
        let hits = Arc::new(AtomicUsize::new(0));
        let setups = Arc::new(AtomicUsize::new(0));
        run_tasks(vec![countdown(1, hits)], 16, |_| {
            setups.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(setups.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn task_panic_propagates_to_caller() {
        let hits = Arc::new(AtomicUsize::new(0));
        let bomb: BoxFuture<'_, usize> = Box::pin(async { panic!("task exploded") });
        run_tasks(vec![countdown(1000, hits), bomb], 2, |_| ());
    }

    #[test]
    fn worker_config_resolution() {
        assert_eq!(WorkerConfig::resolve(Some("3")).workers, 3);
        assert_eq!(WorkerConfig::resolve(Some(" 2 ")).workers, 2);
        let fallback = WorkerConfig::resolve(None).workers;
        assert!(fallback >= 1);
        assert_eq!(WorkerConfig::resolve(Some("0")).workers, fallback);
        assert_eq!(WorkerConfig::resolve(Some("nope")).workers, fallback);
        assert_eq!(WorkerConfig::new(0).workers, 1);
    }

    #[test]
    fn empty_task_list_returns_immediately() {
        let (outputs, stats) = run_tasks::<(), _, _>(Vec::new(), 4, |_| ());
        assert!(outputs.is_empty());
        assert_eq!(stats.parks + stats.steals + stats.wakes, 0);
    }
}
