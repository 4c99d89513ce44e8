//! Span capture: lightweight timed regions attributed to ranks/threads.
//!
//! A span is opened with [`crate::span!`] (RAII guard, records on drop)
//! or with [`Timed`] when the caller also needs the measured duration as
//! a value — trainers feed the same `f64` into their epoch statistics,
//! which keeps span-derived aggregates bit-compatible with the
//! pre-existing bookkeeping.

use crate::is_enabled;
use crate::Recover;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// A typed span/metric argument (kept numeric so capture never allocates
/// strings on the hot path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (ranks, layers, epochs, byte counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (losses, probabilities, seconds).
    F64(f64),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::I64(v as i64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<f32> for ArgValue {
    fn from(v: f32) -> Self {
        ArgValue::F64(v as f64)
    }
}

/// One completed span, as stored by the collector and fed to exporters.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Static span name (e.g. `"exchange"`, `"all_reduce"`).
    pub name: &'static str,
    /// Logical thread id: the rank for trainer threads (see
    /// [`set_thread_rank`]), `1000+` for unattributed threads.
    pub tid: u32,
    /// Start time in seconds since the capture origin.
    pub ts_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Span arguments from the call site.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Tid assigned to threads that never called [`set_thread_rank`].
pub const UNATTRIBUTED_TID_BASE: u32 = 1000;

const SHARDS: usize = 16;

struct Collector {
    shards: [Mutex<Vec<SpanEvent>>; SHARDS],
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
const EMPTY_SHARD: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static COLLECTOR: Collector = Collector {
    shards: [EMPTY_SHARD; SHARDS],
};

/// The instant all span timestamps are measured from. Pinned on first
/// use (normally inside [`crate::enable`]) so traces start near zero.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Pins the trace time origin; called by [`crate::enable`].
pub(crate) fn pin_origin() {
    let _ = origin();
}

static NEXT_BG_TID: AtomicU32 = AtomicU32::new(UNATTRIBUTED_TID_BASE);

thread_local! {
    static THREAD_TID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Declares the calling thread to be rank `rank` for span attribution.
/// Trainer harnesses call this once per spawned rank thread, giving the
/// exported trace exactly one timeline (`tid`) per rank.
pub fn set_thread_rank(rank: usize) {
    THREAD_TID.with(|t| t.set(Some(rank as u32)));
}

/// The calling thread's tid, assigning a fresh `1000+` id on first use
/// for threads that never declared a rank.
pub fn current_tid() -> u32 {
    THREAD_TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_BG_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

#[cfg(feature = "capture")]
pub(crate) fn record(ev: SpanEvent) {
    let shard = ev.tid as usize % SHARDS;
    COLLECTOR.shards[shard].lock().recover().push(ev);
}

#[cfg(not(feature = "capture"))]
pub(crate) fn record(_ev: SpanEvent) {}

/// Removes and returns every captured span, ordered by start time.
pub fn drain_spans() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for shard in &COLLECTOR.shards {
        out.append(&mut shard.lock().recover());
    }
    out.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s).then_with(|| a.tid.cmp(&b.tid)));
    out
}

/// Discards every captured span.
pub(crate) fn clear_spans() {
    for shard in &COLLECTOR.shards {
        shard.lock().recover().clear();
    }
}

/// RAII span: opened by [`crate::span!`], recorded when dropped.
///
/// When capture is disabled (runtime flag off or `capture` feature
/// compiled out) the guard holds nothing and drop is a no-op.
#[must_use = "a span guard records when dropped; binding it to `_` drops it immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name` with the given arguments; prefer the
    /// [`crate::span!`] macro.
    #[inline]
    pub fn enter(name: &'static str, args: &[(&'static str, ArgValue)]) -> SpanGuard {
        if !is_enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(ActiveSpan {
            name,
            args: args.to_vec(),
            start: Instant::now(),
        }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            let dur_s = span.start.elapsed().as_secs_f64();
            let ts_s = span.start.duration_since(origin()).as_secs_f64();
            record(SpanEvent {
                name: span.name,
                tid: current_tid(),
                ts_s,
                dur_s,
                args: span.args,
            });
        }
    }
}

/// A span whose duration the caller also consumes as a value.
///
/// [`Timed::stop`] computes `elapsed` exactly once and both records it
/// and returns it, so a trainer accumulating the return value into its
/// epoch statistics produces sums bit-identical to the span-derived
/// aggregation — telemetry observes the timing rather than duplicating
/// it.
#[must_use = "call .stop() to record the span and obtain the elapsed seconds"]
pub struct Timed {
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
    start: Instant,
}

impl Timed {
    /// Starts a timed region.
    #[inline]
    pub fn start(name: &'static str) -> Timed {
        Timed {
            name,
            args: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Starts a timed region with span arguments.
    #[inline]
    pub fn with_args(name: &'static str, args: &[(&'static str, ArgValue)]) -> Timed {
        Timed {
            name,
            args: if is_enabled() {
                args.to_vec()
            } else {
                Vec::new()
            },
            start: Instant::now(),
        }
    }

    /// Stops the region, records a span (when capture is on) and returns
    /// the elapsed wall time in seconds. The returned value is the same
    /// `f64` stored in the span event.
    #[inline]
    pub fn stop(self) -> f64 {
        let dur_s = self.start.elapsed().as_secs_f64();
        if is_enabled() {
            let ts_s = self.start.duration_since(origin()).as_secs_f64();
            record(SpanEvent {
                name: self.name,
                tid: current_tid(),
                ts_s,
                dur_s,
                args: self.args,
            });
        }
        dur_s
    }
}
