//! `bns-telemetry`: unified tracing, metrics and profile export for the
//! partition-parallel trainer.
//!
//! Three pieces, one global sink:
//!
//! * **Spans** — [`span!`] opens an RAII guard that records a named,
//!   wall-clock-timed region attributed to the calling thread's rank
//!   ([`set_thread_rank`]); [`Timed`] is the variant whose measured
//!   duration the caller also consumes as a value. Completed spans land
//!   in a lock-sharded global collector.
//! * **Metrics** — named [`counter_add`], [`gauge_set`],
//!   [`histogram_record`] and stepped [`series_push`] time series.
//! * **Exporters** — [`export::chrome_trace`] (load in
//!   `chrome://tracing` / Perfetto), [`export::flame_summary`]
//!   (per-rank text profile) and [`export::csv_time_series`].
//!
//! # Cost model
//!
//! Capture is off by default and gated twice: the `capture` cargo
//! feature (on by default) compiles recording in or out, and the
//! runtime [`enable`] flag turns it on per process. Every recording
//! entry point checks [`is_enabled`] first — with capture off the only
//! residual cost is that one relaxed atomic load (and for [`Timed`],
//! the `Instant` reads its caller consumes anyway).
//!
//! # Example
//!
//! ```
//! bns_telemetry::enable();
//! bns_telemetry::set_thread_rank(0);
//! {
//!     let _epoch = bns_telemetry::span!("epoch", epoch = 0usize);
//!     let timed = bns_telemetry::Timed::start("compute");
//!     let secs = timed.stop(); // same f64 the span records
//!     assert!(secs >= 0.0);
//!     bns_telemetry::counter_add("comm.bytes_sent", 1024);
//! }
//! let spans = bns_telemetry::drain_spans();
//! let json = bns_telemetry::export::chrome_trace(&spans);
//! assert!(json.contains("\"ph\":\"X\""));
//! bns_telemetry::disable();
//! # bns_telemetry::reset();
//! ```

// No unsafe here, enforced at compile time (the audited unsafe lives in
// bns-tensor, bns-nn and the vendored loom shim; see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]
pub mod export;
pub mod metrics;
pub mod span;

pub use metrics::{
    counter_add, gauge_set, histogram_record, metrics_snapshot, register_histogram, series_push,
    HistogramSnapshot, MetricsSnapshot, SeriesSnapshot,
};
pub use span::{current_tid, drain_spans, set_thread_rank, ArgValue, SpanEvent, SpanGuard, Timed};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LockResult, PoisonError};

/// Poison recovery for the `std::sync` locks behind the global sinks.
/// Every critical section leaves its map or buffer consistent, so a
/// thread that panicked while recording must not take telemetry down
/// for the rest of the process.
trait Recover<G> {
    fn recover(self) -> G;
}

impl<G> Recover<G> for LockResult<G> {
    fn recover(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns capture on for the whole process and pins the trace time
/// origin (so span timestamps start near zero).
pub fn enable() {
    span::pin_origin();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns capture off. Already-captured spans and metrics are kept until
/// [`reset`] or [`drain_spans`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is live: the `capture` feature is compiled in and
/// [`enable`] has been called.
#[inline]
pub fn is_enabled() -> bool {
    cfg!(feature = "capture") && ENABLED.load(Ordering::Relaxed)
}

/// Discards all captured spans and metrics (capture state unchanged).
pub fn reset() {
    span::clear_spans();
    metrics::clear_metrics();
}

/// Opens an RAII span recorded when the returned guard drops.
///
/// ```
/// let _g = bns_telemetry::span!("exchange");
/// let _g = bns_telemetry::span!("layer_fwd", rank = 0usize, layer = 2usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::SpanGuard::enter($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter(
            $name,
            &[$((stringify!($key), $crate::ArgValue::from($value))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry state is process-global; tests that touch it take this
    /// lock so cargo's threaded test runner cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().recover();
        reset();
        enable();
        guard
    }

    #[test]
    fn spans_capture_name_args_and_duration() {
        let _guard = isolated();
        {
            let _s = span!("outer", epoch = 3usize, loss = 0.5f64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = drain_spans();
        disable();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(outer.dur_s >= 0.002, "dur {}", outer.dur_s);
        assert_eq!(outer.args[0], ("epoch", ArgValue::U64(3)));
        assert_eq!(outer.args[1], ("loss", ArgValue::F64(0.5)));
    }

    #[test]
    fn nested_spans_order_and_containment() {
        let _guard = isolated();
        {
            let _outer = span!("outer");
            let _inner = span!("inner");
        }
        let spans = drain_spans();
        disable();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(inner.ts_s >= outer.ts_s);
        assert!(inner.ts_s + inner.dur_s <= outer.ts_s + outer.dur_s + 1e-9);
    }

    /// A holder that panics poisons a `std` lock; `recover` hands the
    /// guard back anyway, so recording keeps working afterwards.
    #[test]
    fn recover_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let m2 = std::sync::Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _g = m2.lock().recover();
            panic!("holder panics");
        })
        .join();
        assert!(joined.is_err());
        assert!(m.is_poisoned());
        *m.lock().recover() += 1;
        assert_eq!(*m.lock().recover(), 2);
    }

    #[test]
    fn disabled_capture_records_nothing() {
        let _guard = TEST_LOCK.lock().recover();
        reset();
        disable();
        {
            let _s = span!("ghost");
            counter_add("ghost.counter", 1);
            gauge_set("ghost.gauge", 1.0);
            histogram_record("ghost.hist", 1.0);
            series_push("ghost.series", 0, 1.0);
        }
        assert!(drain_spans().is_empty());
        let m = metrics_snapshot();
        assert!(m.counters.is_empty() && m.gauges.is_empty());
        assert!(m.histograms.is_empty() && m.series.is_empty());
    }

    #[test]
    fn timed_returns_the_recorded_duration() {
        let _guard = isolated();
        let t = Timed::with_args("timed_region", &[("layer", ArgValue::U64(1))]);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = t.stop();
        let spans = drain_spans();
        disable();
        let span = spans.iter().find(|s| s.name == "timed_region").unwrap();
        assert_eq!(span.dur_s, secs, "stop() must return the recorded f64");
        assert!(secs >= 0.001);
    }

    #[test]
    fn rank_threads_get_their_rank_as_tid() {
        let _guard = isolated();
        let handles: Vec<_> = (0..3usize)
            .map(|rank| {
                std::thread::spawn(move || {
                    set_thread_rank(rank);
                    let _s = span!("work", rank = rank);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = drain_spans();
        disable();
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
    }

    #[test]
    fn unattributed_threads_get_high_tids() {
        let _guard = isolated();
        std::thread::spawn(|| {
            let _s = span!("background");
        })
        .join()
        .unwrap();
        let spans = drain_spans();
        disable();
        assert!(spans[0].tid >= span::UNATTRIBUTED_TID_BASE);
    }

    #[test]
    fn counters_gauges_histograms_series() {
        let _guard = isolated();
        counter_add("c.bytes", 100);
        counter_add("c.bytes", 23);
        gauge_set("g.loss", 0.75);
        gauge_set("g.loss", 0.5);
        register_histogram("h.lat", &[0.1, 1.0, 10.0]);
        histogram_record("h.lat", 0.05);
        histogram_record("h.lat", 5.0);
        histogram_record("h.lat", 100.0);
        series_push("s.loss", 0, 1.0);
        series_push("s.loss", 1, 0.8);
        let m = metrics_snapshot();
        disable();
        assert_eq!(m.counter("c.bytes"), Some(123));
        assert_eq!(m.gauge("g.loss"), Some(0.5));
        let h = &m.histograms[0];
        // 0.05 <= 0.1 -> bucket 0; 5.0 <= 10.0 -> bucket 2; 100 overflows.
        assert_eq!(h.counts, vec![1, 0, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.sum - 105.05).abs() < 1e-9);
        assert_eq!(m.series[0].points, vec![(0, 1.0), (1, 0.8)]);
    }

    #[test]
    fn chrome_trace_shape() {
        let _guard = TEST_LOCK.lock().recover();
        let spans = vec![
            SpanEvent {
                name: "compute",
                tid: 0,
                ts_s: 0.001,
                dur_s: 0.002,
                args: vec![("epoch", ArgValue::U64(1))],
            },
            SpanEvent {
                name: "exchange",
                tid: 1,
                ts_s: 0.0015,
                dur_s: 0.0005,
                args: vec![],
            },
        ];
        let json = export::chrome_trace(&spans);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"compute\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":2000.000,\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"args\":{\"epoch\":1}"));
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\""));
        assert!(json.contains("rank 0") && json.contains("rank 1"));
    }

    #[test]
    fn flame_summary_computes_self_time() {
        let _guard = TEST_LOCK.lock().recover();
        // outer [0, 10] contains inner [2, 5]; self(outer) = 7.
        let spans = vec![
            SpanEvent {
                name: "outer",
                tid: 0,
                ts_s: 0.0,
                dur_s: 10.0,
                args: vec![],
            },
            SpanEvent {
                name: "inner",
                tid: 0,
                ts_s: 2.0,
                dur_s: 3.0,
                args: vec![],
            },
        ];
        let text = export::flame_summary(&spans);
        assert!(text.contains("=== rank 0 (tid 0) ==="), "{text}");
        let outer_row = text.lines().find(|l| l.starts_with("outer")).unwrap();
        assert!(outer_row.contains("10.000 s"), "{outer_row}");
        assert!(outer_row.contains("7.000 s"), "{outer_row}");
    }

    #[test]
    fn csv_exports_series_counters_gauges() {
        let _guard = isolated();
        series_push("epoch.loss", 0, 2.0);
        series_push("epoch.loss", 1, 1.5);
        counter_add("comm.bytes_sent", 4096);
        gauge_set("epoch.final_acc", 0.91);
        let csv = export::csv_time_series(&metrics_snapshot());
        disable();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,step,value");
        assert!(lines.contains(&"epoch.loss,0,2"));
        assert!(lines.contains(&"epoch.loss,1,1.5"));
        assert!(lines.contains(&"counter:comm.bytes_sent,,4096"));
        assert!(lines.contains(&"gauge:epoch.final_acc,,0.91"));
    }

    #[test]
    fn drain_empties_the_collector() {
        let _guard = isolated();
        {
            let _s = span!("once");
        }
        assert_eq!(drain_spans().len(), 1);
        assert!(drain_spans().is_empty());
        disable();
    }
}
