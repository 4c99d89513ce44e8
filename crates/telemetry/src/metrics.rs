//! Metrics registry: named counters, gauges, fixed-bucket histograms
//! and stepped time series.
//!
//! All writers are lock-light: counters and gauges hit a shared
//! `RwLock<BTreeMap>` read lock plus one atomic op on the hot path
//! (a `BTreeMap`: iteration order is part of the determinism contract);
//! registration (first touch of a name) takes the write lock once.
//! Every write is a no-op unless capture is enabled.

use crate::is_enabled;
use crate::Recover;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// A fixed-bucket histogram. `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one overflow bucket follows the last bound.
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulation via CAS on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Default histogram bucket edges: one-per-decade from 1 ns to 1000 s
/// (values are unit-agnostic; these suit seconds and byte counts alike).
pub const DEFAULT_BUCKETS: [f64; 13] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3,
];

struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    series: Mutex<BTreeMap<&'static str, Vec<(u64, f64)>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
        series: Mutex::new(BTreeMap::new()),
    })
}

/// Fetches (or lazily creates) the handle for `name` in one of the
/// registry's maps.
///
/// Must stay in early-return form: in edition 2021 an
/// `if let ... else { map.write() }` keeps the read guard alive through
/// the `else` branch and self-deadlocks the calling thread the first
/// time a metric name is created.
fn handle_in<T>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
    init: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(h) = map.read().recover().get(name) {
        return Arc::clone(h);
    }
    Arc::clone(
        map.write()
            .recover()
            .entry(name)
            .or_insert_with(|| Arc::new(init())),
    )
}

/// Adds `delta` to the counter `name`, creating it at zero on first use.
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    handle_in(&registry().counters, name, || AtomicU64::new(0)).fetch_add(delta, Ordering::Relaxed);
}

/// Sets the gauge `name` to `value`.
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    let handle = handle_in(&registry().gauges, name, || AtomicU64::new(0f64.to_bits()));
    handle.store(value.to_bits(), Ordering::Relaxed);
}

/// Registers (or re-buckets) the histogram `name` with explicit bucket
/// upper edges. Histograms recorded without registration use
/// [`DEFAULT_BUCKETS`].
pub fn register_histogram(name: &'static str, bounds: &[f64]) {
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly increasing"
    );
    registry()
        .histograms
        .write()
        .recover()
        .insert(name, Arc::new(Histogram::new(bounds.to_vec())));
}

/// Records `value` into the histogram `name`.
pub fn histogram_record(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    let handle = handle_in(&registry().histograms, name, || {
        Histogram::new(DEFAULT_BUCKETS.to_vec())
    });
    handle.record(value);
}

/// Appends `(step, value)` to the time series `name` (steps are
/// typically epochs; exporters emit them in insertion order).
pub fn series_push(name: &'static str, step: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    registry()
        .series
        .lock()
        .recover()
        .entry(name)
        .or_default()
        .push((step, value));
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Inclusive bucket upper edges; the final count is the overflow.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Point-in-time copy of one time series.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// `(step, value)` in insertion order.
    pub points: Vec<(u64, f64)>,
}

/// A consistent-enough copy of the whole registry, all sections sorted
/// by name for deterministic export.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: Vec<(String, u64)>,
    /// Latest gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Time series.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Captures the current state of every metric.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut counters: Vec<(String, u64)> = registry()
        .counters
        .read()
        .recover()
        .iter()
        .map(|(&n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, f64)> = registry()
        .gauges
        .read()
        .recover()
        .iter()
        .map(|(&n, g)| (n.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<HistogramSnapshot> = registry()
        .histograms
        .read()
        .recover()
        .iter()
        .map(|(&n, h)| HistogramSnapshot {
            name: n.to_string(),
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut series: Vec<SeriesSnapshot> = registry()
        .series
        .lock()
        .recover()
        .iter()
        .map(|(&n, pts)| SeriesSnapshot {
            name: n.to_string(),
            points: pts.clone(),
        })
        .collect();
    series.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        series,
    }
}

/// Clears every metric (registrations included).
pub(crate) fn clear_metrics() {
    registry().counters.write().recover().clear();
    registry().gauges.write().recover().clear();
    registry().histograms.write().recover().clear();
    registry().series.lock().recover().clear();
}
