//! The host fingerprint, process memory, and per-run deltas of the
//! process-global `bns_telemetry` counters.

use crate::json::Json;
use crate::report::Metrics;

/// Environment variables that change how the crates run. The benchmark
/// records their values, then removes them so they cannot change what
/// is measured (the worker count and kernel-thread budget are fixed for
/// every run, the wire precision per workload).
pub const PINNED_ENV: [&str; 4] = ["BNS_WORKERS", "BNS_QUANT", "BNS_THREADS", "BNS_SIMD"];

/// Records every `BNS_*` variable, then clears the ones in
/// [`PINNED_ENV`]. Call before any thread starts.
pub fn capture_and_pin_env() -> Vec<(String, String)> {
    let mut seen: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BNS_"))
        .collect();
    seen.sort();
    for k in PINNED_ENV {
        std::env::remove_var(k);
    }
    seen
}

/// One line describing the machine and the resolved run settings.
pub fn fingerprint(env: &[(String, String)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = bns_tensor::ThreadConfig::from_env().threads;
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "simd".into(),
            Json::Str(bns_tensor::simd::active().name().into()),
        ),
        (
            "workers".into(),
            Json::Num(crate::workloads::WORKERS as f64),
        ),
        ("kernel_threads".into(), Json::Num(threads as f64)),
        (
            "bns_env".into(),
            Json::Obj(
                env.iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// High-water resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Machine-wide CPU ticks `(stolen, total)` from `/proc/stat`. On a
/// virtual machine, stolen time is time the hypervisor gave to other
/// guests; it slows every timing in a run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Telemetry counters taken before a traced pass, to subtract from the
/// totals after it: capture is process-global and sums across passes.
#[derive(Debug)]
pub struct CounterBase(bns_telemetry::MetricsSnapshot);

impl CounterBase {
    pub fn now() -> Self {
        CounterBase(bns_telemetry::metrics_snapshot())
    }

    /// Per-pass deltas of the named counters, against a snapshot taken
    /// after the pass.
    pub fn deltas(&self, names: &[&'static str]) -> CounterDeltas {
        let after = bns_telemetry::metrics_snapshot();
        CounterDeltas(
            names
                .iter()
                .map(|&n| {
                    let d = after
                        .counter(n)
                        .map(|v| v.saturating_sub(self.0.counter(n).unwrap_or(0)));
                    (n, d)
                })
                .collect(),
        )
    }
}

/// Counter deltas of one pass; `None` marks a counter the crates did not
/// export at all.
#[derive(Debug, Default)]
pub struct CounterDeltas(Vec<(&'static str, Option<u64>)>);

impl CounterDeltas {
    fn raw(&self, name: &str) -> Option<u64> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|&(_, v)| v)
    }

    /// The delta of `name`, or 0 with the counter noted as absent.
    pub fn delta(&self, name: &str, m: &mut Metrics) -> f64 {
        match self.raw(name) {
            Some(v) => v as f64,
            None => {
                m.note_absent(name);
                0.0
            }
        }
    }

    /// The delta of `name`, where `name` is emitted only when it moves
    /// but `witness` always is: 0 if just `name` is missing, absent if
    /// both are.
    pub fn get_or_zero(&self, name: &str, witness: &str, m: &mut Metrics) -> f64 {
        match (self.raw(name), self.raw(witness)) {
            (Some(v), _) => v as f64,
            (None, Some(_)) => 0.0,
            (None, None) => {
                m.note_absent(name);
                0.0
            }
        }
    }

    /// `num / (num + other)`, where a counter only some passes emit
    /// counts as 0; absent only when both are.
    pub fn share(&self, num: &str, other: &str, m: &mut Metrics) -> f64 {
        match (self.raw(num), self.raw(other)) {
            (None, None) => {
                m.note_absent(num);
                m.note_absent(other);
                0.0
            }
            (a, b) => {
                let (a, b) = (a.unwrap_or(0) as f64, b.unwrap_or(0) as f64);
                if a + b == 0.0 {
                    0.0
                } else {
                    a / (a + b)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_counters_report_zero_and_are_listed() {
        let d = CounterDeltas(vec![("a", Some(3)), ("b", None), ("c", Some(1))]);
        let mut m = Metrics::default();
        assert_eq!(d.delta("a", &mut m), 3.0);
        assert_eq!(d.delta("b", &mut m), 0.0);
        assert_eq!(d.delta("missing", &mut m), 0.0);
        assert_eq!(m.absent(), ["b", "missing"]);
        let mut m = Metrics::default();
        assert_eq!(d.share("a", "c", &mut m), 0.75);
        assert_eq!(d.share("a", "b", &mut m), 1.0);
        assert!(m.absent().is_empty());
        assert_eq!(d.share("b", "zz", &mut m), 0.0);
        assert_eq!(m.absent().len(), 2);
        let mut m = Metrics::default();
        assert_eq!(d.get_or_zero("b", "a", &mut m), 0.0);
        assert!(m.absent().is_empty());
        assert_eq!(d.get_or_zero("b", "zz", &mut m), 0.0);
        assert_eq!(m.absent(), ["b"]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
