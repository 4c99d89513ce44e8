//! Failure accounting and the result line.

use crate::json::Json;
use crate::spec::MetricSpec;

/// Operations attempted and failed in one run, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Counts `n` operations (epochs or queries) as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` attempted operations as failed.
    pub fn fail(&mut self, n: u64, reason: impl Into<String>) {
        self.failed += n;
        self.reasons.push(reason.into());
    }

    /// Fails `n` operations unless `ok`.
    pub fn check(&mut self, ok: bool, n: u64, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(n, reason());
        }
    }

    /// Fails the whole run: every attempted operation (at least one).
    pub fn fail_all(&mut self, reason: impl Into<String>) {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
        self.reasons.push(reason.into());
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    /// Failed operations; one operation failing two checks counts once
    /// per check, capped at the attempted count.
    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted())
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted() as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reasons.is_empty()
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Metrics of one pass, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
    /// Counters a crate no longer exports (reported as 0, listed here).
    absent: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    pub fn note_absent(&mut self, counter: &str) {
        if !self.absent.iter().any(|c| c == counter) {
            self.absent.push(counter.to_string());
        }
    }

    pub fn absent(&self) -> &[String] {
        &self.absent
    }

    /// Differences between what was emitted and what `declared` lists:
    /// missing, undeclared, duplicated, wrong-unit or non-finite metrics.
    pub fn mismatches(&self, declared: &[MetricSpec]) -> Vec<String> {
        let mut out = Vec::new();
        for d in declared {
            let found: Vec<_> = self
                .values
                .iter()
                .filter(|(n, _, _)| *n == d.name)
                .collect();
            match found.as_slice() {
                [] => out.push(format!("metric {} not emitted", d.name)),
                [(_, v, unit)] => {
                    if *unit != d.unit {
                        out.push(format!("metric {} in {unit}, declared {}", d.name, d.unit));
                    }
                    if !v.is_finite() {
                        out.push(format!("metric {} is {v}", d.name));
                    }
                }
                _ => out.push(format!("metric {} emitted twice", d.name)),
            }
        }
        for (n, _, _) in &self.values {
            if !declared.iter().any(|d| d.name == *n) {
                out.push(format!("metric {n} emitted but not declared"));
            }
        }
        out
    }

    /// The final result line.
    pub fn result_line(&self, tally: &Tally) -> String {
        let metrics = self
            .values
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(tally.correct())),
            ("attempted".into(), Json::Num(tally.attempted() as f64)),
            ("failed".into(), Json::Num(tally.failed() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .encode()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.values {
            s.push_str(&format!("  {name:<28} {value:>14.6} {unit}\n"));
        }
        for c in &self.absent {
            s.push_str(&format!("  counter {c:<20} absent (reported as 0)\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            better: "lower".into(),
            bound: None,
        }
    }

    #[test]
    fn failures_count_against_attempted() {
        let mut t = Tally::default();
        t.attempt(40);
        assert!(t.correct());
        assert_eq!(t.failed_frac(), 0.0);
        t.check(true, 5, || unreachable!());
        t.check(false, 10, || "10 epochs had a non-finite loss".into());
        assert!(!t.correct());
        assert_eq!((t.attempted(), t.failed()), (40, 10));
        assert_eq!(t.failed_frac(), 0.25);
        // Overlapping failures never exceed what was attempted.
        t.fail(35, "curve mismatch");
        assert_eq!(t.failed(), 40);
        assert_eq!(t.reasons().len(), 2);
    }

    #[test]
    fn failing_the_run_fails_everything_even_before_any_attempt() {
        let mut t = Tally::default();
        t.fail_all("undeclared metric");
        assert_eq!((t.attempted(), t.failed()), (1, 1));
        let mut t = Tally::default();
        t.attempt(7);
        t.fail_all("bad");
        assert_eq!(t.failed_frac(), 1.0);
    }

    #[test]
    fn emitted_metrics_must_match_the_declaration() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("b", f64::NAN, "ms");
        m.put("c", 2.0, "count");
        let d = [declared("a", "ms"), declared("b", "ms"), declared("z", "s")];
        let errs = m.mismatches(&d);
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("a in s")));
        assert!(errs.iter().any(|e| e.contains("b is NaN")));
        assert!(errs.iter().any(|e| e.contains("z not emitted")));
        assert!(errs
            .iter()
            .any(|e| e.contains("c emitted but not declared")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        let mut t = Tally::default();
        t.attempt(3);
        let v = Json::parse(&m.result_line(&t)).unwrap();
        assert_eq!(
            v.field_names(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(v.member("correct"), Some(&Json::Bool(true)));
        let s = v.member("metrics").unwrap().member("setup_s").unwrap();
        assert_eq!(s.member("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(s.member("unit").unwrap().as_text(), Some("s"));
    }
}
