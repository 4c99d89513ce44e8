//! The benchmark's declaration in `BENCHMARK.json`: workloads, the
//! end-to-end metrics (with their regression bounds) and the per-layer
//! metrics. The run checks the metrics it emits against this file, so
//! the file and the code cannot drift apart silently.

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// End-to-end metrics only: allowed worsening as a share of the
    /// parent's median.
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

/// The whole of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

const TOP_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.member(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn string(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    field(obj, key, ctx)?
        .as_text()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

fn array<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    field(obj, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: `{key}` is not an array"))
}

fn exact_keys(obj: &Json, keys: &[&str], ctx: &str) -> Result<(), String> {
    if obj.field_names() == keys {
        Ok(())
    } else {
        Err(format!(
            "{ctx}: keys {:?}, expected {keys:?}",
            obj.field_names()
        ))
    }
}

fn metric(v: &Json, with_bound: bool, ctx: &str) -> Result<MetricSpec, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    exact_keys(v, keys, ctx)?;
    let better = string(v, "better", ctx)?;
    if better != "lower" && better != "higher" {
        return Err(format!("{ctx}: `better` must be lower or higher"));
    }
    let bound = if with_bound {
        let b = field(v, "bound", ctx)?
            .as_f64()
            .ok_or_else(|| format!("{ctx}: `bound` is not a number"))?;
        if !(b > 0.0 && b <= 0.25) {
            return Err(format!("{ctx}: bound {b} outside (0, 0.25]"));
        }
        Some(b)
    } else {
        None
    };
    Ok(MetricSpec {
        name: string(v, "name", ctx)?,
        unit: string(v, "unit", ctx)?,
        better,
        bound,
    })
}

impl BenchSpec {
    /// Parses and checks the document's shape.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = Json::parse(text)?;
        exact_keys(&doc, &TOP_KEYS, "BENCHMARK.json")?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            array(&doc, key, "BENCHMARK.json")?
                .iter()
                .map(|v| {
                    v.as_text()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` holds a non-string"))
                })
                .collect()
        };
        let run_seconds = field(&doc, "run_seconds", "BENCHMARK.json")?
            .as_f64()
            .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
            .ok_or("`run_seconds` must be a whole number in 1..=60")?
            as u64;
        let workloads = array(&doc, "workloads", "BENCHMARK.json")?
            .iter()
            .map(|w| {
                exact_keys(w, &["name", "why"], "workload")?;
                Ok(WorkloadSpec {
                    name: string(w, "name", "workload")?,
                    why: string(w, "why", "workload")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = |key: &str, with_bound: bool| {
            array(&doc, key, "BENCHMARK.json")?
                .iter()
                .map(|m| metric(m, with_bound, key))
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(BenchSpec {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Serializes back to the document form (one key order, the
    /// declaration's).
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let metrics = |v: &[MetricSpec]| {
            Json::Arr(
                v.iter()
                    .map(|m| {
                        let mut f = vec![
                            ("name".to_string(), Json::Str(m.name.clone())),
                            ("unit".to_string(), Json::Str(m.unit.clone())),
                            ("better".to_string(), Json::Str(m.better.clone())),
                        ];
                        if let Some(b) = m.bound {
                            f.push(("bound".to_string(), Json::Num(b)));
                        }
                        Json::Obj(f)
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("command".into(), strs(&self.command)),
            ("paths".into(), strs(&self.paths)),
            ("run_seconds".into(), Json::Num(self.run_seconds as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(w.name.clone())),
                                ("why".into(), Json::Str(w.why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end".into(), metrics(&self.end_to_end)),
            ("per_layer".into(), metrics(&self.per_layer)),
        ])
    }

    /// The metrics a pass must emit: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics_for(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked_in() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_round_trips() {
        let spec = BenchSpec::parse(&checked_in()).unwrap();
        let again = BenchSpec::parse(&spec.to_json().encode()).unwrap();
        assert_eq!(spec, again);
        // The parsed document equals the re-serialized one value for value.
        assert_eq!(
            Json::parse(&checked_in()).unwrap(),
            Json::parse(&spec.to_json().encode()).unwrap()
        );
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = BenchSpec::parse(&checked_in()).unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let known: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, known);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let setup_bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound;
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup_bound));
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
    }

    #[test]
    fn rejects_extra_keys_and_loose_bounds() {
        let spec = BenchSpec::parse(&checked_in()).unwrap();
        let mut doc = spec.to_json();
        if let Json::Obj(f) = &mut doc {
            f.push(("extra".into(), Json::Null));
        }
        assert!(BenchSpec::parse(&doc.encode()).is_err());
        let mut loose = spec.clone();
        loose.end_to_end[0].bound = Some(0.5);
        assert!(BenchSpec::parse(&loose.to_json().encode()).is_err());
    }
}
