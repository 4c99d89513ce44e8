//! Set-up and training passes: calls into `bns-data`, `bns-partition`,
//! `bns-gcn::plan` and `bns-gcn::engine`, each inside a benchmark span,
//! with the training correctness checks.

use crate::host::{CounterBase, CounterDeltas};
use crate::report::Tally;
use crate::trace::Tracer;
use crate::workloads::{TrainSetup, Workload};
use bns_data::Dataset;
use bns_gcn::engine::{train_with_plan, EpochStats, TrainConfig, TrainedModel};
use bns_gcn::plan::PartitionPlan;
use bns_partition::{MetisLikePartitioner, Partitioner};
use bns_serve::ServePlan;
use std::sync::Arc;
use std::time::Instant;

/// Everything set-up builds from the seed.
pub struct Prepared {
    pub ds: Arc<Dataset>,
    pub plan: Arc<PartitionPlan>,
    /// Serving workload only: the deployment and the training call that
    /// produced its model.
    pub serve: Option<(ServePlan, Call)>,
}

/// Generate, partition and plan; for serving also train the model and
/// build the `ServePlan`. Returns the set-up and its duration.
pub fn build_inputs(w: Workload, seed: u64, tr: &mut Tracer) -> (Prepared, f64) {
    let t = w.train();
    tr.span("setup", |tr| {
        let (ds, _) = tr.span("generate", |_| {
            Arc::new((t.dataset)().with_nodes(t.nodes).generate(seed))
        });
        let (part, _) = tr.span("partition", |_| {
            MetisLikePartitioner::default().partition(&ds.graph, t.k, seed)
        });
        let (plan, _) = tr.span("plan", |_| Arc::new(PartitionPlan::build(&ds, &part)));
        let serve = w.serve().map(|_| {
            let (call, _) = tr.span("train_model", |_| Call::measure(&plan, &t.config(seed)));
            let model = call.model.clone().expect("the set-up call keeps its model");
            let (sp, _) = tr.span("serve_plan", |_| ServePlan::build(&ds, &part, model));
            (sp, call)
        });
        Prepared { ds, plan, serve }
    })
}

/// One `train_with_plan` call, timed from outside.
pub struct Call {
    pub wall_s: f64,
    pub epochs: Vec<EpochStats>,
    pub final_test: f64,
    pub peak_mem_per_rank: Vec<u64>,
    pub boundary_per_rank: Vec<usize>,
    pub model: Option<TrainedModel>,
}

impl Call {
    pub fn measure(plan: &Arc<PartitionPlan>, cfg: &TrainConfig) -> Call {
        let t0 = Instant::now();
        let run = train_with_plan(plan, cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        Call {
            wall_s,
            epochs: run.epochs,
            final_test: run.final_test,
            peak_mem_per_rank: run.peak_mem_per_rank,
            boundary_per_rank: run.boundary_per_rank,
            model: Some(run.model),
        }
    }

    /// The loss curve as bit patterns, for exact comparison.
    pub fn curve(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.loss.to_bits()).collect()
    }

    pub fn epochs_per_s(&self) -> f64 {
        self.epochs.len() as f64 / self.wall_s
    }

    /// Checks one call: finite losses, the accuracy floor, the reference
    /// loss curve, and (when every boundary node is kept) that each
    /// epoch selected all of them. Failures count in epochs.
    pub fn check(&self, t: &TrainSetup, reference: &[u64], what: &str, tally: &mut Tally) {
        let n = self.epochs.len() as u64;
        tally.attempt(n);
        let bad = self.epochs.iter().filter(|e| !e.loss.is_finite()).count() as u64;
        tally.check(bad == 0, bad, || {
            format!("{what}: {bad} epochs with a non-finite loss")
        });
        tally.check(self.final_test >= t.acc_floor, n, || {
            format!(
                "{what}: test_acc {} below floor {}",
                self.final_test, t.acc_floor
            )
        });
        let curve = self.curve();
        let differ = curve.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
            + curve.len().abs_diff(reference.len()) as u64;
        tally.check(differ == 0, differ, || {
            format!("{what}: loss curve differs from the reference in {differ} epochs")
        });
        if t.p >= 1.0 {
            let total: usize = self.boundary_per_rank.iter().sum();
            let short = self
                .epochs
                .iter()
                .filter(|e| e.selected_boundary != total)
                .count() as u64;
            tally.check(short == 0, short, || {
                format!("{what}: {short} epochs selected fewer than all {total} boundary nodes")
            });
        }
    }
}

/// A sequence of identical calls: the first warms up, the rest are
/// measured.
pub struct Pass {
    pub calls: Vec<Call>,
    /// Counter deltas over the whole pass (traced passes only).
    pub counters: Option<CounterDeltas>,
}

/// Counters the training crates export through `bns_telemetry`.
pub const TRAIN_COUNTERS: [&str; 9] = [
    "comm.arena.bytes_reused",
    "comm.arena.bytes_alloc",
    "comm.recv_any_ready",
    "comm.recv_any_waited",
    "rt.parks",
    "rt.wakes",
    "rt.steals",
    "pool.parallel_dispatches",
    "pool.threads",
];

/// Runs calls until `budget_s` would be exceeded (at least `min_calls`),
/// checking each against `reference` (the first call's curve if none).
#[allow(clippy::too_many_arguments)]
pub fn pass(
    plan: &Arc<PartitionPlan>,
    t: &TrainSetup,
    seed: u64,
    budget_s: f64,
    min_calls: usize,
    traced: bool,
    reference: Option<&[u64]>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Pass {
    let cfg = t.config(seed);
    let base = traced.then(|| {
        bns_telemetry::enable();
        CounterBase::now()
    });
    let started = Instant::now();
    let mut calls: Vec<Call> = Vec::new();
    loop {
        let (mut call, _) = tr.span("train_call", |_| Call::measure(plan, &cfg));
        if traced {
            // The engine's own spans are not used; keep memory flat.
            drop(bns_telemetry::drain_spans());
        }
        call.model = None;
        let reference =
            reference.map_or_else(|| calls.first().unwrap_or(&call).curve(), <[u64]>::to_vec);
        let what = if traced { "traced call" } else { "call" };
        call.check(t, &reference, what, tally);
        let last = call.wall_s;
        calls.push(call);
        let elapsed = started.elapsed().as_secs_f64();
        if calls.len() >= min_calls && elapsed + last > budget_s {
            break;
        }
    }
    let counters = base.map(|b| {
        let d = b.deltas(&TRAIN_COUNTERS);
        bns_telemetry::disable();
        d
    });
    Pass { calls, counters }
}

impl Pass {
    /// The measured calls (all but the warm-up).
    pub fn measured(&self) -> &[Call] {
        &self.calls[1.min(self.calls.len() - 1)..]
    }

    /// Median epochs per second over the measured calls. Not the best
    /// call: on a shared host a few calls run well above the rest, so
    /// the fastest call moves more between runs than the median does.
    pub fn epochs_per_s(&self) -> f64 {
        let v: Vec<f64> = self.measured().iter().map(Call::epochs_per_s).collect();
        crate::stats::median(&v)
    }

    /// Every epoch of the measured calls.
    pub fn measured_epochs(&self) -> impl Iterator<Item = &EpochStats> {
        self.measured().iter().flat_map(|c| c.epochs.iter())
    }

    /// Epochs in every call of the pass, warm-up included.
    pub fn total_epochs(&self) -> usize {
        self.calls.iter().map(|c| c.epochs.len()).sum()
    }
}
