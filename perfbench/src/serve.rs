//! The serving passes: capacity rounds that hand a 2-shard `ServeEngine`
//! a whole query mix at once; an open-loop Poisson schedule drawn from
//! the seed before the engine starts, replayed by one generator thread;
//! and the closed-loop `serve_batch` probe that checks served logits
//! against the model.

use crate::host::{CounterBase, CounterDeltas};
use crate::report::Tally;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::ServeSetup;
use bns_data::{Dataset, Labels};
use bns_serve::{
    Arrivals, BatchPolicy, CacheConfig, LatencySummary, NodeMix, ServeConfig, ServeEngine,
    ServePlan,
};
use bns_tensor::SeededRng;
use std::time::{Duration, Instant};

/// Counters `bns-serve` exports through `bns_telemetry`.
pub const SERVE_COUNTERS: [&str; 4] = [
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.queries",
    "serve.batches",
];

/// Keeps the seed's serving stream apart from its training streams.
const SCHEDULE_SALT: u64 = 0x5e_7e_5c_4e;

pub fn cache_config(s: &ServeSetup) -> CacheConfig {
    CacheConfig {
        capacity_ratio: s.cache_ratio,
        pin_fraction: 0.5,
    }
}

/// Queries in each capacity round.
const CAPACITY_QUERIES: usize = 2000;

fn engine_config(s: &ServeSetup, queries: usize) -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch: s.max_batch,
            linger: s.linger,
        },
        // Deep enough that the generator never blocks on a full queue.
        queue_capacity: queries.max(1),
        cache: cache_config(s),
        threads_per_shard: 1,
    }
}

/// The engine's capacity: rounds that each start a fresh engine and
/// submit one degree-proportional mix of [`CAPACITY_QUERIES`] queries,
/// drawn from the seed, all at once, so the shards serve full batches
/// back to back. Rounds repeat until `budget_s` is spent (at least 3).
/// Returns the queries per second of each round, timed from the first
/// submit to the last answer; the shards are built before the clock
/// starts.
pub fn capacity(
    sp: &ServePlan,
    ds: &Dataset,
    s: &ServeSetup,
    seed: u64,
    budget_s: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut rng = SeededRng::new(seed ^ SCHEDULE_SALT);
    let nodes = NodeMix::DegreeProportional.sample(&ds.graph, CAPACITY_QUERIES, &mut rng);
    let cfg = engine_config(s, nodes.len());
    let started = Instant::now();
    let mut qps = Vec::new();
    while qps.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let engine = ServeEngine::start(sp, &cfg);
        let t0 = Instant::now();
        let accepted = nodes.iter().filter(|&&v| engine.submit(v, t0)).count();
        let report = engine.shutdown();
        let wall_s = t0.elapsed().as_secs_f64();
        let answered = report.summary().count;
        tally.attempt(nodes.len() as u64);
        // Every answered query was accepted, so this counts refusals too.
        let missing = nodes.len().saturating_sub(answered);
        tally.check(missing == 0, missing as u64, || {
            format!("capacity round: {missing} queries unanswered, {accepted} accepted")
        });
        qps.push(answered as f64 / wall_s);
    }
    qps
}

/// The outcome of one open-loop pass.
pub struct ServePass {
    /// Latency percentiles and completed queries per second of engine
    /// lifetime, drain included.
    pub summary: LatencySummary,
    /// How late the generator submitted each query, ms.
    pub gen_lag_ms: Vec<f64>,
    pub counters: Option<CounterDeltas>,
}

/// Draws `duration_s` of Poisson arrivals and their target nodes, then
/// replays them open-loop. Latency is charged from each query's due time.
#[allow(clippy::too_many_arguments)]
pub fn pass(
    sp: &ServePlan,
    ds: &Dataset,
    s: &ServeSetup,
    seed: u64,
    duration_s: f64,
    traced: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> ServePass {
    let ((offsets, nodes), _) = tr.span("serve_schedule", |_| {
        let mut rng = SeededRng::new(seed ^ SCHEDULE_SALT);
        let offsets = Arrivals::Poisson { rate: s.rate_qps }.schedule(duration_s, &mut rng);
        let nodes = NodeMix::DegreeProportional.sample(&ds.graph, offsets.len(), &mut rng);
        (offsets, nodes)
    });
    let cfg = engine_config(s, offsets.len());
    let base = traced.then(|| {
        bns_telemetry::enable();
        CounterBase::now()
    });
    let engine = ServeEngine::start(sp, &cfg);
    let ((accepted, gen_lag_ms), _) = tr.span("serve_replay", |_| {
        let mut lag = Vec::with_capacity(offsets.len());
        let mut accepted = 0usize;
        let start = Instant::now();
        for (&off, &node) in offsets.iter().zip(&nodes) {
            let due = start + Duration::from_secs_f64(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lag.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if engine.submit(node, due) {
                accepted += 1;
            }
        }
        (accepted, lag)
    });
    let (report, _) = tr.span("serve_shutdown", |_| engine.shutdown());
    let counters = base.map(|b| {
        let d = b.deltas(&SERVE_COUNTERS);
        bns_telemetry::disable();
        d
    });
    let summary = report.summary();
    let offered = offsets.len();
    tally.attempt(offered as u64);
    let refused = offered - accepted;
    tally.check(refused == 0, refused as u64, || {
        format!("{refused} queries refused")
    });
    let lost = accepted.saturating_sub(summary.count);
    tally.check(lost == 0, lost as u64, || {
        format!("{lost} accepted queries never answered")
    });
    ServePass {
        summary,
        gen_lag_ms,
        counters,
    }
}

/// The closed-loop probe: every test-split node, served by fresh shards
/// in batches of `max_batch`, compared bit for bit with
/// `TrainedModel::predict_logits`. The whole split, not a sample of the
/// degree-proportional mix: in a 400-query sample a few hubs with huge
/// closures moved the fetched bytes per query by 14% between seeds.
pub struct Probe {
    /// Accuracy of the served answers.
    pub acc: f64,
    /// Mean `serve_batch` time on warmed shards, ms.
    pub batch_ms: f64,
    /// Boundary rows fetched from the other shard per query, in MB, on
    /// the first (cold) round; fixed by the seed.
    pub fetched_mb_per_query: f64,
}

pub fn probe(sp: &ServePlan, ds: &Dataset, s: &ServeSetup, tally: &mut Tally) -> Probe {
    let Labels::Single(labels) = &ds.labels else {
        panic!("the serving workload is single-label");
    };
    let nodes: Vec<u32> = ds.test.iter().map(|&v| v as u32).collect();
    let expected = sp.model.predict_logits(ds, &ds.test);
    // Group by owning shard, keeping each query's row in `expected`.
    let mut served_ok = 0usize;
    let mut correct = 0usize;
    let mut batch_s = Vec::new();
    let mut bytes_fetched = 0u64;
    for rank in 0..sp.k {
        let mine: Vec<(usize, u32)> = nodes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| sp.owner_of(v) == rank)
            .map(|(i, &v)| (i, v))
            .collect();
        let mut server = sp.shard(rank, cache_config(s));
        // First round, from the pinned-only cache: check every answer and
        // count the rows fetched from the other shard.
        for chunk in mine.chunks(s.max_batch) {
            let targets: Vec<u32> = chunk.iter().map(|&(_, v)| v).collect();
            let out = server.serve_batch(&targets);
            for (j, &(i, v)) in chunk.iter().enumerate() {
                let got = out.row(j);
                let want = expected.row(i);
                if got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    served_ok += 1;
                }
                if argmax(got) == labels[v as usize] {
                    correct += 1;
                }
            }
        }
        bytes_fetched += server.cache_stats().bytes_fetched;
        // Second round, on the warmed shard: timed.
        for chunk in mine.chunks(s.max_batch) {
            let targets: Vec<u32> = chunk.iter().map(|&(_, v)| v).collect();
            let t0 = Instant::now();
            drop(std::hint::black_box(server.serve_batch(&targets)));
            batch_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let n = nodes.len();
    tally.attempt(n as u64);
    let mismatched = n - served_ok;
    tally.check(mismatched == 0, mismatched as u64, || {
        format!("{mismatched} of {n} served logits differ from predict_logits")
    });
    let acc = correct as f64 / n.max(1) as f64;
    tally.check(acc >= s.acc_floor, n as u64, || {
        format!("served accuracy {acc} below floor {}", s.acc_floor)
    });
    Probe {
        acc,
        batch_ms: stats::mean(&batch_s) * 1e3,
        fetched_mb_per_query: bytes_fetched as f64 / n.max(1) as f64 / 1e6,
    }
}

/// Index of the first largest logit.
fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}
