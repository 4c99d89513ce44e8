//! The serving worker pool: one OS thread per shard, each draining its
//! rank's bounded queue through the size/linger batcher into
//! [`ShardServer::serve_batch`].
//!
//! This module is the **only** place in `bns-serve` allowed to call
//! `thread::spawn` (`cargo xtask audit` enforces it), mirroring how
//! training confines spawns to `bns-comm` and the tensor pool. Each
//! worker may additionally install a private `bns-tensor` thread pool
//! so the forward kernels parallelize within a batch — the same
//! per-rank pool discipline the trainer uses, with the same bitwise
//! determinism guarantee.

use crate::batch::{BatchPolicy, Query, RankQueue};
use crate::cache::{CacheConfig, CacheStats};
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::shard::{ServePlan, ShardServer};
use bns_tensor::Matrix;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deployment-wide serving knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Batch formation (size cap + linger window).
    pub policy: BatchPolicy,
    /// Bound of each rank's pending-query queue (backpressure point).
    pub queue_capacity: usize,
    /// Boundary-cache sizing.
    pub cache: CacheConfig,
    /// Kernel threads per shard worker (`<= 1` = serial kernels).
    pub threads_per_shard: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy {
                max_batch: 32,
                linger: Duration::from_micros(200),
            },
            queue_capacity: 1024,
            cache: CacheConfig::default(),
            threads_per_shard: 1,
        }
    }
}

/// One worker's tallies, returned when it exits.
#[derive(Debug)]
pub struct ShardReport {
    /// The shard's rank.
    pub rank: usize,
    /// Queries answered.
    pub queries: u64,
    /// Batches formed.
    pub batches: u64,
    /// Largest batch actually served.
    pub max_batch_seen: usize,
    /// Per-query latencies.
    pub latency: LatencyRecorder,
    /// Boundary-cache counters.
    pub cache: CacheStats,
}

/// Whole-deployment results from [`ServeEngine::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardReport>,
    /// All shards' latencies merged.
    pub latency: LatencyRecorder,
    /// All shards' cache counters merged.
    pub cache: CacheStats,
    /// Wall-clock time from engine start to shutdown completion.
    pub elapsed: Duration,
}

impl ServeReport {
    /// Latency/throughput summary over the engine's lifetime.
    pub fn summary(&self) -> LatencySummary {
        self.latency.summary(self.elapsed)
    }

    /// Mean served-batch occupancy.
    pub fn avg_batch(&self) -> f64 {
        let q: u64 = self.per_shard.iter().map(|s| s.queries).sum();
        let b: u64 = self.per_shard.iter().map(|s| s.batches).sum();
        if b == 0 {
            0.0
        } else {
            q as f64 / b as f64
        }
    }
}

/// A running serving deployment: `k` shard workers behind `k` bounded
/// queues, with queries routed by node ownership.
#[derive(Debug)]
pub struct ServeEngine {
    owner: Arc<Vec<u32>>,
    queues: Vec<Arc<RankQueue>>,
    handles: Vec<JoinHandle<ShardReport>>,
    started: Instant,
}

impl ServeEngine {
    /// Builds every shard (pinning its cache) and spawns the workers.
    pub fn start(plan: &ServePlan, cfg: &ServeConfig) -> ServeEngine {
        Self::start_with(plan, cfg, ShardServer::serve_batch)
    }

    /// Seam behind [`ServeEngine::start`]: every worker answers its
    /// batches with `serve` instead of [`ShardServer::serve_batch`]. A
    /// test injects a panicking `serve` to exercise worker failure.
    fn start_with(plan: &ServePlan, cfg: &ServeConfig, serve: ServeFn) -> ServeEngine {
        let started = Instant::now();
        let mut queues = Vec::with_capacity(plan.k);
        let mut handles = Vec::with_capacity(plan.k);
        for rank in 0..plan.k {
            let queue = Arc::new(RankQueue::bounded(cfg.queue_capacity));
            let server = plan.shard(rank, cfg.cache);
            let q = Arc::clone(&queue);
            let policy = cfg.policy;
            let threads = cfg.threads_per_shard;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bns-serve-{rank}"))
                    .spawn(move || worker_loop(server, &q, &policy, threads, serve))
                    .expect("spawn shard worker"),
            );
            queues.push(queue);
        }
        ServeEngine {
            owner: Arc::clone(&plan.owner),
            queues,
            handles,
            started,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Routes a fire-and-forget query to the owning shard, blocking on
    /// a full queue (backpressure). Returns `false` if `node` is not a
    /// node of the served graph or that shard's queue was shut down.
    pub fn submit(&self, node: u32, arrival: Instant) -> bool {
        self.submit_query(Query::new(node, arrival))
    }

    /// Routes a fully-formed query (e.g. one carrying a reply channel).
    /// Returns `false`, dropping the query (and so its reply sender),
    /// if `query.node` is not a node of the served graph or the owning
    /// shard's queue was shut down — a worker that panicked shuts its
    /// queue down.
    pub fn submit_query(&self, query: Query) -> bool {
        match self.owner.get(query.node as usize) {
            Some(&rank) => self.queues[rank as usize].push(query),
            None => false,
        }
    }

    /// Total queries still waiting in queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Closes every queue, lets the workers drain, joins them, and
    /// merges their reports. Cache counters are flushed to
    /// `bns-telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn shutdown(self) -> ServeReport {
        for q in &self.queues {
            q.close();
        }
        let mut per_shard: Vec<ShardReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        per_shard.sort_by_key(|s| s.rank);
        let mut latency = LatencyRecorder::default();
        let mut cache = CacheStats::default();
        let mut queries = 0u64;
        let mut batches = 0u64;
        for s in &per_shard {
            latency.merge(&s.latency);
            cache.merge(&s.cache);
            queries += s.queries;
            batches += s.batches;
        }
        cache.flush_counters();
        bns_telemetry::counter_add("serve.queries", queries);
        bns_telemetry::counter_add("serve.batches", batches);
        ServeReport {
            per_shard,
            latency,
            cache,
            elapsed: self.started.elapsed(),
        }
    }
}

/// How a worker answers one batch; [`ShardServer::serve_batch`] outside
/// tests.
type ServeFn = fn(&mut ShardServer, &[u32]) -> Matrix;

/// Closes and drains a worker's queue when the worker exits. After a
/// normal exit the queue is already closed and empty; after a panic
/// this is what makes blocked submitters return `false` and pending
/// reply receivers disconnect instead of waiting forever.
struct CloseOnExit<'a>(&'a RankQueue);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close_and_drain();
    }
}

/// One shard's serve loop: pop a batch, answer it, charge each query's
/// latency from its *intended* arrival, deliver replies if requested.
fn worker_loop(
    mut server: ShardServer,
    queue: &RankQueue,
    policy: &BatchPolicy,
    threads: usize,
    serve: ServeFn,
) -> ShardReport {
    let _close = CloseOnExit(queue);
    let _pool = if threads > 1 {
        Some(bns_tensor::pool::install(bns_tensor::ThreadPool::new(
            threads,
        )))
    } else {
        None
    };
    let mut latency = LatencyRecorder::default();
    let mut batch: Vec<Query> = Vec::with_capacity(policy.max_batch);
    let mut nodes: Vec<u32> = Vec::with_capacity(policy.max_batch);
    let mut queries = 0u64;
    let mut batches = 0u64;
    let mut max_batch_seen = 0usize;
    while queue.pop_batch(policy, &mut batch) {
        nodes.clear();
        nodes.extend(batch.iter().map(|q| q.node));
        let logits = serve(&mut server, &nodes);
        let done = Instant::now();
        for (j, q) in batch.iter().enumerate() {
            latency.record(done.saturating_duration_since(q.arrival));
            if let Some(tx) = &q.reply {
                // A vanished client is not the shard's problem.
                let _ = tx.send(logits.row(j).to_vec());
            }
        }
        queries += batch.len() as u64;
        batches += 1;
        max_batch_seen = max_batch_seen.max(batch.len());
        bns_telemetry::histogram_record("serve.batch_size", batch.len() as f64);
    }
    ShardReport {
        rank: server.rank(),
        queries,
        batches,
        max_batch_seen,
        latency,
        cache: server.cache_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_gcn::engine::TrainedModel;
    use bns_nn::SageModel;
    use bns_partition::{MetisLikePartitioner, Partitioner};
    use bns_tensor::SeededRng;
    use std::sync::mpsc::RecvTimeoutError;

    fn plan(k: usize) -> (bns_data::Dataset, ServePlan) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(300).generate(23);
        let part = MetisLikePartitioner::default().partition(&ds.graph, k, 0);
        let mut rng = SeededRng::new(8);
        let model = TrainedModel::Sage(SageModel::new(
            &[ds.feat_dim(), 8, ds.num_classes],
            0.0,
            &mut rng,
        ));
        let p = ServePlan::build(&ds, &part, model);
        (ds, p)
    }

    #[test]
    fn engine_answers_every_query_and_replies_match_reference() {
        let (ds, plan) = plan(4);
        let reference = plan.model.logits(&ds);
        let engine = ServeEngine::start(&plan, &ServeConfig::default());
        assert_eq!(engine.shards(), 4);
        let (tx, rx) = std::sync::mpsc::channel();
        let n_q = 120u32;
        let t0 = Instant::now();
        for i in 0..n_q {
            let node = (i * 7) % ds.num_nodes() as u32;
            assert!(engine.submit_query(Query {
                node,
                arrival: t0,
                reply: Some(tx.clone()),
            }));
        }
        drop(tx);
        // Collect all replies before shutdown so drain order is moot.
        let mut got = 0;
        while let Ok(row) = rx.recv() {
            assert_eq!(row.len(), plan.num_classes);
            got += 1;
            if got == n_q {
                break;
            }
        }
        let report = engine.shutdown();
        assert_eq!(report.latency.count(), n_q as usize);
        let total: u64 = report.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(total, n_q as u64, "no query dropped");
        assert!(report.avg_batch() >= 1.0);
        // Spot-check one reply against the full-graph reference.
        let mut server = plan.shard(0, CacheConfig::disabled());
        let v = (0..ds.num_nodes() as u32)
            .find(|&x| plan.owner_of(x) == 0)
            .unwrap();
        let out = server.serve_batch(&[v]);
        let want: Vec<u32> = reference
            .row(v as usize)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let got_bits: Vec<u32> = out.row(0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(got_bits, want);
    }

    #[test]
    fn out_of_range_node_is_rejected_at_admission() {
        let (ds, plan) = plan(2);
        let engine = ServeEngine::start(&plan, &ServeConfig::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        for node in [ds.num_nodes() as u32, u32::MAX] {
            assert!(!engine.submit(node, t0), "node {node} admitted");
            assert!(!engine.submit_query(Query {
                node,
                arrival: t0,
                reply: Some(tx.clone()),
            }));
        }
        drop(tx);
        assert!(rx.recv().is_err(), "a rejected query's reply disconnects");
        assert!(engine.submit(0, t0), "in-range queries still flow");
        assert_eq!(engine.shutdown().latency.count(), 1);
    }

    /// Through the `start_with` seam: every batch panics. The worker's
    /// exit guard must close and drain its queue, so pending replies
    /// disconnect and submitters get `false` instead of blocking on a
    /// queue nobody drains; `shutdown` still reports the panic.
    #[test]
    fn a_panicking_worker_strands_no_client() {
        let (ds, plan) = plan(2);
        let cfg = ServeConfig {
            policy: BatchPolicy::immediate(1),
            queue_capacity: 2,
            ..Default::default()
        };
        let engine = ServeEngine::start_with(&plan, &cfg, |_, _| panic!("injected serve failure"));
        let v = (0..ds.num_nodes() as u32)
            .find(|&x| plan.owner_of(x) == 0)
            .unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // The client runs on its own thread so a regression fails the
        // test by timeout instead of hanging the suite.
        let client = std::thread::spawn(move || {
            let (tx, rx) = std::sync::mpsc::channel();
            let t0 = Instant::now();
            for _ in 0..3 {
                // The first query kills the worker; the others are
                // queued (and then drained) or refused.
                engine.submit_query(Query {
                    node: v,
                    arrival: t0,
                    reply: Some(tx.clone()),
                });
            }
            drop(tx);
            assert!(rx.recv().is_err(), "no reply can arrive");
            // At most `queue_capacity` pushes fit before one would
            // block; the closed queue refuses them all.
            while engine.submit(v, t0) {}
            done_tx.send(()).expect("test alive");
            engine
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(60)) {
            panic!("client hung after its shard worker panicked");
        }
        let engine = client.join().expect("client thread panicked");
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.shutdown()));
        let err = joined.expect_err("shutdown must surface the worker panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("shard worker panicked"), "got {msg:?}");
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let (ds, plan) = plan(2);
        let cfg = ServeConfig {
            policy: BatchPolicy::immediate(8),
            ..Default::default()
        };
        let engine = ServeEngine::start(&plan, &cfg);
        let t0 = Instant::now();
        for v in 0..ds.num_nodes() as u32 {
            assert!(engine.submit(v, t0));
        }
        let report = engine.shutdown();
        assert_eq!(report.latency.count(), ds.num_nodes());
        assert!(report.elapsed > Duration::ZERO);
    }
}
