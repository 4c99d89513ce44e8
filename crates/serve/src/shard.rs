//! The per-rank shard server: exact L-hop minibatch inference over a
//! partition-sharded feature store.
//!
//! ## Sharding model
//!
//! Serving splits state the same way BNS-GCN training does: node
//! features are *sharded* by partition (each rank's store holds only
//! the rows it owns — the expensive part at production scale), while
//! graph topology, normalizers and the trained weights are *replicated*
//! (weights are a few MB and immutable at serve time; see DESIGN.md
//! §11 for the coherence argument). A query for node `v` is routed to
//! the rank that owns `v`.
//!
//! ## Exactness
//!
//! A batch is answered by expanding the L-hop BFS closure of its target
//! nodes (`L` = model depth), gathering input features for the whole
//! closure, and running each layer on a per-layer *block*. The closure
//! is ordered by BFS distance (targets, then distance 1, …, then
//! distance `L`, each bucket ascending by global id), so the nodes
//! within `d` hops are a prefix of it. Layer `l` (0-based) reads the
//! prefix within `L - l` hops and writes only the prefix within
//! `L - 1 - l` hops: a node at distance `d` is needed at layer `l` only
//! if `d < L - l`, and all its neighbors are then within `L - l` hops,
//! so every row a layer writes sees its complete neighborhood. The
//! last layer writes only the targets.
//!
//! This reproduces full-graph logits *bitwise*. Each block is built by
//! [`CsrGraph::block`], which maps a node's full-graph neighbor list to
//! local ids in the full graph's order, so every aggregation sums the
//! same values in the same order as the full-graph kernel, and the
//! dense kernels are row-independent. Rows at distance `L` contribute
//! only their layer-0 input features, which are exact by construction.
//! The unit tests below and `tests/determinism.rs` assert this for
//! SAGE, GCN and GAT at 2 and 3 layers against
//! [`TrainedModel::predict_logits`].
//!
//! ## Feature I/O
//!
//! Rows the shard owns are read straight from its store. Rows owned by
//! other ranks go through the [`BoundaryCache`]; a miss reads the
//! owner's store and is accounted as fetched bytes — the quantity BGL
//! identifies as the serving bottleneck, and the quantity the cache
//! ratio sweep in `repro serve` trades against memory.

use crate::cache::{BoundaryCache, CacheConfig, CacheStats};
use bns_data::Dataset;
use bns_gcn::engine::TrainedModel;
use bns_gcn::plan::PartitionPlan;
use bns_graph::CsrGraph;
use bns_partition::Partitioning;
use bns_tensor::{Matrix, SeededRng};
use std::sync::Arc;

/// Everything shared by all shards of one serving deployment. Build it
/// once, then spawn one [`ShardServer`] per rank.
#[derive(Debug)]
pub struct ServePlan {
    /// Number of shards (partitions).
    pub k: usize,
    /// Replicated full-graph topology.
    pub graph: Arc<CsrGraph>,
    /// Trained weights (immutable at serve time; replicated).
    pub model: Arc<TrainedModel>,
    /// `owner[v]` = rank owning global node `v`.
    pub owner: Arc<Vec<u32>>,
    /// `local_row[v]` = row of `v` inside its owner's store.
    pub local_row: Arc<Vec<u32>>,
    /// Per-rank feature stores (rank `r` owns `stores[r]`; a read of
    /// another rank's store models a remote fetch and must go through
    /// the cache/fetch path).
    pub stores: Arc<Vec<Matrix>>,
    /// Replicated mean-aggregator normalizer `1/deg(v)` (SAGE).
    pub mean_scale: Arc<Vec<f32>>,
    /// Replicated GCN normalizer `1/sqrt(deg+1)`.
    pub gcn_scale: Arc<Vec<f32>>,
    /// Per rank: that shard's static boundary set ordered by descending
    /// full-graph degree (ties broken by ascending id) — the pinning
    /// priority list.
    pub boundary_by_degree: Vec<Arc<Vec<u32>>>,
    /// Number of output classes.
    pub num_classes: usize,
}

impl ServePlan {
    /// Builds the deployment state for `ds` partitioned by `part`,
    /// serving `model`.
    ///
    /// # Panics
    ///
    /// Panics if the partitioning does not cover the dataset or the
    /// model's input dimension does not match the features.
    pub fn build(ds: &Dataset, part: &Partitioning, model: TrainedModel) -> Self {
        assert_eq!(
            model.feat_dim(),
            ds.feat_dim(),
            "model input dim does not match dataset features"
        );
        let plan = PartitionPlan::build(ds, part);
        let n = ds.num_nodes();
        let mut owner = vec![0u32; n];
        let mut local_row = vec![0u32; n];
        let mut stores = Vec::with_capacity(plan.k);
        let mut boundary_by_degree = Vec::with_capacity(plan.k);
        for p in &plan.parts {
            for (li, &v) in p.inner.iter().enumerate() {
                owner[v] = p.rank as u32;
                local_row[v] = li as u32;
            }
            stores.push(p.features.clone());
            let mut bd: Vec<u32> = p.boundary.iter().map(|&v| v as u32).collect();
            // Descending degree, ascending id on ties: a total order, so
            // the pin set is deterministic.
            bd.sort_unstable_by_key(|&v| (usize::MAX - ds.graph.degree(v as usize), v));
            boundary_by_degree.push(Arc::new(bd));
        }
        ServePlan {
            k: plan.k,
            graph: Arc::new(ds.graph.clone()),
            num_classes: model.num_classes(),
            model: Arc::new(model),
            owner: Arc::new(owner),
            local_row: Arc::new(local_row),
            stores: Arc::new(stores),
            mean_scale: Arc::new(ds.mean_scale()),
            gcn_scale: Arc::new(ds.gcn_scale()),
            boundary_by_degree,
        }
    }

    /// The rank a query for `node` must be routed to.
    pub fn owner_of(&self, node: u32) -> usize {
        self.owner[node as usize] as usize
    }

    /// Instantiates rank `rank`'s server with its boundary cache sized
    /// and pinned per `cfg`.
    pub fn shard(&self, rank: usize, cfg: CacheConfig) -> ShardServer {
        assert!(rank < self.k, "rank {rank} out of range");
        let dim = self.stores[rank].cols();
        let n_boundary = self.boundary_by_degree[rank].len();
        let slots = cfg.slots(n_boundary).min(self.graph.num_nodes());
        let pinned = cfg.pinned(slots);
        let mut cache = BoundaryCache::new(slots, pinned, dim, self.graph.num_nodes());
        let owner = &self.owner;
        let local_row = &self.local_row;
        let stores = &self.stores;
        cache.pin(&self.boundary_by_degree[rank], |g| {
            stores[owner[g as usize] as usize].row(local_row[g as usize] as usize)
        });
        ShardServer {
            rank,
            depth: self.model.num_layers(),
            graph: Arc::clone(&self.graph),
            model: Arc::clone(&self.model),
            owner: Arc::clone(&self.owner),
            local_row: Arc::clone(&self.local_row),
            stores: Arc::clone(&self.stores),
            mean_scale: Arc::clone(&self.mean_scale),
            gcn_scale: Arc::clone(&self.gcn_scale),
            cache,
            epoch: 0,
            mark: vec![0u32; self.graph.num_nodes()],
            closure: Vec::new(),
            ends: Vec::new(),
            local: Vec::new(),
        }
    }
}

/// One rank's serving state: shared deployment handles, a private
/// boundary cache, and reusable BFS scratch. Answers batches
/// synchronously via [`ShardServer::serve_batch`]; the worker pool in
/// [`crate::worker`] drives one of these per rank.
#[derive(Debug)]
pub struct ShardServer {
    rank: usize,
    depth: usize,
    graph: Arc<CsrGraph>,
    model: Arc<TrainedModel>,
    owner: Arc<Vec<u32>>,
    local_row: Arc<Vec<u32>>,
    stores: Arc<Vec<Matrix>>,
    mean_scale: Arc<Vec<f32>>,
    gcn_scale: Arc<Vec<f32>>,
    cache: BoundaryCache,
    /// Batch stamp for the `mark` array (epoch-stamped visited set — a
    /// dense array instead of a hash set on the hot path).
    epoch: u32,
    mark: Vec<u32>,
    /// The batch's closure in BFS-distance order (see `expand_closure`).
    closure: Vec<usize>,
    /// `ends[d]` = number of closure nodes within `d` hops.
    ends: Vec<usize>,
    /// Global→local scratch for [`CsrGraph::block`]; all `u32::MAX`
    /// between calls.
    local: Vec<u32>,
}

impl ShardServer {
    /// This server's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Snapshot of the boundary-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// L-hop BFS closure of `targets` into `self.closure`, ordered by
    /// BFS distance: the targets, then distance 1, …, then distance
    /// `L`, each bucket sorted by ascending global id. `self.ends[d]`
    /// is the end of bucket `d`, so the first `ends[d]` closure rows are
    /// exactly the nodes within `d` hops. Duplicates in `targets` are
    /// fine.
    fn expand_closure(&mut self, targets: &[u32]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrapped: stamp 0 means "unvisited", so reset.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.closure.clear();
        self.ends.clear();
        for &t in targets {
            let ti = t as usize;
            if self.mark[ti] != self.epoch {
                self.mark[ti] = self.epoch;
                self.closure.push(ti);
            }
        }
        self.closure.sort_unstable();
        self.ends.push(self.closure.len());
        // The previous bucket is the BFS frontier.
        let mut lo = 0;
        for _ in 0..self.depth {
            let hi = self.closure.len();
            for i in lo..hi {
                for &u in self.graph.neighbors(self.closure[i]) {
                    let ui = u as usize;
                    if self.mark[ui] != self.epoch {
                        self.mark[ui] = self.epoch;
                        self.closure.push(ui);
                    }
                }
            }
            self.closure[hi..].sort_unstable();
            self.ends.push(self.closure.len());
            lo = hi;
        }
    }

    /// Gathers input features for every closure row: owned rows from
    /// this shard's store, remote rows through the cache (miss = a
    /// fetch from the owning shard's store, counted in bytes).
    fn gather_features(&mut self) -> Matrix {
        let dim = self.stores[self.rank].cols();
        let mut h0 = Matrix::zeros(self.closure.len(), dim);
        for (i, &g) in self.closure.iter().enumerate() {
            let owner = self.owner[g] as usize;
            if owner == self.rank {
                h0.row_mut(i)
                    .copy_from_slice(self.stores[owner].row(self.local_row[g] as usize));
            } else if let Some(row) = self.cache.lookup(g as u32) {
                h0.row_mut(i).copy_from_slice(row);
            } else {
                let row = self.stores[owner].row(self.local_row[g] as usize);
                h0.row_mut(i).copy_from_slice(row);
                self.cache.admit(g as u32, row);
            }
        }
        h0
    }

    /// Answers one batch: logits for `targets` in request order
    /// (`targets.len() x num_classes`), bitwise equal to the rows of
    /// [`TrainedModel::logits`] on the full graph.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or an out-of-range node id.
    pub fn serve_batch(&mut self, targets: &[u32]) -> Matrix {
        assert!(!targets.is_empty(), "empty batch");
        self.expand_closure(targets);
        let mut h = self.gather_features();
        let scale: Vec<f32> = match &*self.model {
            TrainedModel::Sage(_) => self.closure.iter().map(|&g| self.mean_scale[g]).collect(),
            TrainedModel::Gcn(_) => self.closure.iter().map(|&g| self.gcn_scale[g]).collect(),
            TrainedModel::Gat(_) => Vec::new(),
        };
        // Eval-mode forward: dropout off, so the RNG stream is inert —
        // a fresh fixed-seed RNG keeps the call deterministic anyway.
        let mut rng = SeededRng::new(0);
        let depth = self.depth;
        for l in 0..depth {
            // Layer `l` feeds the nodes within `depth - 1 - l` hops and
            // reads their neighbors, the nodes within `depth - l` hops.
            let (n_in, n_out) = (self.ends[depth - l], self.ends[depth - 1 - l]);
            let block = self
                .graph
                .block(&self.closure[..n_in], n_out, &mut self.local);
            h = match &*self.model {
                TrainedModel::Sage(m) => {
                    let scale = &scale[..n_out];
                    m.layers[l]
                        .forward(&block, &h, n_out, scale, false, &mut rng)
                        .0
                }
                TrainedModel::Gat(m) => m.layers[l].forward(&block, &h, n_out, false, &mut rng).0,
                // `gcn_aggregate` scales every neighbor, so its
                // normalizer covers the layer's input rows.
                TrainedModel::Gcn(layers) => {
                    let scale = &scale[..n_in];
                    layers[l]
                        .forward(&block, &h, n_out, scale, false, &mut rng)
                        .0
                }
            };
        }
        // Route each target (request order, duplicates allowed) to its
        // row in the target bucket.
        let bucket = &self.closure[..self.ends[0]];
        let rows: Vec<usize> = targets
            .iter()
            .map(|&t| {
                bucket
                    .binary_search(&(t as usize))
                    .expect("target is in its own closure")
            })
            .collect();
        h.gather_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::SyntheticSpec;
    use bns_gcn::engine::TrainedModel;
    use bns_nn::SageModel;
    use bns_partition::{MetisLikePartitioner, Partitioner};

    fn setup(k: usize) -> (Dataset, ServePlan) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(400).generate(11);
        let part = MetisLikePartitioner::default().partition(&ds.graph, k, 1);
        let mut rng = SeededRng::new(4);
        let model = TrainedModel::Sage(SageModel::new(
            &[ds.feat_dim(), 16, ds.num_classes],
            0.0,
            &mut rng,
        ));
        let plan = ServePlan::build(&ds, &part, model);
        (ds, plan)
    }

    #[test]
    fn plan_shards_every_node_exactly_once() {
        let (ds, plan) = setup(4);
        assert_eq!(plan.k, 4);
        let total_rows: usize = plan.stores.iter().map(Matrix::rows).sum();
        assert_eq!(total_rows, ds.num_nodes());
        for v in 0..ds.num_nodes() {
            let r = plan.owner_of(v as u32);
            let row = plan.stores[r].row(plan.local_row[v] as usize);
            assert_eq!(row, ds.features.row(v), "store row of node {v}");
        }
        // Pinning order is degree-sorted.
        for bd in &plan.boundary_by_degree {
            for w in bd.windows(2) {
                assert!(
                    ds.graph.degree(w[0] as usize) >= ds.graph.degree(w[1] as usize),
                    "pin list not degree-descending"
                );
            }
        }
    }

    #[test]
    fn serve_batch_matches_full_graph_logits() {
        let (ds, plan) = setup(4);
        let reference = plan.model.logits(&ds);
        for rank in 0..plan.k {
            let mut server = plan.shard(rank, CacheConfig::default());
            // Serve every node this shard owns, in a few batches.
            let mine: Vec<u32> = (0..ds.num_nodes() as u32)
                .filter(|&v| plan.owner_of(v) == rank)
                .collect();
            for chunk in mine.chunks(17) {
                let out = server.serve_batch(chunk);
                assert_eq!(out.cols(), plan.num_classes);
                for (j, &t) in chunk.iter().enumerate() {
                    let want: Vec<u32> = reference
                        .row(t as usize)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    let got: Vec<u32> = out.row(j).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "rank {rank} node {t}");
                }
            }
        }
    }

    #[test]
    fn duplicate_targets_get_identical_rows() {
        let (_ds, plan) = setup(2);
        let mut server = plan.shard(0, CacheConfig::disabled());
        let v = (0..plan.owner.len() as u32)
            .find(|&x| plan.owner_of(x) == 0)
            .unwrap();
        let out = server.serve_batch(&[v, v, v]);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), out.row(1));
        assert_eq!(out.row(1), out.row(2));
    }

    #[test]
    fn cache_counters_move_and_disabled_cache_still_counts_bytes() {
        let (ds, plan) = setup(4);
        let mine: Vec<u32> = (0..ds.num_nodes() as u32)
            .filter(|&v| plan.owner_of(v) == 0)
            .take(40)
            .collect();

        let mut cached = plan.shard(0, CacheConfig::default());
        for chunk in mine.chunks(8) {
            cached.serve_batch(chunk);
        }
        let cs = cached.cache_stats();
        assert!(cs.hits > 0, "repeated closures must hit the cache");

        let mut cold = plan.shard(0, CacheConfig::disabled());
        for chunk in mine.chunks(8) {
            cold.serve_batch(chunk);
        }
        let ns = cold.cache_stats();
        assert_eq!(ns.hits, 0);
        assert!(ns.misses > 0);
        assert!(
            ns.bytes_fetched > cs.bytes_fetched,
            "caching must reduce fetched bytes: {} vs {}",
            cs.bytes_fetched,
            ns.bytes_fetched
        );
    }
}
