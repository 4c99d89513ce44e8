//! The core compressed-sparse-row graph type and its builder.

use std::fmt;

/// An undirected simple graph in compressed-sparse-row form.
///
/// Node ids are `usize` in the public API; internally neighbor lists store
/// `u32`, which comfortably covers the graph sizes in this workspace while
/// halving memory traffic. Adjacency lists are sorted, enabling
/// binary-search edge queries and deterministic iteration.
///
/// Construct via [`GraphBuilder`] or [`CsrGraph::from_edges`].
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph {{ nodes: {}, edges: {} }}",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    /// Self-loops and duplicate edges are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// A graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            indptr: vec![0; n + 1],
            indices: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: usize) -> usize {
        self.indptr[v + 1] - self.indptr[v]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.indices[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Average degree (`2m / n`); zero for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.indices.len() as f64 / self.num_nodes() as f64
        }
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The raw CSR index pointer array (length `n + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw CSR adjacency array (length `2m`).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The node-induced subgraph on `nodes`.
    ///
    /// Returns a [`Subgraph`] holding the new graph plus the
    /// local-to-global mapping. `nodes` may be in any order; local ids
    /// follow the given order. Duplicate entries panic.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-bounds ids.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Subgraph {
        let n_total = self.num_nodes();
        // usize::MAX marks "not in the subgraph".
        let mut global_to_local = vec![usize::MAX; n_total];
        for (local, &g) in nodes.iter().enumerate() {
            assert!(g < n_total, "induced_subgraph: node {g} out of bounds");
            assert!(
                global_to_local[g] == usize::MAX,
                "induced_subgraph: duplicate node {g}"
            );
            global_to_local[g] = local;
        }
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        for &g in nodes {
            let start = indices.len();
            for &nb in self.neighbors(g) {
                let l = global_to_local[nb as usize];
                if l != usize::MAX {
                    indices.push(l as u32);
                }
            }
            indices[start..].sort_unstable();
            indptr.push(indices.len());
        }
        Subgraph {
            graph: CsrGraph { indptr, indices },
            local_to_global: nodes.to_vec(),
        }
    }

    /// An order-preserving message-flow block on `nodes`.
    ///
    /// Returns a graph of `nodes.len()` nodes (local id `i` is
    /// `nodes[i]`) whose first `n_dst` rows are the parent's neighbor
    /// lists of `nodes[..n_dst]`, mapped to local ids **in the parent's
    /// order**; the remaining rows are empty. A kernel that walks a
    /// block row therefore visits the same neighbors in the same order
    /// as on the parent, which keeps every sum bitwise equal to the
    /// full-graph one. Unlike [`CsrGraph::induced_subgraph`], local
    /// rows are **not** id-sorted unless `nodes` is ascending, so
    /// [`CsrGraph::has_edge`] and [`CsrGraph::validate`] do not apply.
    ///
    /// `global_to_local` is caller-owned scratch: it is grown to the
    /// parent's size with `u32::MAX` ("absent") and is all-absent again
    /// on return, so one array serves every call.
    ///
    /// # Panics
    ///
    /// Panics if `n_dst > nodes.len()`, if `nodes` has duplicates or
    /// out-of-bounds ids, or if a neighbor of a destination row is not
    /// in `nodes`.
    pub fn block(&self, nodes: &[usize], n_dst: usize, global_to_local: &mut Vec<u32>) -> CsrGraph {
        assert!(n_dst <= nodes.len(), "block: n_dst exceeds node count");
        assert!(
            nodes.len() < u32::MAX as usize,
            "block: too many nodes for u32 ids"
        );
        if global_to_local.len() < self.num_nodes() {
            global_to_local.resize(self.num_nodes(), u32::MAX);
        }
        for (local, &g) in nodes.iter().enumerate() {
            assert!(global_to_local[g] == u32::MAX, "block: duplicate node {g}");
            global_to_local[g] = local as u32;
        }
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0usize);
        let n_edges: usize = nodes[..n_dst].iter().map(|&g| self.degree(g)).sum();
        let mut indices: Vec<u32> = Vec::with_capacity(n_edges);
        for &g in &nodes[..n_dst] {
            for &nb in self.neighbors(g) {
                let l = global_to_local[nb as usize];
                assert!(
                    l != u32::MAX,
                    "block: neighbor {nb} of {g} is not in the block"
                );
                indices.push(l);
            }
            indptr.push(indices.len());
        }
        indptr.resize(nodes.len() + 1, indices.len());
        for &g in nodes {
            global_to_local[g] = u32::MAX;
        }
        CsrGraph { indptr, indices }
    }

    /// Connected components; returns `(component_id_per_node,
    /// num_components)`.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = next;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    let v = v as usize;
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        (comp, next)
    }

    /// Checks internal invariants (sorted unique neighbor lists, symmetric
    /// adjacency, no self-loops). Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr endpoints invalid".into());
        }
        for v in 0..n {
            let nbrs = self.neighbors(v);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {v} not sorted-unique"));
                }
            }
            for &u in nbrs {
                let u = u as usize;
                if u >= n {
                    return Err(format!("edge endpoint {u} out of bounds"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v}, {u})"));
                }
            }
        }
        Ok(())
    }
}

/// The result of [`CsrGraph::induced_subgraph`]: the induced graph plus the
/// mapping from its local node ids back to the parent graph's ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The induced graph; node `i` corresponds to
    /// `local_to_global[i]` in the parent.
    pub graph: CsrGraph,
    /// Local-to-global node id mapping.
    pub local_to_global: Vec<usize>,
}

/// Incremental builder for [`CsrGraph`].
///
/// Accepts edges in any order, ignores self-loops, and deduplicates.
///
/// # Example
///
/// ```
/// use bns_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// b.add_edge(2, 2); // self-loop, ignored
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped;
    /// duplicates are removed at build time.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of bounds (n={})",
            self.n
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32));
    }

    /// Number of edges added so far (before dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR structure.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(self.n + 1);
        indptr.push(0usize);
        for d in &degree {
            indptr.push(indptr.last().unwrap() + d);
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            indices[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            indices[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each row was filled in ascending "other endpoint" order only for
        // the u side; the v side appends sources ascending too because
        // edges are sorted by (u, v). Rows may interleave the two though,
        // so sort each row to guarantee the sorted invariant.
        let g = CsrGraph { indptr, indices };
        let mut g = g;
        for v in 0..self.n {
            let (s, e) = (g.indptr[v], g.indptr[v + 1]);
            g.indices[s..e].sort_unstable();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn builder_dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 0);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(5, [(3, 1), (3, 0), (3, 4), (2, 3)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.degree(3), 4);
        assert!(g.has_edge(0, 3) && g.has_edge(3, 0));
        assert!(!g.has_edge(0, 1));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = path_graph(6);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // Triangle 0-1-2 plus pendant 3.
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let sub = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // the triangle survives
        assert_eq!(sub.local_to_global, vec![2, 0, 1]);
        // local 0 = global 2; its neighbors are global {0,1} = local {1,2}
        assert_eq!(sub.graph.neighbors(0), &[1, 2]);
        assert!(sub.graph.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        path_graph(3).induced_subgraph(&[0, 0]);
    }

    #[test]
    fn block_keeps_parent_order_and_leaves_source_rows_empty() {
        // Star around 2 plus the edge 3-4.
        let g = CsrGraph::from_edges(5, [(2, 0), (2, 1), (2, 3), (3, 4)]);
        let mut scratch = Vec::new();
        // Local order is deliberately not ascending: 2 -> 0, 3 -> 1,
        // 1 -> 2, 0 -> 3, 4 -> 4.
        let b = g.block(&[2, 3, 1, 0, 4], 2, &mut scratch);
        assert_eq!(b.num_nodes(), 5);
        // Parent row of 2 is [0, 1, 3] -> local [3, 2, 1]: parent order,
        // not re-sorted.
        assert_eq!(b.neighbors(0), &[3, 2, 1]);
        // Parent row of 3 is [2, 4] -> local [0, 4].
        assert_eq!(b.neighbors(1), &[0, 4]);
        for v in 2..5 {
            assert!(b.neighbors(v).is_empty(), "row {v} past n_dst");
        }
        assert_eq!(scratch.len(), 5);
        assert!(scratch.iter().all(|&l| l == u32::MAX), "scratch restored");
        // The scratch is reusable, and an ascending node set gives the
        // induced subgraph's rows.
        let b = g.block(&[0, 1, 2, 3], 3, &mut scratch);
        let sub = g.induced_subgraph(&[0, 1, 2, 3]);
        for v in 0..3 {
            assert_eq!(b.neighbors(v), sub.graph.neighbors(v));
        }
    }

    #[test]
    #[should_panic(expected = "not in the block")]
    fn block_rejects_a_neighbor_outside_the_node_set() {
        // Node 1's neighbor 2 is missing.
        path_graph(3).block(&[1, 0], 1, &mut Vec::new());
    }

    #[test]
    fn connected_components_counts() {
        let g = CsrGraph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let (comp, k) = g.connected_components();
        assert_eq!(k, 3); // {0,1,2}, {3}, {4,5}
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.validate().is_ok());
        let g0 = CsrGraph::empty(0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn average_degree_of_path() {
        let g = path_graph(5);
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }
}
