//! GAP benchmark suite workloads: real graph kernels over generated graphs.
//!
//! The paper evaluates BFS, Connected Components, and PageRank over two
//! 2-billion-node graphs: a Kronecker (RMAT) graph and a uniform-random
//! graph, "the worst case in terms of locality" (paper §5.3). This module
//! generates both graph families (scaled down), stores them in CSR form laid
//! out in the simulated address space, and runs the *actual* kernels —
//! traversal order, convergence, and therefore page-access patterns are
//! real, not statistical sketches.
//!
//! The distinguishing behaviours the paper relies on emerge naturally:
//! * BFS is "single-source": each trial picks a new source, so the early
//!   frontier (and its pages) differ per trial — a shifting hot set.
//! * CC and PR are "whole-graph": every iteration touches the graph the same
//!   way — a stable hot set dominated by high-degree vertices' edge pages.
//! * The uniform-random graph flattens the degree distribution, shrinking
//!   the reusable hot set.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};

/// Which graph family to generate (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Kronecker/RMAT graph (skewed power-law degrees, like real social
    /// networks).
    Kronecker,
    /// Uniform-random (Erdős–Rényi-style) graph: every vertex equally likely
    /// to neighbour every other — the locality worst case.
    UniformRandom,
}

impl GraphKind {
    /// Short suffix used in workload names ("K" / "U", as in the paper's
    /// figure labels BFS-K, BFS-U, …).
    pub fn suffix(self) -> &'static str {
        match self {
            GraphKind::Kronecker => "K",
            GraphKind::UniformRandom => "U",
        }
    }
}

/// A directed graph in CSR form, laid out in the simulated address space.
/// The CSR arrays are immutable and shared, so a clone costs O(1).
#[derive(Debug, Clone)]
pub struct Graph {
    num_nodes: u32,
    offsets: Arc<[u32]>,
    edges: Arc<[u32]>,
    kind: GraphKind,
    offsets_region: Region,
    edges_region: Region,
    layout: LayoutBuilder,
}

/// RMAT quadrant probabilities used by GAP (A=0.57, B=0.19, C=0.19).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// The quadrant thresholds A, A+B and A+B+C, ascending.
const RMAT_SUMS: [f64; 3] = [RMAT_A, RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C];

/// The least raw draw `x` with `unit_f64(x) >= t`: `ceil(t·2⁵³) << 11`.
const fn raw(t: f64) -> u64 {
    ((t * (1u64 << 53) as f64).ceil() as u64) << 11
}

/// [`RMAT_SUMS`] as raw `next_u64` draws.
const RMAT_DRAWS: [u64; 3] = [raw(RMAT_SUMS[0]), raw(RMAT_SUMS[1]), raw(RMAT_SUMS[2])];

/// The RMAT quadrant `(u bit, v bit)` a raw draw `x` picks, branch-free:
/// (0, 0) below A, (0, 1) below A+B, (1, 0) below A+B+C, else (1, 1).
fn rmat_level(x: u64) -> (u32, u32) {
    let [b, c, d] = RMAT_DRAWS.map(|t| (x >= t) as u32);
    (c, (b & !c) | d)
}

/// `2^scale` vertices and `edge_factor` edges per vertex, refused before
/// anything is allocated if the edges overflow the `u32` CSR offsets.
fn csr_size(scale: u32, edge_factor: u32) -> (u32, usize) {
    let n = 1u32 << scale;
    let m = edge_factor as u64 * n as u64;
    assert!(m <= u32::MAX as u64, "{m} edges overflow u32 offsets");
    (n, m as usize)
}

/// `len` zeros that `fill` writes in place (a `Vec` is copied into an `Arc`).
fn csr_array(len: usize, fill: impl FnOnce(&mut [u32])) -> Arc<[u32]> {
    let mut array: Arc<[u32]> = std::iter::repeat_n(0, len).collect();
    fill(Arc::get_mut(&mut array).expect("a new Arc has no other owner"));
    array
}

impl Graph {
    /// Generates a Kronecker (RMAT) graph with `2^scale` nodes and
    /// `edge_factor * 2^scale` directed edges, with vertex ids randomly
    /// permuted (as GAP does) so graph locality is not an artifact of the
    /// generator.
    ///
    /// A level's quadrant is three integer comparisons of the raw draw, no
    /// float and no `if r < A … else if` chain. Exact: the float draw is
    /// `unit_f64(x) = (x >> 11)·2⁻⁵³` and scaling by 2⁵³ is exact, so
    /// `unit_f64(x) >= t` iff `x >> 11 >= ceil(t·2⁵³)` iff `x >= raw(t)`.
    /// Degrees are counted as edges are drawn; the permutation is applied in
    /// the scatter, edge `(u, v)` going to `next[u]++` as `perm[v]`.
    pub fn kronecker(scale: u32, edge_factor: u32, seed: u64) -> Self {
        let (n, m) = csr_size(scale, edge_factor);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut degree = vec![0u32; n as usize];
        let pairs: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..scale {
                    let (du, dv) = rmat_level(rng.next_u64());
                    (u, v) = ((u << 1) | du, (v << 1) | dv);
                }
                degree[u as usize] += 1;
                (u, v)
            })
            .collect();
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let permuted = pairs.iter().map(|&(u, v)| (u, perm[v as usize]));
        Self::from_degrees(GraphKind::Kronecker, degree, |u| perm[u] as usize, permuted)
    }

    /// Generates a uniform-random graph with `2^scale` nodes and
    /// `edge_factor * 2^scale` directed edges. No edge list is built: two
    /// passes over one reseeded stream, the first counting degrees, the
    /// second scattering each edge into its CSR slot.
    pub fn uniform(scale: u32, edge_factor: u32, seed: u64) -> Self {
        let (n, m) = csr_size(scale, edge_factor);
        let draws = || {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..m).map(move |_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        };
        let mut degree = vec![0u32; n as usize];
        draws().for_each(|(u, _)| degree[u as usize] += 1);
        Self::from_degrees(GraphKind::UniformRandom, degree, |u| u, draws())
    }

    /// Builds CSR by counting sort: `next` holds the out-degree of each
    /// source id `edges` names, `vertex` maps that id to its CSR vertex, and
    /// `next` then becomes each id's next edge slot, edge `(u, v)` going to
    /// `next[u]++` as `v`. The layout keeps 8 bytes per offset, as GAP does.
    fn from_degrees(
        kind: GraphKind,
        mut next: Vec<u32>,
        vertex: impl Fn(usize) -> usize,
        edges: impl ExactSizeIterator<Item = (u32, u32)>,
    ) -> Self {
        let (n, m) = (next.len(), edges.len());
        let offsets = csr_array(n + 1, |offsets| {
            for (u, &degree) in next.iter().enumerate() {
                offsets[vertex(u) + 1] = degree;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            for (u, slot) in next.iter_mut().enumerate() {
                *slot = offsets[vertex(u)];
            }
        });
        let edges = csr_array(m, |slots| {
            for (u, v) in edges {
                slots[next[u as usize] as usize] = v;
                next[u as usize] += 1;
            }
        });
        let mut layout = LayoutBuilder::new();
        let offsets_region = layout.alloc((n as u64 + 1) * 8);
        let edges_region = layout.alloc(m as u64 * 4);
        Self {
            num_nodes: n as u32,
            offsets,
            edges,
            kind,
            offsets_region,
            edges_region,
            layout,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Graph family.
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Out-neighbours of `u`.
    fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.edges[s..e]
    }

    /// Emits the accesses a kernel performs to read `u`'s adjacency: the
    /// offsets entry plus one access per 64-byte line of the edge slice.
    fn emit_adjacency(&self, u: u32, batch: &mut AccessBatch) {
        batch.push_access(Access::read(self.offsets_region.elem(u as u64, 8)));
        let mut byte = u64::from(self.offsets[u as usize]) * 4;
        let end = u64::from(self.offsets[u as usize + 1]) * 4;
        while byte < end {
            batch.push_access(Access::read(self.edges_region.addr(byte)));
            byte = (byte / 64 + 1) * 64;
        }
    }

    /// Clones the layout builder so kernels can append their own regions
    /// after the graph's.
    fn layout(&self) -> LayoutBuilder {
        self.layout.clone()
    }

    /// Bytes occupied by the CSR structure alone.
    pub fn csr_bytes(&self) -> u64 {
        self.layout.total_bytes()
    }
}

/// Breadth-first search: repeated single-source traversals from random
/// sources (GAP runs several trials; the hot set follows the frontier).
#[derive(Debug)]
pub struct BfsWorkload {
    graph: Graph,
    parent: Vec<u32>,
    parent_region: Region,
    queue: VecDeque<u32>,
    trials_remaining: u32,
    rng: SmallRng,
    /// Pages of the parent array left to clear before the next trial.
    reset_cursor: Option<u64>,
    footprint: u64,
    name: String,
}

const NO_PARENT: u32 = u32::MAX;

impl BfsWorkload {
    /// BFS over `graph` with `trials` random-source traversals.
    pub fn new(graph: Graph, trials: u32, seed: u64) -> Self {
        let mut layout = graph.layout();
        let parent_region = layout.alloc(graph.num_nodes() as u64 * 4);
        let name = format!("bfs-{}", graph.kind().suffix());
        Self {
            parent: vec![NO_PARENT; graph.num_nodes() as usize],
            parent_region,
            queue: VecDeque::new(),
            trials_remaining: trials,
            rng: SmallRng::seed_from_u64(seed),
            reset_cursor: Some(0),
            footprint: layout.total_bytes(),
            graph,
            name,
        }
    }

    /// One op: a page of the parent-array reset, or one vertex relaxation.
    fn step(&mut self, batch: &mut AccessBatch) -> Option<Op> {
        // Phase 1: clearing the parent array page by page before a trial.
        if let Some(page) = self.reset_cursor {
            let bytes = self.parent_region.bytes();
            let off = page * 4096;
            if off < bytes {
                batch.push_access(Access::write(self.parent_region.addr(off)));
                self.reset_cursor = Some(page + 1);
                return Some(Op::compute(200));
            }
            // Reset done: start the trial.
            self.reset_cursor = None;
            self.parent.fill(NO_PARENT);
            // GAP picks sources with outgoing edges (a zero-degree source
            // makes the trial trivial); bound the retries so a pathological
            // edgeless graph still terminates.
            let mut source = self.rng.gen_range(0..self.graph.num_nodes());
            for _ in 0..64 {
                if !self.graph.neighbors(source).is_empty() {
                    break;
                }
                source = self.rng.gen_range(0..self.graph.num_nodes());
            }
            self.parent[source as usize] = source;
            self.queue.push_back(source);
        }

        // Phase 2: one vertex relaxation per op.
        let u = match self.queue.pop_front() {
            Some(u) => u,
            None => {
                // Trial finished.
                if self.trials_remaining <= 1 {
                    return None;
                }
                self.trials_remaining -= 1;
                self.reset_cursor = Some(0);
                return self.step(batch);
            }
        };
        self.graph.emit_adjacency(u, batch);
        let neighbors = self.graph.neighbors(u);
        for &v in neighbors {
            batch.push_access(Access::read(self.parent_region.elem(v as u64, 4)));
            if self.parent[v as usize] == NO_PARENT {
                self.parent[v as usize] = u;
                batch.push_access(Access::write(self.parent_region.elem(v as u64, 4)));
                self.queue.push_back(v);
            }
        }
        Some(Op::compute(30 + neighbors.len() as u64 * 2))
    }
}

impl Workload for BfsWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| self.step(batch))
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

/// Connected components via synchronous label propagation
/// (Shiloach–Vishkin-style hooking without shortcutting): every iteration
/// sweeps all vertices — a whole-graph kernel with a stable hot set.
#[derive(Debug)]
pub struct CcWorkload {
    graph: Graph,
    comp: Vec<u32>,
    comp_region: Region,
    cursor: u32,
    iter: u32,
    max_iters: u32,
    changed: bool,
    footprint: u64,
    name: String,
}

impl CcWorkload {
    /// CC over `graph`, capped at `max_iters` label-propagation sweeps.
    pub fn new(graph: Graph, max_iters: u32) -> Self {
        let mut layout = graph.layout();
        let comp_region = layout.alloc(graph.num_nodes() as u64 * 4);
        let name = format!("cc-{}", graph.kind().suffix());
        Self {
            comp: (0..graph.num_nodes()).collect(),
            comp_region,
            cursor: 0,
            iter: 0,
            max_iters,
            changed: false,
            footprint: layout.total_bytes(),
            graph,
            name,
        }
    }
}

impl Workload for CcWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| {
            if self.iter >= self.max_iters {
                return None;
            }
            let u = self.cursor;
            self.graph.emit_adjacency(u, batch);
            batch.push_access(Access::read(self.comp_region.elem(u as u64, 4)));
            let mut min = self.comp[u as usize];
            let neighbors = self.graph.neighbors(u);
            for &v in neighbors {
                batch.push_access(Access::read(self.comp_region.elem(v as u64, 4)));
                min = min.min(self.comp[v as usize]);
            }
            if min < self.comp[u as usize] {
                self.comp[u as usize] = min;
                self.changed = true;
                batch.push_access(Access::write(self.comp_region.elem(u as u64, 4)));
            }

            self.cursor += 1;
            if self.cursor == self.graph.num_nodes() {
                self.cursor = 0;
                self.iter += 1;
                if !self.changed {
                    self.iter = self.max_iters; // converged
                }
                self.changed = false;
            }
            Some(Op::compute(30 + neighbors.len() as u64 * 2))
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

/// PageRank (push variant): per vertex, scatter `pr[u]/deg(u)` to all
/// out-neighbours' accumulators. Whole-graph, iteration-stable hot set.
#[derive(Debug)]
pub struct PrWorkload {
    graph: Graph,
    pr_region: Region,
    next_region: Region,
    cursor: u32,
    iter: u32,
    iters: u32,
    /// Page index of the end-of-iteration normalize/swap scan, if active.
    scan_cursor: Option<u64>,
    footprint: u64,
    name: String,
}

impl PrWorkload {
    /// PageRank over `graph` for exactly `iters` iterations (GAP runs PR for
    /// a fixed iteration count by default).
    pub fn new(graph: Graph, iters: u32) -> Self {
        let mut layout = graph.layout();
        let pr_region = layout.alloc(graph.num_nodes() as u64 * 4);
        let next_region = layout.alloc(graph.num_nodes() as u64 * 4);
        let name = format!("pr-{}", graph.kind().suffix());
        Self {
            pr_region,
            next_region,
            cursor: 0,
            iter: 0,
            iters,
            scan_cursor: None,
            footprint: layout.total_bytes(),
            graph,
            name,
        }
    }
}

impl Workload for PrWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| {
            if self.iter >= self.iters {
                return None;
            }
            // End-of-iteration pass: normalize `next` into `pr`, one page per op.
            if let Some(page) = self.scan_cursor {
                let off = page * 4096;
                if off < self.pr_region.bytes() {
                    batch.push_access(Access::read(self.next_region.addr(off)));
                    batch.push_access(Access::write(self.pr_region.addr(off)));
                    self.scan_cursor = Some(page + 1);
                    return Some(Op::compute(300));
                }
                self.scan_cursor = None;
                self.iter += 1;
                if self.iter >= self.iters {
                    return None;
                }
            }

            let u = self.cursor;
            self.graph.emit_adjacency(u, batch);
            batch.push_access(Access::read(self.pr_region.elem(u as u64, 4)));
            let neighbors = self.graph.neighbors(u);
            for &v in neighbors {
                batch.push_access(Access::write(self.next_region.elem(v as u64, 4)));
            }

            self.cursor += 1;
            if self.cursor == self.graph.num_nodes() {
                self.cursor = 0;
                self.scan_cursor = Some(0);
            }
            Some(Op::compute(30 + neighbors.len() as u64 * 2))
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    impl Graph {
        /// Out-degree of `u`.
        fn degree(&self, u: u32) -> u64 {
            self.neighbors(u).len() as u64
        }

        /// Whether `self` and `other` share their CSR arrays.
        pub(crate) fn shares_csr(&self, other: &Graph) -> bool {
            Arc::ptr_eq(&self.offsets, &other.offsets) && Arc::ptr_eq(&self.edges, &other.edges)
        }
    }

    impl CcWorkload {
        /// Number of distinct component labels at the current state.
        fn num_components(&self) -> usize {
            let mut labels: Vec<u32> = self.comp.clone();
            labels.sort_unstable();
            labels.dedup();
            labels.len()
        }
    }

    fn tiny_kron() -> Graph {
        Graph::kronecker(8, 8, 1)
    }

    /// The branch chain `Graph::kronecker` drew its quadrants with before
    /// `rmat_quadrant`; the reference both tests below compare against.
    fn chain_quadrant(r: f64) -> (u32, u32) {
        if r < RMAT_A {
            (0, 0)
        } else if r < RMAT_A + RMAT_B {
            (0, 1)
        } else if r < RMAT_A + RMAT_B + RMAT_C {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The float draw `rmat_level` replaced: three comparisons of
    /// `unit_f64(x)` with the `f64` thresholds.
    fn rmat_quadrant(r: f64) -> (u32, u32) {
        let b = (r >= RMAT_A) as u32;
        let c = (r >= RMAT_A + RMAT_B) as u32;
        let d = (r >= RMAT_A + RMAT_B + RMAT_C) as u32;
        (c, (b & !c) | d)
    }

    /// A generator that returns `x` forever, so `gen::<f64>()` is the
    /// vendored `unit_f64(x)`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    fn unit_f64(x: u64) -> f64 {
        Fixed(x).gen()
    }

    /// The CSR builder both graph families used before: an edge list,
    /// counted by source, prefix-summed and scattered.
    fn from_edge_list(n: u32, pairs: &[(u32, u32)], kind: GraphKind) -> Graph {
        let mut cursor = vec![0u64; n as usize + 1];
        for &(u, _) in pairs {
            cursor[u as usize + 1] += 1;
        }
        for i in 1..cursor.len() {
            cursor[i] += cursor[i - 1];
        }
        let offsets: Arc<[u32]> = cursor.iter().map(|&o| o as u32).collect();
        let mut edges = vec![0u32; pairs.len()];
        for &(u, v) in pairs {
            edges[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        let mut layout = LayoutBuilder::new();
        let offsets_region = layout.alloc((n as u64 + 1) * 8);
        let edges_region = layout.alloc(pairs.len() as u64 * 4);
        Graph {
            num_nodes: n,
            offsets,
            edges: edges.into(),
            kind,
            offsets_region,
            edges_region,
            layout,
        }
    }

    /// `Graph::kronecker` as it was: the branch chain per level, then the
    /// vertex permutation and the edge-list CSR build.
    fn kronecker_chain(scale: u32, edge_factor: u32, seed: u64) -> Graph {
        let n = 1u32 << scale;
        let m = (edge_factor as u64 * n as u64) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                let (du, dv) = chain_quadrant(rng.gen());
                u |= du;
                v |= dv;
            }
            pairs.push((u, v));
        }
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (u, v) in &mut pairs {
            *u = perm[*u as usize];
            *v = perm[*v as usize];
        }
        from_edge_list(n, &pairs, GraphKind::Kronecker)
    }

    /// `Graph::uniform` as it was: one pass into an edge list, then the
    /// edge-list CSR build.
    fn uniform_edge_list(scale: u32, edge_factor: u32, seed: u64) -> Graph {
        let n = 1u32 << scale;
        let m = (edge_factor as u64 * n as u64) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        from_edge_list(n, &pairs, GraphKind::UniformRandom)
    }

    fn assert_same_graph(a: &Graph, b: &Graph, label: &str) {
        assert_eq!(a.num_nodes, b.num_nodes, "{label}: nodes");
        assert_eq!(a.offsets, b.offsets, "{label}: offsets");
        assert_eq!(a.edges, b.edges, "{label}: edges");
        assert_eq!(a.csr_bytes(), b.csr_bytes(), "{label}: layout");
    }

    #[test]
    fn rmat_quadrant_matches_chain_at_every_threshold() {
        let mut draws = vec![0.0, 1.0f64.next_down()];
        for t in [RMAT_A, RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C] {
            draws.extend([t.next_down(), t, t.next_up()]);
        }
        for r in draws {
            assert_eq!(rmat_quadrant(r), chain_quadrant(r), "r = {r:e}");
        }
        // Each threshold itself already belongs to the next quadrant.
        assert_eq!(rmat_quadrant(RMAT_A), (0, 1));
        assert_eq!(rmat_quadrant(RMAT_A + RMAT_B), (1, 0));
        assert_eq!(rmat_quadrant(RMAT_A + RMAT_B + RMAT_C), (1, 1));
    }

    #[test]
    fn rmat_level_matches_float_draw_at_every_threshold() {
        let mut draws = vec![0, u64::MAX];
        for t in RMAT_DRAWS {
            draws.extend([t - 1, t, t + 1]);
        }
        for x in draws {
            assert_eq!(rmat_level(x), rmat_quadrant(unit_f64(x)), "x = {x:#x}");
        }
        // Each threshold is the first draw of the next quadrant.
        assert_eq!(RMAT_DRAWS.map(rmat_level), [(0, 1), (1, 0), (1, 1)]);
        assert_eq!(
            RMAT_DRAWS.map(|t| rmat_level(t - 1)),
            [(0, 0), (0, 1), (1, 0)]
        );
    }

    #[test]
    fn kronecker_matches_chain_oracle() {
        for scale in 0..=12 {
            for edge_factor in [1, 3, 16] {
                for seed in 0..8 {
                    assert_same_graph(
                        &Graph::kronecker(scale, edge_factor, seed),
                        &kronecker_chain(scale, edge_factor, seed),
                        &format!("scale {scale} × {edge_factor}, seed {seed}"),
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_matches_edge_list_oracle() {
        for scale in 0..=12 {
            for edge_factor in [1, 3, 16] {
                for seed in 0..8 {
                    assert_same_graph(
                        &Graph::uniform(scale, edge_factor, seed),
                        &uniform_edge_list(scale, edge_factor, seed),
                        &format!("scale {scale} × {edge_factor}, seed {seed}"),
                    );
                }
            }
        }
    }

    /// The suite's own graph size; seconds per build in a debug build, so
    /// CI runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "suite-scale graphs: run with --release -- --ignored"]
    fn suite_kronecker_matches_chain_oracle() {
        use crate::suite::{GAP_EDGE_FACTOR, GAP_SCALE};
        for seed in [1, 2] {
            assert_same_graph(
                &Graph::kronecker(GAP_SCALE, GAP_EDGE_FACTOR, seed),
                &kronecker_chain(GAP_SCALE, GAP_EDGE_FACTOR, seed),
                &format!("suite graph, seed {seed}"),
            );
        }
    }

    /// The uniform twin of `suite_kronecker_matches_chain_oracle`.
    #[test]
    #[ignore = "suite-scale graphs: run with --release -- --ignored"]
    fn suite_uniform_matches_edge_list_oracle() {
        use crate::suite::{GAP_EDGE_FACTOR, GAP_SCALE};
        for seed in [1, 2] {
            assert_same_graph(
                &Graph::uniform(GAP_SCALE, GAP_EDGE_FACTOR, seed),
                &uniform_edge_list(GAP_SCALE, GAP_EDGE_FACTOR, seed),
                &format!("suite graph, seed {seed}"),
            );
        }
    }

    /// 2 × (2³² − 1) edges: refused by `csr_size`, before the first
    /// allocation (the edge list alone would be 64 GiB).
    #[test]
    #[should_panic(expected = "edges overflow u32 offsets")]
    fn kronecker_refuses_more_edges_than_u32_offsets_hold() {
        Graph::kronecker(1, u32::MAX, 0);
    }

    /// The same refusal before the uniform builder's first pass.
    #[test]
    #[should_panic(expected = "edges overflow u32 offsets")]
    fn uniform_refuses_more_edges_than_u32_offsets_hold() {
        Graph::uniform(1, u32::MAX, 0);
    }

    #[test]
    fn kronecker_shape() {
        let g = tiny_kron();
        assert_eq!(g.num_nodes(), 256);
        assert_eq!(g.num_edges(), 2048);
        let total_degree: u64 = (0..256).map(|u| g.degree(u)).sum();
        assert_eq!(total_degree, 2048);
    }

    #[test]
    fn kronecker_is_skewed_uniform_is_not() {
        let k = Graph::kronecker(12, 16, 7);
        let u = Graph::uniform(12, 16, 7);
        let max_deg = |g: &Graph| (0..g.num_nodes()).map(|v| g.degree(v)).max().unwrap();
        // RMAT hubs should dwarf the uniform graph's max degree.
        assert!(
            max_deg(&k) > 4 * max_deg(&u),
            "kron {} vs uniform {}",
            max_deg(&k),
            max_deg(&u)
        );
    }

    #[test]
    fn csr_neighbors_consistent() {
        let g = tiny_kron();
        for u in 0..g.num_nodes() {
            assert_eq!(g.neighbors(u).len() as u64, g.degree(u));
            for &v in g.neighbors(u) {
                assert!(v < g.num_nodes());
            }
        }
    }

    #[test]
    fn graph_deterministic() {
        let a = Graph::kronecker(8, 8, 5);
        let b = Graph::kronecker(8, 8, 5);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn bfs_visits_reachable_component() {
        let g = tiny_kron();
        let mut bfs = BfsWorkload::new(g, 1, 3);
        let mut buf = Vec::new();
        while bfs.next_op(0, &mut buf).is_some() {
            buf.clear();
        }
        let visited = bfs.parent.iter().filter(|&&p| p != NO_PARENT).count();
        assert!(visited > 1, "BFS should reach beyond the source");
    }

    #[test]
    fn bfs_multi_trial_runs_to_completion() {
        let g = tiny_kron();
        let mut bfs = BfsWorkload::new(g, 3, 3);
        let mut buf = Vec::new();
        let mut ops = 0u64;
        while bfs.next_op(0, &mut buf).is_some() {
            buf.clear();
            ops += 1;
            assert!(ops < 1_000_000, "BFS failed to terminate");
        }
        assert!(ops > 256, "three trials should process many vertices");
    }

    #[test]
    fn cc_converges_and_labels_components() {
        // A graph of two disjoint 2-cliques has exactly... build manually.
        let pairs = vec![(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let g = from_edge_list(4, &pairs, GraphKind::UniformRandom);
        let mut cc = CcWorkload::new(g, 20);
        let mut buf = Vec::new();
        while cc.next_op(0, &mut buf).is_some() {
            buf.clear();
        }
        assert_eq!(cc.num_components(), 2);
        assert_eq!(cc.comp[0], cc.comp[1]);
        assert_eq!(cc.comp[2], cc.comp[3]);
        assert_ne!(cc.comp[0], cc.comp[2]);
    }

    #[test]
    fn pr_runs_fixed_iterations() {
        let g = tiny_kron();
        let n = g.num_nodes() as u64;
        let mut pr = PrWorkload::new(g, 2);
        let mut buf = Vec::new();
        let mut vertex_ops = 0u64;
        while pr.next_op(0, &mut buf).is_some() {
            buf.clear();
            vertex_ops += 1;
        }
        // 2 iterations × n vertices plus 2 normalize scans.
        assert!(vertex_ops >= 2 * n);
    }

    #[test]
    fn adjacency_accesses_hit_csr_regions() {
        let g = tiny_kron();
        let mut batch = AccessBatch::new();
        g.emit_adjacency(5, &mut batch);
        let buf = batch.addrs();
        assert!(!buf.is_empty());
        assert!(buf[0] >= g.offsets_region.base() && buf[0] < g.offsets_region.end());
        for &a in &buf[1..] {
            assert!(a >= g.edges_region.base() && a < g.edges_region.end());
        }
        // Edge-line accesses deduplicate to one per cache line.
        let lines: Vec<u64> = buf[1..].iter().map(|a| a / 64).collect();
        let mut dedup = lines.clone();
        dedup.dedup();
        assert_eq!(lines, dedup);
    }

    #[test]
    fn footprints_cover_kernel_arrays() {
        let g = tiny_kron();
        let csr = g.csr_bytes();
        let bfs = BfsWorkload::new(g, 1, 0);
        assert!(bfs.footprint_bytes() > csr);
        let pages = bfs.footprint_pages(PageSize::Base4K);
        assert_eq!(pages, bfs.footprint_bytes().div_ceil(4096));
    }
}
