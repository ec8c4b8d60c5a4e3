//! The full evaluation suite: one identifier per paper workload, with the
//! default scaled parameters used by the benchmark harness.

use std::sync::OnceLock;

use tiering_trace::Workload;

use crate::cachelib::{CacheLibConfig, CacheLibWorkload};
use crate::gap::{BfsWorkload, CcWorkload, Graph, GraphKind, PrWorkload};
use crate::memo::{memoized, Memo};
use crate::silo::{SiloConfig, SiloWorkload};
use crate::spec::{BwavesWorkload, RomsWorkload};
use crate::xgboost::{XgboostConfig, XgboostWorkload};

/// The twelve workloads of paper Table 2 / Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// CacheLib content-delivery-network workload.
    CdnCacheLib,
    /// CacheLib social-graph workload.
    SocialCacheLib,
    /// GAP breadth-first search on the Kronecker graph.
    BfsKron,
    /// GAP breadth-first search on the uniform-random graph.
    BfsUniform,
    /// GAP connected components on the Kronecker graph.
    CcKron,
    /// GAP connected components on the uniform-random graph.
    CcUniform,
    /// GAP PageRank on the Kronecker graph.
    PrKron,
    /// GAP PageRank on the uniform-random graph.
    PrUniform,
    /// SPEC CPU 2017 603.bwaves proxy.
    Bwaves,
    /// SPEC CPU 2017 654.roms proxy.
    Roms,
    /// Silo under YCSB-C.
    Silo,
    /// XGBoost training on Criteo-like data.
    Xgboost,
}

impl WorkloadId {
    /// All workloads, in the paper's figure order.
    pub const ALL: [WorkloadId; 12] = [
        WorkloadId::CdnCacheLib,
        WorkloadId::SocialCacheLib,
        WorkloadId::BfsKron,
        WorkloadId::BfsUniform,
        WorkloadId::CcKron,
        WorkloadId::CcUniform,
        WorkloadId::PrKron,
        WorkloadId::PrUniform,
        WorkloadId::Bwaves,
        WorkloadId::Roms,
        WorkloadId::Silo,
        WorkloadId::Xgboost,
    ];

    /// Short label matching the paper's figure axes.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadId::CdnCacheLib => "CDN",
            WorkloadId::SocialCacheLib => "social",
            WorkloadId::BfsKron => "BFS-K",
            WorkloadId::BfsUniform => "BFS-U",
            WorkloadId::CcKron => "CC-K",
            WorkloadId::CcUniform => "CC-U",
            WorkloadId::PrKron => "PR-K",
            WorkloadId::PrUniform => "PR-U",
            WorkloadId::Bwaves => "bwave",
            WorkloadId::Roms => "roms",
            WorkloadId::Silo => "silo",
            WorkloadId::Xgboost => "XGBoost",
        }
    }

    /// Whether the workload is request-driven (latency/throughput metrics)
    /// as opposed to batch (runtime metric).
    #[cfg(test)]
    fn is_request_driven(self) -> bool {
        matches!(
            self,
            WorkloadId::CdnCacheLib | WorkloadId::SocialCacheLib | WorkloadId::Silo
        )
    }
}

/// Graph generation parameters shared by the GAP workloads
/// (2^17 nodes × 16 edges/node — the paper's 2³¹ × 4, scaled ~16 000×).
pub(crate) const GAP_SCALE: u32 = 17;
pub(crate) const GAP_EDGE_FACTOR: u32 = 16;

fn gap_graph(kind: GraphKind, seed: u64) -> Graph {
    // Generation (RMAT/uniform sampling, vertex permutation, the CSR
    // counting sort; no uniform edge list, `u32` offsets) dominates GAP
    // suite construction and is deterministic in `(kind, seed)` at the
    // fixed suite scale, so build each graph once process-wide and hand out
    // clones — they share its immutable CSR arrays, so a clone copies no
    // graph data.
    static GRAPHS: Memo<(GraphKind, u64), Graph> = OnceLock::new();
    memoized(&GRAPHS, (kind, seed), || match kind {
        GraphKind::Kronecker => Graph::kronecker(GAP_SCALE, GAP_EDGE_FACTOR, seed),
        GraphKind::UniformRandom => Graph::uniform(GAP_SCALE, GAP_EDGE_FACTOR, seed),
    })
}

/// Receiver for [`visit_workload`]: `visit` is called with the *concretely
/// typed* generator for a [`WorkloadId`]. The product reaches it only through
/// [`build_workload`], which boxes the result; its other caller is the host
/// benchmark's ledger (`benchmark/src/ledger.rs`, frozen between benchmark
/// changes), which times the typed engine entries. Both uses end when that
/// ledger steps the engine's own `SimRun`.
pub trait WorkloadVisitor {
    /// The visit result.
    type Out;
    /// Called with the built generator (same construction as
    /// [`build_workload`]).
    fn visit<W: Workload + 'static>(self, workload: W) -> Self::Out;
}

/// Builds the workload for `id` with the suite's default scaled parameters
/// and passes it, concretely typed, to `visitor`; [`build_workload`] boxes
/// it. See [`WorkloadVisitor`] for why both remain.
pub fn visit_workload<V: WorkloadVisitor>(id: WorkloadId, seed: u64, visitor: V) -> V::Out {
    match id {
        WorkloadId::CdnCacheLib => {
            visitor.visit(CacheLibWorkload::new(CacheLibConfig::cdn().with_seed(seed)))
        }
        WorkloadId::SocialCacheLib => visitor.visit(CacheLibWorkload::new(
            CacheLibConfig::social_graph().with_seed(seed),
        )),
        WorkloadId::BfsKron => visitor.visit(BfsWorkload::new(
            gap_graph(GraphKind::Kronecker, seed),
            4,
            seed ^ 1,
        )),
        WorkloadId::BfsUniform => visitor.visit(BfsWorkload::new(
            gap_graph(GraphKind::UniformRandom, seed),
            4,
            seed ^ 1,
        )),
        WorkloadId::CcKron => {
            visitor.visit(CcWorkload::new(gap_graph(GraphKind::Kronecker, seed), 6))
        }
        WorkloadId::CcUniform => visitor.visit(CcWorkload::new(
            gap_graph(GraphKind::UniformRandom, seed),
            6,
        )),
        WorkloadId::PrKron => {
            visitor.visit(PrWorkload::new(gap_graph(GraphKind::Kronecker, seed), 6))
        }
        WorkloadId::PrUniform => visitor.visit(PrWorkload::new(
            gap_graph(GraphKind::UniformRandom, seed),
            6,
        )),
        WorkloadId::Bwaves => visitor.visit(BwavesWorkload::new(96 << 20, 6)),
        WorkloadId::Roms => visitor.visit(RomsWorkload::new(1 << 20, 48, 4)),
        WorkloadId::Silo => visitor.visit(SiloWorkload::new(SiloConfig {
            seed,
            ..SiloConfig::default()
        })),
        WorkloadId::Xgboost => visitor.visit(XgboostWorkload::new(XgboostConfig {
            seed,
            ..XgboostConfig::default()
        })),
    }
}

/// Builds a workload with the suite's default scaled parameters.
///
/// Every generator is deterministic in `seed`, so policy comparisons can run
/// each policy against an identical access stream.
pub fn build_workload(id: WorkloadId, seed: u64) -> Box<dyn Workload> {
    struct BoxIt;
    impl WorkloadVisitor for BoxIt {
        type Out = Box<dyn Workload>;
        fn visit<W: Workload + 'static>(self, workload: W) -> Self::Out {
            Box::new(workload)
        }
    }
    visit_workload(id, seed, BoxIt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    #[test]
    fn gap_graph_clones_share_one_edge_array() {
        for kind in [GraphKind::Kronecker, GraphKind::UniformRandom] {
            // Seeds the other tests here build anyway.
            let (a, b) = (gap_graph(kind, 42), gap_graph(kind, 42));
            assert!(a.shares_csr(&b), "{kind:?}");
            assert!(!a.shares_csr(&gap_graph(kind, 97)), "{kind:?}");
        }
    }

    #[test]
    fn all_twelve_build_and_emit() {
        for id in WorkloadId::ALL {
            let mut w = build_workload(id, 42);
            assert!(!w.name().is_empty());
            assert!(w.footprint_bytes() > 0, "{id:?} empty footprint");
            let mut buf = Vec::new();
            let op = w.next_op(0, &mut buf);
            assert!(op.is_some(), "{id:?} emitted nothing");
            assert!(!buf.is_empty(), "{id:?} op without accesses");
            for a in &buf {
                assert!(
                    a.addr < w.footprint_bytes(),
                    "{id:?} access beyond footprint"
                );
            }
        }
    }

    /// Every `fill_batch` must emit exactly the operation stream that
    /// successive `next_op` calls would — same ops, same accesses, same
    /// order — across batch-size boundaries.
    #[test]
    fn fill_batch_equals_next_op_for_all_workloads() {
        use tiering_trace::AccessBatch;
        for id in WorkloadId::ALL {
            let mut batched = build_workload(id, 97);
            let mut scalar = build_workload(id, 97);
            let mut batch = AccessBatch::new();
            let mut scalar_buf = Vec::new();
            'stream: for round in 0..40 {
                batch.clear();
                let n = batched.fill_batch(0, 61, &mut batch);
                for i in 0..n {
                    let (op, s, e) = batch.op_bounds(i);
                    scalar_buf.clear();
                    let want_op = scalar.next_op(0, &mut scalar_buf);
                    assert_eq!(want_op, Some(op), "{id:?} round {round} op {i}: op meta");
                    assert_eq!(
                        scalar_buf.len(),
                        e - s,
                        "{id:?} round {round} op {i}: access count"
                    );
                    for (j, want) in scalar_buf.iter().enumerate() {
                        assert_eq!(
                            batch.access(s + j),
                            *want,
                            "{id:?} round {round} op {i} access {j}"
                        );
                    }
                }
                if n == 0 {
                    assert!(
                        scalar.next_op(0, &mut scalar_buf).is_none(),
                        "{id:?}: batch path exhausted early"
                    );
                    break 'stream;
                }
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn request_driven_classification() {
        assert!(WorkloadId::CdnCacheLib.is_request_driven());
        assert!(!WorkloadId::PrKron.is_request_driven());
    }

    #[test]
    fn footprints_are_scaled_but_nontrivial() {
        for id in [
            WorkloadId::CdnCacheLib,
            WorkloadId::Bwaves,
            WorkloadId::Xgboost,
        ] {
            let w = build_workload(id, 1);
            let pages = w.footprint_pages(PageSize::Base4K);
            assert!(
                pages > 10_000,
                "{id:?} only {pages} pages — too small for tiering to matter"
            );
            assert!(
                pages < 300_000,
                "{id:?} {pages} pages — too big to simulate"
            );
        }
    }
}
