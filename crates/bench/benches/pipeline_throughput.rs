//! End-to-end pipeline throughput: host ops/sec through `Engine::run` on a
//! fixed Zipf recipe.
//!
//! This is the number the hot-path data-layout work (SoA access batches,
//! word-level CBF ops, hoisted access-stage invariants, flat policy
//! metadata) moves. Reported per (policy, batch size) so both the batching
//! win and the per-policy ingest cost are visible. Results are
//! deterministic — the same recipe the `batch_equivalence` tests pin — so
//! only wall time varies between hosts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tiering_mem::{PageSize, TierConfig, TierRatio};
use tiering_policies::{build_policy, PolicyKind};
use tiering_sim::{Engine, SimConfig};
use tiering_trace::Workload;
use tiering_workloads::ZipfPageWorkload;

/// Ops per simulated run: long enough for steady-state placement, short
/// enough for a quick bench cycle.
const OPS: u64 = 100_000;

fn run_once(kind: PolicyKind, batch_ops: usize) {
    let mut w = ZipfPageWorkload::new(8_000, 0.99, OPS, 42);
    let pages = w.footprint_pages(PageSize::Base4K);
    let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
    let mut policy = build_policy(kind, &tier_cfg);
    let config = SimConfig::default()
        .with_max_ops(OPS)
        .with_batch_ops(batch_ops);
    black_box(Engine::new(config).run(&mut w, policy.as_mut(), tier_cfg));
}

fn bench_pipeline_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput");
    for kind in [
        PolicyKind::HybridTier,
        PolicyKind::Memtis,
        PolicyKind::FirstTouch,
    ] {
        group.bench_function(format!("{:?}_100k_ops_batch64", kind), |b| {
            b.iter(|| run_once(kind, 64))
        });
    }
    // Batch-size sensitivity on the paper's own policy: scalar pulls vs the
    // default batched pipeline.
    for batch in [1usize, 16, 256] {
        group.bench_function(format!("HybridTier_100k_ops_batch{batch}"), |b| {
            b.iter(|| run_once(PolicyKind::HybridTier, batch))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_pipeline_throughput
}
criterion_main!(benches);
