//! Microbenchmarks backing the paper's "lightweight" claims at the
//! data-structure level: CBF update/query cost vs. an exact hash table,
//! blocked vs. standard layout, and cooling cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hybridtier_cbf::{
    AccessCounter, BlockedCbf, CbfParams, CounterWidth, GroundTruthCounter, StandardCbf,
};

fn keys(n: usize) -> Vec<u64> {
    // Zipf-ish skew via squaring.
    (0..n as u64).map(|i| (i * i) % 10_000).collect()
}

fn bench_increment(c: &mut Criterion) {
    let params = CbfParams::for_capacity(100_000, 4, 0.001, CounterWidth::W4);
    let stream = keys(4096);
    let mut group = c.benchmark_group("increment");
    group.bench_function("blocked_cbf", |b| {
        let mut f = BlockedCbf::new(params.clone());
        b.iter(|| {
            for &k in &stream {
                black_box(f.increment(k));
            }
        })
    });
    // The per-counter reference path the word-level ops replaced: same
    // probes, but one indexed get/set per counter instead of a single
    // block load/store. The delta is the word-level payoff.
    group.bench_function("blocked_cbf_scalar_ref", |b| {
        let mut f = BlockedCbf::new(params.clone());
        b.iter(|| {
            for &k in &stream {
                black_box(f.increment_per_counter(k));
            }
        })
    });
    group.bench_function("standard_cbf", |b| {
        let mut f = StandardCbf::new(params.clone());
        b.iter(|| {
            for &k in &stream {
                black_box(f.increment(k));
            }
        })
    });
    group.bench_function("hash_table", |b| {
        let mut f = GroundTruthCounter::new(CounterWidth::W4);
        b.iter(|| {
            for &k in &stream {
                black_box(f.increment(k));
            }
        })
    });
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let params = CbfParams::for_capacity(100_000, 4, 0.001, CounterWidth::W4);
    let stream = keys(4096);
    let mut blocked = BlockedCbf::new(params.clone());
    let mut standard = StandardCbf::new(params);
    for &k in &stream {
        blocked.increment(k);
        standard.increment(k);
    }
    let mut group = c.benchmark_group("estimate");
    group.bench_function("blocked_cbf", |b| {
        b.iter(|| {
            for &k in &stream {
                black_box(blocked.estimate(k));
            }
        })
    });
    group.bench_function("blocked_cbf_scalar_ref", |b| {
        b.iter(|| {
            for &k in &stream {
                black_box(blocked.estimate_per_counter(k));
            }
        })
    });
    group.bench_function("standard_cbf", |b| {
        b.iter(|| {
            for &k in &stream {
                black_box(standard.estimate(k));
            }
        })
    });
    group.finish();
}

/// The fused GET+INCREMENT HybridTier's sample ingest uses (one block
/// visit) vs. the discrete estimate-then-increment pair it replaced.
fn bench_fused_increment(c: &mut Criterion) {
    let params = CbfParams::for_capacity(100_000, 4, 0.001, CounterWidth::W4);
    let stream = keys(4096);
    let mut group = c.benchmark_group("increment_with_prev");
    group.bench_function("fused", |b| {
        let mut f = BlockedCbf::new(params.clone());
        b.iter(|| {
            for &k in &stream {
                black_box(f.increment_with_prev(k));
            }
        })
    });
    group.bench_function("estimate_then_increment", |b| {
        let mut f = BlockedCbf::new(params.clone());
        b.iter(|| {
            for &k in &stream {
                black_box((f.estimate(k), f.increment(k)));
            }
        })
    });
    group.finish();
}

fn bench_cool(c: &mut Criterion) {
    let params = CbfParams::for_capacity(1_000_000, 4, 0.001, CounterWidth::W4);
    let mut f = BlockedCbf::new(params);
    for k in 0..100_000u64 {
        f.increment(k);
    }
    c.bench_function("cool_1m_element_cbf", |b| b.iter(|| f.cool()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_increment, bench_estimate, bench_fused_increment, bench_cool
}
criterion_main!(benches);
