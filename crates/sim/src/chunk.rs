//! Order-preserving reduction of chunked runs.
//!
//! A *chunked* run splits one scenario's operation stream into contiguous
//! op-range chunks, executes each chunk in its own engine (its own workload
//! instance, policy instance, and tiered memory — so chunks can run on
//! different threads with zero sharing), and reduces the per-chunk results
//! back into one [`SimReport`] in chunk order. The chunk plan is part of
//! the recipe: a chunked run is a *different* (equally deterministic)
//! experiment than the unchunked run of the same scenario, but for a fixed
//! plan the merged report is byte-identical regardless of how many worker
//! threads executed the chunks — that is the guarantee the runner's
//! `chunk_equivalence` tests pin.
//!
//! The reduction needs more than a [`SimReport`] per chunk: exact merged
//! latency percentiles require the full log-bucketed histogram (percentiles
//! do not compose), and the merged fast-hit fraction needs the raw hit
//! count (fractions do not either). [`CapturedRun`] carries both alongside
//! the ordinary report; [`Engine::run_captured`](crate::Engine::run_captured)
//! produces it at no extra cost (the pipeline owns the histogram anyway).

use crate::histo::LogHistogram;
use crate::report::{CacheTimelinePoint, LatencySummary, SimReport, TimelinePoint};

/// One chunk's result plus the raw aggregates a lossless merge needs.
#[derive(Debug, Clone)]
pub struct CapturedRun {
    /// The chunk's ordinary simulation report.
    pub report: SimReport,
    /// The whole-run latency histogram (exact merged percentiles).
    pub(crate) hist: LogHistogram,
    /// Raw fast-tier hit count (exact merged fast-hit fraction).
    pub(crate) fast_hits: u64,
}

impl CapturedRun {
    pub(crate) fn new(report: SimReport, hist: LogHistogram, fast_hits: u64) -> Self {
        Self {
            report,
            hist,
            fast_hits,
        }
    }
}

/// Reduces chunk results (in chunk order) into one [`SimReport`].
///
/// The merge treats the chunks as consecutive segments of one run:
///
/// * `ops` / `accesses` / `samples` and every migration counter are summed;
/// * `sim_ns` is the sum of chunk times, and each chunk's timeline is
///   shifted by the simulated time of the chunks before it, so the merged
///   timeline spans the whole run with strictly increasing window ends;
/// * the latency summary is recomputed from the merged histograms — exact,
///   not an approximation from per-chunk percentiles;
/// * `fast_hit_frac` is recomputed from summed hit and access counts;
/// * `metadata_bytes` is the maximum across chunks (each chunk built its
///   own policy instance; one instance's footprint is the run's footprint,
///   summing would count the copies).
///
/// Workload and policy names are taken from the first chunk.
///
/// # Panics
///
/// Panics if `chunks` is empty, or if any chunk ran with cache simulation
/// or a hotness probe enabled — those observers are whole-run state that
/// cannot be split at an op boundary, so chunked execution is defined only
/// for probe-free configurations (the runner falls back to one piece
/// otherwise).
pub fn merge_captured(chunks: &[CapturedRun]) -> SimReport {
    assert!(
        !chunks.is_empty(),
        "merge_captured needs at least one chunk"
    );
    let mut hist = LogHistogram::new();
    let mut timeline: Vec<TimelinePoint> = Vec::new();
    let mut cache_timeline: Vec<CacheTimelinePoint> = Vec::new();
    let mut ops = 0u64;
    let mut accesses = 0u64;
    let mut samples = 0u64;
    let mut sim_ns = 0u64;
    let mut fast_hits = 0u64;
    let mut migrations = tiering_mem::MigrationStats::default();
    let mut metadata_bytes = 0usize;
    for c in chunks {
        let r = &c.report;
        assert!(
            r.cache.is_none() && r.count_distribution.is_none() && r.retention.is_none(),
            "chunked execution is defined for probe-free configs only"
        );
        hist.merge(&c.hist);
        timeline.extend(r.timeline.iter().map(|p| TimelinePoint {
            t_ns: p.t_ns + sim_ns,
            ..*p
        }));
        cache_timeline.extend(r.cache_timeline.iter().map(|p| CacheTimelinePoint {
            t_ns: p.t_ns + sim_ns,
            ..*p
        }));
        ops += r.ops;
        accesses += r.accesses;
        samples += r.samples;
        sim_ns += r.sim_ns;
        fast_hits += c.fast_hits;
        migrations.promotions += r.migrations.promotions;
        migrations.demotions += r.migrations.demotions;
        migrations.allocated_fast += r.migrations.allocated_fast;
        migrations.allocated_slow += r.migrations.allocated_slow;
        migrations.failed_promotions += r.migrations.failed_promotions;
        metadata_bytes = metadata_bytes.max(r.metadata_bytes);
    }
    SimReport {
        workload: chunks[0].report.workload.clone(),
        policy: chunks[0].report.policy.clone(),
        ops,
        accesses,
        samples,
        sim_ns,
        latency: LatencySummary::from_histogram(&hist),
        timeline,
        cache_timeline,
        cache: None,
        migrations,
        fast_hit_frac: if accesses == 0 {
            0.0
        } else {
            fast_hits as f64 / accesses as f64
        },
        metadata_bytes,
        count_distribution: None,
        retention: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SimConfig};
    use tiering_mem::{LatencyModel, PageSize, TierConfig, TierRatio, TierTopology};
    use tiering_policies::{build_policy, PolicyKind};
    use tiering_trace::Workload;
    use tiering_workloads::ZipfPageWorkload;

    fn captured(seed: u64, ops: u64) -> CapturedRun {
        let mut w = ZipfPageWorkload::new(2_000, 0.99, ops, seed);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let topology = TierTopology::two_tier(tier_cfg, &LatencyModel::default());
        Engine::new(SimConfig::default()).run_captured(&mut w, policy.as_mut(), topology)
    }

    #[test]
    fn captured_report_matches_plain_run() {
        let c = captured(7, 20_000);
        let mut w = ZipfPageWorkload::new(2_000, 0.99, 20_000, 7);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(PolicyKind::HybridTier, &tier_cfg);
        let plain = Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg);
        assert_eq!(c.report, plain, "capture must not perturb the run");
        assert_eq!(c.hist.count(), plain.ops, "one histogram entry per op");
    }

    #[test]
    fn merge_sums_counters_and_offsets_timeline() {
        let a = captured(1, 60_000);
        let b = captured(2, 40_000);
        let merged = merge_captured(&[a.clone(), b.clone()]);
        assert_eq!(merged.ops, a.report.ops + b.report.ops);
        assert_eq!(merged.accesses, a.report.accesses + b.report.accesses);
        assert_eq!(merged.samples, a.report.samples + b.report.samples);
        assert_eq!(merged.sim_ns, a.report.sim_ns + b.report.sim_ns);
        assert_eq!(
            merged.migrations.promotions,
            a.report.migrations.promotions + b.report.migrations.promotions
        );
        assert_eq!(
            merged.timeline.len(),
            a.report.timeline.len() + b.report.timeline.len()
        );
        // Chunk b's windows land after all of chunk a's simulated time.
        assert!(merged
            .timeline
            .windows(2)
            .all(|w| w[0].t_ns < w[1].t_ns || w[0].t_ns >= a.report.sim_ns));
        let window_ops: u64 = merged.timeline.iter().map(|p| p.ops).sum();
        assert_eq!(window_ops, merged.ops, "every op falls in some window");
        // Exact merged mean: the histograms carry full sums, so the merged
        // mean is the access-weighted mean of the chunks.
        let expect = (a.report.latency.mean_ns * a.report.ops as f64
            + b.report.latency.mean_ns * b.report.ops as f64)
            / merged.ops as f64;
        assert!((merged.latency.mean_ns - expect).abs() < 1e-6);
        // Exact merged fast-hit fraction (access-weighted, not averaged).
        let expect_fh = (a.report.fast_hit_frac * a.report.accesses as f64
            + b.report.fast_hit_frac * b.report.accesses as f64)
            / merged.accesses as f64;
        assert!((merged.fast_hit_frac - expect_fh).abs() < 1e-12);
    }

    #[test]
    fn merge_is_deterministic_and_order_sensitive() {
        let a = captured(1, 10_000);
        let b = captured(2, 10_000);
        let ab = merge_captured(&[a.clone(), b.clone()]);
        assert_eq!(ab, merge_captured(&[a.clone(), b.clone()]));
        // Chunk order is part of the plan: swapping it moves the timeline
        // boundary (counters still agree).
        let ba = merge_captured(&[b, a]);
        assert_eq!(ab.ops, ba.ops);
        assert_eq!(ab.sim_ns, ba.sim_ns);
        assert_eq!(ab.latency, ba.latency, "histogram merge commutes");
    }
}
