//! Simulation reports.
//!
//! [`SimReport`] is the outcome of one engine run and [`MultiTenantReport`]
//! of one co-located/fleet run. Both derive `PartialEq` over every field —
//! the batch-equivalence and runner determinism tests rely on whole-report
//! equality — and both expose a [`fingerprint`](SimReport::fingerprint): a
//! stable 64-bit digest of the deterministic outcome, giving every scenario
//! a portable identity that distributed-sweep tooling (the runner's shard
//! merge, `bench --merge`) can compare across hosts without shipping whole
//! reports.

use cache_sim::HierarchyStats;
use tiering_mem::MigrationStats;
use tiering_policies::RebalanceEvent;

use crate::histo::LogHistogram;

/// Latency percentile summary over all operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median operation latency (ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Mean (ns).
    pub mean_ns: f64,
}

impl LatencySummary {
    /// Builds the summary from a histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        Self {
            p50_ns: h.p50(),
            p90_ns: h.quantile(0.9),
            p99_ns: h.quantile(0.99),
            mean_ns: h.mean(),
        }
    }
}

/// One point of the windowed median-latency timeline (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Window end time (simulated ns).
    pub t_ns: u64,
    /// Median op latency within the window (ns).
    pub p50_ns: u64,
    /// Mean op latency within the window (ns). The adaptation analyses use
    /// this: the simulator's discrete op shapes make windowed medians
    /// bimodal around bucket boundaries, while the mean moves smoothly with
    /// fast-tier hit rate (the paper's testbed medians are smooth for the
    /// same reason real op latencies are continuous).
    pub mean_ns: u64,
    /// Operations completed within the window.
    pub ops: u64,
}

/// The complete result of one simulation run.
///
/// `PartialEq` compares every field — the batch-equivalence and runner
/// determinism tests rely on whole-report equality.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Operations executed.
    pub ops: u64,
    /// Application memory accesses replayed.
    pub accesses: u64,
    /// PEBS samples delivered to the policy.
    pub samples: u64,
    /// Total simulated time.
    pub sim_ns: u64,
    /// Operation latency summary.
    pub latency: LatencySummary,
    /// Windowed median-latency series.
    pub timeline: Vec<TimelinePoint>,
    /// Final cache statistics (when enabled).
    pub cache: Option<HierarchyStats>,
    /// Migration counters.
    pub migrations: MigrationStats,
    /// Fraction of application accesses served by the fast tier.
    pub fast_hit_frac: f64,
    /// Policy metadata footprint at end of run.
    pub metadata_bytes: usize,
}

impl SimReport {
    /// Throughput in million operations per simulated second.
    pub fn throughput_mops(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1_000.0 / self.sim_ns as f64
        }
    }

    /// Runtime in simulated seconds.
    pub fn runtime_s(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// Relative performance vs. a baseline report (baseline runtime / own
    /// runtime, >1 means faster than baseline) — the metric of Figure 10.
    pub fn relative_performance(&self, baseline: &SimReport) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            baseline.sim_ns as f64 / self.sim_ns as f64
        }
    }

    /// A stable 64-bit digest of this run's deterministic outcome: the
    /// headline counters (ops, accesses, samples, simulated time), the
    /// latency summary, migration counters, fast-hit fraction, metadata
    /// footprint, the full latency timeline, and the workload/policy names.
    ///
    /// Two runs of the same scenario — on any host, any thread count, any
    /// batch size — produce the same fingerprint; the engine's integer
    /// simulated-time arithmetic and `f64` aggregations are both exactly
    /// reproducible. Distributed-sweep tooling uses it as the scenario's
    /// portable outcome identity (shard-merge cross-checks, the
    /// `"fingerprint"` field of `BENCH_*.json` scenario entries).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.str(&self.workload);
        h.str(&self.policy);
        h.u64(self.ops);
        h.u64(self.accesses);
        h.u64(self.samples);
        h.u64(self.sim_ns);
        h.u64(self.latency.p50_ns);
        h.u64(self.latency.p90_ns);
        h.u64(self.latency.p99_ns);
        h.f64(self.latency.mean_ns);
        h.u64(self.migrations.promotions);
        h.u64(self.migrations.demotions);
        h.u64(self.migrations.allocated_fast);
        h.u64(self.migrations.allocated_slow);
        h.u64(self.migrations.failed_promotions);
        h.f64(self.fast_hit_frac);
        h.u64(self.metadata_bytes as u64);
        h.u64(self.timeline.len() as u64);
        for p in &self.timeline {
            h.u64(p.t_ns);
            h.u64(p.p50_ns);
            h.u64(p.mean_ns);
            h.u64(p.ops);
        }
        h.finish()
    }
}

/// FNV-1a accumulator behind the report fingerprints: a fixed, documented
/// algorithm (not `DefaultHasher`, whose output may change across Rust
/// releases) so fingerprints are comparable between binaries built on
/// different hosts.
struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes the bit pattern; `-0.0` is normalized to `0.0` so the two
    /// representations of zero cannot split a fingerprint.
    fn f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0f64 } else { v };
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One tenant's slice of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name (as registered with the controller).
    pub name: String,
    /// Fast-tier quota the tenant started with (equal shares for initial
    /// tenants, the min-one admission share for churn arrivals).
    pub initial_quota_pages: u64,
    /// Fast-tier quota after the final rebalance (0 for departed tenants —
    /// their pages were reclaimed).
    pub final_quota_pages: u64,
    /// Fast pages actually resident at end of run (≤ quota once watermark
    /// demotion has drained any post-shrink excess).
    pub final_fast_used: u64,
    /// Fleet time at which this tenant joined (0 for initial tenants).
    pub arrived_at_ns: u64,
    /// Fleet time at which this tenant departed, when it did.
    pub departed_at_ns: Option<u64>,
    /// The tenant's ordinary simulation report.
    pub report: SimReport,
}

/// Which way a [`ChurnRecord`] went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The tenant joined the fleet mid-run.
    Arrived,
    /// The tenant left the fleet mid-run.
    Departed,
}

/// One applied churn event: the fleet composition change and when it
/// happened — sealed into the report so per-epoch composition is
/// reconstructible from the result alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRecord {
    /// Fleet time (the round boundary) the event was applied at.
    pub at_ns: u64,
    /// Fleet-wide completed operations when the event fired (the schedule
    /// triggers on op-count boundaries).
    pub at_fleet_ops: u64,
    /// Arrival or departure.
    pub kind: ChurnKind,
    /// The tenant's name.
    pub tenant: String,
    /// Live mask over registration slots *after* the event — the epoch's
    /// fleet composition.
    pub live_after: Vec<bool>,
}

/// Tenant-count threshold beyond which [`MultiTenantReport::summary`]
/// (and the runner's golden renderer) switch from per-tenant tables to
/// aggregate form, keeping fleet-scale renders `O(threshold)`.
pub const SUMMARY_MAX_TENANTS: usize = 12;

/// The complete result of one multi-tenant (co-located) run: per-tenant
/// [`SimReport`]s, the controller's full quota trajectory, and fairness
/// summaries (paper §7).
///
/// `PartialEq` compares everything — the co-location determinism tests rely
/// on whole-report equality.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantReport {
    /// Physical fast pages shared by all tenants.
    pub fast_budget_pages: u64,
    /// Per-tenant results, in registration order (slot order; includes
    /// departed tenants and churn arrivals).
    pub tenants: Vec<TenantReport>,
    /// Every rebalance the controller performed, in time order.
    pub rebalances: Vec<RebalanceEvent>,
    /// Every applied churn event, in time order (empty for static fleets) —
    /// together with `rebalances[..].live`, the per-epoch fleet
    /// composition.
    pub churn: Vec<ChurnRecord>,
    /// Whole-machine view: summed ops/accesses/migrations, exact merged
    /// latency percentiles, access-weighted fast-hit fraction. Timeline and
    /// cache series are per-tenant concerns and stay empty here.
    pub aggregate: SimReport,
}

impl MultiTenantReport {
    /// Looks a tenant up by name.
    pub fn find(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// The quota trajectory of one tenant: `(rebalance time ns, quota)` per
    /// rebalance event, prefixed by the tenant's admission assignment at
    /// its arrival time. Rebalances before a churn arrival's slot existed
    /// report quota 0 (the tenant was not in the fleet yet). Compact
    /// events (incremental-mode rebalances carry no per-slot vectors) are
    /// skipped rather than misread as zeros.
    pub fn quota_trajectory(&self, tenant: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.rebalances.len() + 1);
        out.push((
            self.tenants[tenant].arrived_at_ns,
            self.tenants[tenant].initial_quota_pages,
        ));
        out.extend(
            self.rebalances
                .iter()
                .filter(|e| !e.quotas.is_empty() && e.at_ns >= self.tenants[tenant].arrived_at_ns)
                .map(|e| (e.at_ns, e.quotas.get(tenant).copied().unwrap_or(0))),
        );
        out
    }

    /// Jain's fairness index over per-tenant fast-hit fractions, in
    /// `(1/n, 1]`: 1.0 means every tenant enjoys the same fast-tier service,
    /// 1/n means one tenant monopolizes it. Reports 1.0 for the degenerate
    /// all-zero case.
    pub fn fairness_index(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.report.fast_hit_frac)
            .collect();
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            sum * sum / (xs.len() as f64 * sum_sq)
        }
    }

    /// Fraction of the fast budget the tenant holds after the final
    /// rebalance.
    pub fn quota_share(&self, tenant: usize) -> f64 {
        self.tenants[tenant].final_quota_pages as f64 / self.fast_budget_pages as f64
    }

    /// The multi-tenant twin of [`SimReport::fingerprint`]: a stable 64-bit
    /// digest over the budget, every tenant's outcome (name, quota
    /// endpoints, arrival/departure times, and its report's fingerprint),
    /// the rebalance trace (per-event time, quotas, demands), and the churn
    /// records. Deterministic across hosts for identical scenarios.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.u64(self.fast_budget_pages);
        h.u64(self.aggregate.fingerprint());
        h.u64(self.tenants.len() as u64);
        for t in &self.tenants {
            h.str(&t.name);
            h.u64(t.initial_quota_pages);
            h.u64(t.final_quota_pages);
            h.u64(t.final_fast_used);
            h.u64(t.arrived_at_ns);
            h.u64(t.departed_at_ns.map_or(u64::MAX, |v| v));
            h.u64(t.report.fingerprint());
        }
        h.u64(self.rebalances.len() as u64);
        for e in &self.rebalances {
            h.u64(e.at_ns);
            for &q in &e.quotas {
                h.u64(q);
            }
            for &d in &e.demands {
                h.u64(d);
            }
        }
        h.u64(self.churn.len() as u64);
        for c in &self.churn {
            h.u64(c.at_ns);
            h.u64(c.at_fleet_ops);
            h.u64(matches!(c.kind, ChurnKind::Arrived) as u64);
            h.str(&c.tenant);
        }
        h.finish()
    }

    /// Plain-text run summary: the demand/quota trajectory table, one line
    /// per tenant, and the fairness index. The `multi_tenant` example and
    /// the bench `sec7` experiment both print exactly this block, so their
    /// outputs cannot drift apart.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Beyond the threshold (or when every event is compact) the
        // per-tenant trajectory table degenerates into noise; summarize in
        // aggregate instead so a 10⁵-tenant fleet renders in O(threshold).
        let compact_events =
            !self.rebalances.is_empty() && self.rebalances.iter().all(|e| e.quotas.is_empty());
        let wide = self.tenants.len() > SUMMARY_MAX_TENANTS;
        if compact_events {
            let _ = writeln!(
                out,
                "{} rebalances recorded in compact (incremental) form; trajectory table elided",
                self.rebalances.len()
            );
        } else if wide {
            let _ = writeln!(
                out,
                "trajectory table elided ({} tenants > {SUMMARY_MAX_TENANTS} threshold, {} rebalances)",
                self.tenants.len(),
                self.rebalances.len()
            );
        } else {
            let _ = write!(out, "{:>6}", "t_ms");
            for t in &self.tenants {
                let _ = write!(out, " {:>13}", format!("{} demand", t.name));
            }
            for t in &self.tenants {
                let _ = write!(out, " {:>12}", format!("{} quota", t.name));
            }
            out.push('\n');
            for e in &self.rebalances {
                let _ = write!(out, "{:>6.0}", e.at_ns as f64 / 1e6);
                // Slots admitted after this event print `-` (not in the
                // fleet yet); departed slots print their recorded zeros.
                for i in 0..self.tenants.len() {
                    match e.demands.get(i) {
                        Some(d) => {
                            let _ = write!(out, " {d:>13}");
                        }
                        None => {
                            let _ = write!(out, " {:>13}", "-");
                        }
                    }
                }
                for i in 0..self.tenants.len() {
                    match e.quotas.get(i) {
                        Some(q) => {
                            let _ = write!(out, " {q:>12}");
                        }
                        None => {
                            let _ = write!(out, " {:>12}", "-");
                        }
                    }
                }
                out.push('\n');
            }
        }
        out.push('\n');
        for c in &self.churn {
            let live = c.live_after.iter().filter(|&&l| l).count();
            let fleet = if live > SUMMARY_MAX_TENANTS {
                format!("{live} live")
            } else {
                format!(
                    "[{}]",
                    c.live_after
                        .iter()
                        .zip(&self.tenants)
                        .filter(|(&l, _)| l)
                        .map(|(_, t)| t.name.as_str())
                        .collect::<Vec<_>>()
                        .join("+")
                )
            };
            let _ = writeln!(
                out,
                "churn @{:>4.0} ms ({:>8} fleet ops): {} {:>7}, fleet now {fleet}",
                c.at_ns as f64 / 1e6,
                c.at_fleet_ops,
                match c.kind {
                    ChurnKind::Arrived => "arrive",
                    ChurnKind::Departed => "depart",
                },
                c.tenant,
            );
        }
        if !self.churn.is_empty() {
            out.push('\n');
        }
        let shown = if wide {
            SUMMARY_MAX_TENANTS
        } else {
            self.tenants.len()
        };
        for t in &self.tenants[..shown] {
            let _ = writeln!(
                out,
                "tenant {:>6}: {:>8} ops, fast-hit {:.3}, quota {} -> {} pages ({} resident)",
                t.name,
                t.report.ops,
                t.report.fast_hit_frac,
                t.initial_quota_pages,
                t.final_quota_pages,
                t.final_fast_used,
            );
        }
        if wide {
            let elided = &self.tenants[shown..];
            let _ = writeln!(
                out,
                "... {} more tenants elided ({} ops, {} pages held at finish)",
                elided.len(),
                elided.iter().map(|t| t.report.ops).sum::<u64>(),
                elided.iter().map(|t| t.final_quota_pages).sum::<u64>(),
            );
        }
        let _ = writeln!(
            out,
            "fairness (Jain over fast-hit): {:.4}; budget {} pages, {} rebalances",
            self.fairness_index(),
            self.fast_budget_pages,
            self.rebalances.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(sim_ns: u64, ops: u64) -> SimReport {
        SimReport {
            workload: "w".into(),
            policy: "p".into(),
            ops,
            accesses: 0,
            samples: 0,
            sim_ns,
            latency: LatencySummary::default(),
            timeline: Vec::new(),
            cache: None,
            migrations: MigrationStats::default(),
            fast_hit_frac: 0.0,
            metadata_bytes: 0,
        }
    }

    #[test]
    fn throughput_is_ops_per_second() {
        let r = dummy(2_000_000_000, 4_000_000);
        assert!((r.throughput_mops() - 2.0).abs() < 1e-9);
        assert!((r.runtime_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn relative_performance_vs_baseline() {
        let fast = dummy(1_000, 1);
        let slow = dummy(2_000, 1);
        assert!((fast.relative_performance(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.relative_performance(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_time_edge_cases() {
        let r = dummy(0, 0);
        assert_eq!(r.throughput_mops(), 0.0);
        assert_eq!(r.relative_performance(&dummy(5, 1)), 0.0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = dummy(1_000, 10);
        // Pinned literal (independently computed with reference FNV-1a):
        // the fingerprint is part of the BENCH json contract, so an
        // accidental algorithm change must fail loudly here, not just
        // against another in-process recomputation.
        assert_eq!(a.fingerprint(), 0xe3b5_a9c6_54f4_7baf);
        assert_eq!(a.fingerprint(), dummy(1_000, 10).fingerprint());
        assert_ne!(a.fingerprint(), dummy(1_000, 11).fingerprint());
        assert_ne!(a.fingerprint(), dummy(1_001, 10).fingerprint());
        let mut renamed = dummy(1_000, 10);
        renamed.policy = "q".into();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut zero = dummy(1_000, 10);
        zero.fast_hit_frac = -0.0;
        assert_eq!(a.fingerprint(), zero.fingerprint(), "-0.0 == 0.0");
    }

    #[test]
    fn summary_from_histogram() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300, 400, 500] {
            h.record(v);
        }
        let s = LatencySummary::from_histogram(&h);
        assert!(s.p50_ns >= 200 && s.p50_ns <= 400);
        assert!(s.p99_ns >= s.p50_ns);
        assert!((s.mean_ns - 300.0).abs() < 1.0);
    }
}
