//! The policy trait and engine↔policy context.

use tiering_mem::{PageId, Tier, TierConfig, TieredMemory};
use tiering_trace::Sample;

/// Per-call context through which a policy reports its own resource usage
/// back to the engine.
///
/// * `metadata_lines` — cache-line addresses the policy's metadata update
///   touched; the engine replays them through the cache simulator attributed
///   to the tiering source (paper Figures 5/13/14).
/// * `tiering_work_ns` — CPU time the tiering runtime spent (scans, syscall
///   overhead); the engine charges a configurable fraction of it to the
///   application to model interference from the co-located tiering thread.
#[derive(Debug, Default)]
pub struct PolicyCtx {
    /// Metadata cache-line addresses touched since the engine last drained.
    pub metadata_lines: Vec<u64>,
    /// Tiering-thread CPU time accumulated since the engine last drained.
    pub tiering_work_ns: u64,
}

impl PolicyCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears accumulated usage (the engine calls this after draining).
    pub fn drain(&mut self) {
        self.metadata_lines.clear();
        self.tiering_work_ns = 0;
    }
}

/// A memory tiering policy.
///
/// The engine drives a policy with two batched observation hooks and a
/// tick; each delivers one operation's worth of events in a single call, so
/// dispatch is paid once per op:
///
/// 1. [`on_access_batch`](TieringPolicy::on_access_batch) — every
///    application access, but only if
///    [`wants_access_hook`](TieringPolicy::wants_access_hook) returns
///    `true`. Fault-driven policies (AutoNUMA, TPP) use this to model NUMA
///    hint faults; the returned nanoseconds are charged *synchronously* to
///    the faulting op.
/// 2. [`on_sample_batch`](TieringPolicy::on_sample_batch) — every PEBS
///    sample, for hardware-sampling policies (HybridTier, Memtis, ARC,
///    TwoQ).
/// 3. [`on_tick`](TieringPolicy::on_tick) — periodic maintenance (cooling,
///    demotion scans, watermark checks).
///
/// All three default to doing nothing; a policy implements the ones its
/// observation mode needs.
pub trait TieringPolicy {
    /// Display name used in reports (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Tier preference for first-touch allocation of new pages.
    ///
    /// Linux (and TPP) allocate top-tier first; the paper places ARC/TwoQ
    /// allocations in the slow tier (§5.2).
    fn preferred_alloc_tier(&self) -> Tier {
        Tier::Fast
    }

    /// Whether the engine should invoke
    /// [`on_access_batch`](Self::on_access_batch) with every application
    /// access (fault-driven policies only — it is the expensive path).
    fn wants_access_hook(&self) -> bool {
        false
    }

    /// Observes one op's application accesses, in order, at time `now_ns`;
    /// returns the extra nanoseconds charged to the op (e.g. hint-fault
    /// service time).
    fn on_access_batch(
        &mut self,
        _pages: &[PageId],
        _now_ns: u64,
        _mem: &mut TieredMemory,
        _ctx: &mut PolicyCtx,
    ) -> u64 {
        0
    }

    /// Ingests one op's PEBS samples, in order — how the real tiering
    /// thread drains the PEBS buffer: in runs, not one record at a time
    /// (paper Algorithm 1).
    fn on_sample_batch(
        &mut self,
        _samples: &[Sample],
        _mem: &mut TieredMemory,
        _ctx: &mut PolicyCtx,
    ) {
    }

    /// Periodic maintenance, called every engine tick.
    fn on_tick(&mut self, _now_ns: u64, _mem: &mut TieredMemory, _ctx: &mut PolicyCtx) {}

    /// Demand signal for the global controller of paper §7: how many fast
    /// pages this tenant's application currently wants. The default reports
    /// demonstrated residency (pages resident in the fast tier), which every
    /// policy can answer; sampling policies with a hotness histogram
    /// (HybridTier) override it with their measured hot-set size, which can
    /// exceed the current quota and therefore lets a squeezed tenant ask
    /// for more.
    fn fast_demand_pages(&self, mem: &TieredMemory) -> u64 {
        mem.fast_used()
    }

    /// Bytes of tiering metadata currently allocated (paper Table 4).
    fn metadata_bytes(&self) -> usize;

    /// One-line internal-state summary for diagnostics (thresholds, queue
    /// depths); empty by default.
    fn debug_state(&self) -> String {
        String::new()
    }
}

/// The policies evaluated in the paper, as buildable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// HybridTier (this paper).
    HybridTier,
    /// HybridTier with the momentum tracker disabled (Figure 15 ablation,
    /// "HybridTier-onlyFreqCBF").
    HybridTierFreqOnly,
    /// HybridTier with a standard (unblocked) CBF (Figure 14 ablation,
    /// "HybridTier-CBF").
    HybridTierUnblocked,
    /// Memtis (frequency-based state of the art).
    Memtis,
    /// Linux AutoNUMA balancing.
    AutoNuma,
    /// TPP.
    Tpp,
    /// ARC adapted to tiering.
    Arc,
    /// TwoQ adapted to tiering.
    TwoQ,
    /// NeoMem-style device-side counter sampling: the CXL device counts
    /// accesses to its own pages in hardware; the host pays only for
    /// periodic readouts. A third observation mode (exact device counters)
    /// alongside host PEBS sampling and CBF compression — an additional
    /// comparison axis, not part of the paper's six-way figure set.
    NeoMem,
    /// All-fast-tier upper bound.
    AllFast,
    /// First-touch placement with no migration (lower bound).
    FirstTouch,
}

impl PolicyKind {
    /// The six systems compared in Figures 9/10 plus bounds, in plot order.
    pub const COMPARED: [PolicyKind; 6] = [
        PolicyKind::Tpp,
        PolicyKind::AutoNuma,
        PolicyKind::Memtis,
        PolicyKind::Arc,
        PolicyKind::TwoQ,
        PolicyKind::HybridTier,
    ];

    /// Label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::HybridTier => "HybridTier",
            PolicyKind::HybridTierFreqOnly => "HybridTier-onlyFreqCBF",
            PolicyKind::HybridTierUnblocked => "HybridTier-CBF",
            PolicyKind::Memtis => "Memtis",
            PolicyKind::AutoNuma => "AutoNUMA",
            PolicyKind::Tpp => "TPP",
            PolicyKind::Arc => "ARC",
            PolicyKind::TwoQ => "TwoQ",
            PolicyKind::NeoMem => "NeoMem",
            PolicyKind::AllFast => "AllFast",
            PolicyKind::FirstTouch => "FirstTouch",
        }
    }
}

/// Receiver for [`visit_policy`]: `visit` is called with the *concretely
/// typed* policy for a [`PolicyKind`]. The product reaches it only through
/// [`build_policy`], which boxes the result; its other caller is the host
/// benchmark's ledger (`benchmark/src/ledger.rs`, frozen between benchmark
/// changes), which times the typed engine entries. Both uses end when that
/// ledger steps the engine's own `SimRun`.
pub trait PolicyVisitor {
    /// The visit result.
    type Out;
    /// Called with the built policy (same construction as [`build_policy`]).
    fn visit<P: TieringPolicy + 'static>(self, policy: P) -> Self::Out;
}

/// Builds the policy for `kind` with the crate's default (scaled) parameters
/// and passes it, concretely typed, to `visitor`; [`build_policy`] boxes
/// it. See [`PolicyVisitor`] for why both remain.
pub fn visit_policy<V: PolicyVisitor>(kind: PolicyKind, cfg: &TierConfig, visitor: V) -> V::Out {
    use crate::{
        AllFastPolicy, ArcPolicy, AutoNumaPolicy, FirstTouchPolicy, HybridTierConfig,
        HybridTierPolicy, MemtisPolicy, NeoMemPolicy, TppPolicy, TwoQPolicy,
    };
    match kind {
        PolicyKind::HybridTier => {
            visitor.visit(HybridTierPolicy::new(HybridTierConfig::scaled(cfg), cfg))
        }
        PolicyKind::HybridTierFreqOnly => {
            let c = HybridTierConfig::scaled(cfg).without_momentum();
            visitor.visit(HybridTierPolicy::new(c, cfg))
        }
        PolicyKind::HybridTierUnblocked => {
            let c = HybridTierConfig::scaled(cfg).with_layout(crate::TrackerLayout::Standard);
            visitor.visit(HybridTierPolicy::new(c, cfg))
        }
        PolicyKind::Memtis => visitor.visit(MemtisPolicy::new(Default::default(), cfg)),
        PolicyKind::AutoNuma => visitor.visit(AutoNumaPolicy::new(Default::default(), cfg)),
        PolicyKind::Tpp => visitor.visit(TppPolicy::new(Default::default(), cfg)),
        PolicyKind::Arc => visitor.visit(ArcPolicy::new(cfg)),
        PolicyKind::TwoQ => visitor.visit(TwoQPolicy::new(cfg)),
        PolicyKind::NeoMem => visitor.visit(NeoMemPolicy::new(Default::default(), cfg)),
        PolicyKind::AllFast => visitor.visit(AllFastPolicy::new()),
        PolicyKind::FirstTouch => visitor.visit(FirstTouchPolicy::new()),
    }
}

/// Builds a policy with the crate's default (scaled) parameters for the
/// given tier configuration.
pub fn build_policy(kind: PolicyKind, cfg: &TierConfig) -> Box<dyn TieringPolicy> {
    struct BoxIt;
    impl PolicyVisitor for BoxIt {
        type Out = Box<dyn TieringPolicy>;
        fn visit<P: TieringPolicy + 'static>(self, policy: P) -> Self::Out {
            Box::new(policy)
        }
    }
    visit_policy(kind, cfg, BoxIt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    #[test]
    fn all_kinds_build() {
        let cfg =
            TierConfig::for_footprint(10_000, tiering_mem::TierRatio::OneTo8, PageSize::Base4K);
        for kind in [
            PolicyKind::HybridTier,
            PolicyKind::HybridTierFreqOnly,
            PolicyKind::HybridTierUnblocked,
            PolicyKind::Memtis,
            PolicyKind::AutoNuma,
            PolicyKind::Tpp,
            PolicyKind::Arc,
            PolicyKind::TwoQ,
            PolicyKind::NeoMem,
            PolicyKind::AllFast,
            PolicyKind::FirstTouch,
        ] {
            let p = build_policy(kind, &cfg);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn compared_set_matches_paper() {
        assert_eq!(PolicyKind::COMPARED.len(), 6);
        assert!(PolicyKind::COMPARED.contains(&PolicyKind::HybridTier));
        assert!(PolicyKind::COMPARED.contains(&PolicyKind::Memtis));
    }

    #[test]
    fn ctx_drain_clears() {
        let mut ctx = PolicyCtx::new();
        ctx.metadata_lines.push(64);
        ctx.tiering_work_ns = 5;
        ctx.drain();
        assert!(ctx.metadata_lines.is_empty());
        assert_eq!(ctx.tiering_work_ns, 0);
    }
}
