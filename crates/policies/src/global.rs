//! Global (multi-tenant) tiering — the paper's §7 extension.
//!
//! "To support global memory tiering (e.g., multi-tenant VM, co-located
//! applications), one could use a central HybridTier controller that
//! coordinates with individual HybridTier instances. Each HybridTier
//! instance would report local hot/cold items to the central controller,
//! which makes global promotion/demotion decisions." (paper §7)
//!
//! This module implements that sketch as a *coordinator*: a
//! [`GlobalController`] owns the physical fast-tier budget and periodically
//! re-partitions it across registered tenants in proportion to each
//! tenant's reported demand (its demonstrated hot-set size, see
//! [`TieringPolicy::fast_demand_pages`](crate::TieringPolicy::fast_demand_pages)).
//! Every re-partition is recorded as a typed [`RebalanceEvent`], so callers
//! get a full quota trajectory instead of a bare quota vector.
//!
//! The controller deliberately does **not** own tenant runtimes: the
//! fleet round loop (`tiering_runner`'s `ScenarioKind::Fleet` runs) steps
//! each tenant through its own `tiering_sim::SimRun`, reports each
//! tenant's demand signal through
//! [`update_demand`](GlobalController::update_demand), calls
//! [`rebalance_dirty`](GlobalController::rebalance_dirty), and enforces the
//! resulting quotas by resizing each tenant's fast tier (shrunk tenants
//! drain through their policy's ordinary watermark demotion — quota
//! enforcement rides the existing migration path, it is not a special
//! mechanism).
//!
//! Two fleet-scale extensions on top of the §7 sketch:
//!
//! * **Three built-in objectives.** *How* the distributable budget follows
//!   demand is an [`ObjectiveKind`]: proportional share (the default),
//!   max-min fairness (progressive filling, Equilibria-style), or a
//!   piecewise-linear SLO/utility objective. All three satisfy the same
//!   contract — exact assignment, determinism, demand monotonicity —
//!   pinned by `tests/global_properties.rs`. Every rebalance computes them
//!   through one lazy apportioning plan over a demand treap; the full-scan
//!   bodies they were first written as are the test oracle
//!   (`tests/support/oracle.rs`).
//! * **Tenant churn.** Tenants [`admit`](GlobalController::admit_tenant)
//!   mid-run (under the min-one guarantee) and
//!   [`retire`](GlobalController::retire_tenant) (their fast pages are
//!   reclaimed into the live budget immediately). Slots are stable:
//!   a departed tenant keeps its registration index with a zero quota, so
//!   event vectors stay index-aligned across the whole run, and every
//!   [`RebalanceEvent`] records the live mask it decided over.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use tiering_mem::{PageSize, TierConfig};

use crate::ostree::OsTree;

/// Demands above this are clamped before apportioning (2^40 pages = 4 PiB of
/// 4 KiB pages): keeps the exact 128-bit quota arithmetic overflow-free for
/// any `u64` budget while being far beyond any real footprint.
const DEMAND_CLAMP: u64 = 1 << 40;

/// SLO point of [`ObjectiveKind::SloUtility`]: half the demonstrated hot
/// set must be fast before any tenant gets post-SLO pages.
const DEFAULT_SLO_FRAC: f64 = 0.5;

/// The SLO requirement for one clamped demand: `ceil(d * slo_frac)`, kept
/// within `[1, d]` so it is always achievable and monotone in `d`.
fn slo_requirement(demand: u64) -> u64 {
    ((demand as f64 * DEFAULT_SLO_FRAC).ceil() as u64).clamp(1, demand)
}

/// How the controller splits the distributable budget across live tenants.
///
/// Every objective sees the clamped demands (each in `[1, 2^40]`) of the
/// live tenants and the page count to split, and its allocation
///
/// * sums to **exactly** that count;
/// * is **deterministic** — exact integer arithmetic only;
/// * is **demand-monotone** — raising one tenant's demand while the others
///   hold still never lowers that tenant's allocation;
/// * **follows demand ordering** — a strictly hungrier tenant never
///   receives strictly less.
///
/// Rounding dust goes to the hungriest tenants, ties broken by the highest
/// slot. The per-tenant floor and the min-one guarantee are enforced by the
/// controller *around* the objective. `tests/global_properties.rs` pins the
/// contract for every kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectiveKind {
    /// Proportional share (the default): each tenant gets
    /// `amount · d / Σd`, the dust going to the largest demand.
    #[default]
    Proportional,
    /// Max-min fairness by progressive filling: demands are caps, the water
    /// level rises until the budget is spent, and any surplus beyond total
    /// demand is split equally. Small tenants are fully satisfied before any
    /// large tenant gets more than the fair share — the classic fleet
    /// fairness objective (Equilibria, PAPERS.md).
    MaxMin,
    /// Piecewise-linear utility / SLO objective (Equilibria-style): each
    /// tenant's utility is steep up to its SLO requirement (half its
    /// demand, rounded up), shallow up to full demand, flat beyond. With
    /// slopes shared across tenants, the exact maximizer is a three-phase
    /// greedy:
    ///
    /// 1. satisfy every SLO requirement (proportionally to requirements
    ///    when the budget cannot cover them all);
    /// 2. fill the post-SLO segments up to demand (proportionally to
    ///    segment width when short);
    /// 3. split any surplus beyond total demand proportionally to demand.
    SloUtility,
}

impl ObjectiveKind {
    /// Every built-in objective, in comparison order — test harnesses and
    /// sweep matrices iterate this.
    pub const ALL: [ObjectiveKind; 3] = [
        ObjectiveKind::Proportional,
        ObjectiveKind::MaxMin,
        ObjectiveKind::SloUtility,
    ];

    /// Label used in reports, scenario names, golden files and every
    /// [`RebalanceEvent`].
    pub fn label(self) -> &'static str {
        match self {
            ObjectiveKind::Proportional => "proportional",
            ObjectiveKind::MaxMin => "max-min",
            ObjectiveKind::SloUtility => "slo-utility",
        }
    }
}

/// What a [`RebalanceEvent`] records. Quotas do not depend on the mode:
/// both compute every rebalance through the same apportioning plan.
///
/// The mode stays because the callers pin two event shapes: the fleet
/// goldens and `tests/control_plane.rs` fingerprint full events, while the
/// synthetic large fleets (`Scenario::synthetic_fleet_spec`) and the
/// controller probe of the host-cost benchmark record compact ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ControllerMode {
    /// Every event records the `live`, `demands` and `quotas` vectors —
    /// `O(n)` per rebalance. The shape every golden was produced under.
    #[default]
    FullScan,
    /// Events are **compact**: `live`/`demands`/`quotas` are left empty so
    /// a 10⁵-tenant trace doesn't cost `O(n)` per round to record. Query
    /// the controller for the quotas themselves.
    Incremental,
}

/// Which weight function a [`ApportionPlan::Weighted`] phase applies to a
/// clamped demand. Every variant is monotone non-decreasing in `d`, which
/// is what makes the plan's dust slot always the maximum `(demand, slot)`
/// key and the minimum allocation always sit at the minimum key.
#[derive(Debug, Clone, Copy)]
enum WeightFn {
    /// base 0, weight `d` — proportional share.
    Demand,
    /// base 0, weight `req(d)` — SLO phase 1 (under requirement pressure).
    Requirement,
    /// base `req(d)`, weight `d - req(d)` — SLO phase 2 (post-SLO fill).
    Post,
    /// base `d`, weight `d` — SLO phase 3 (surplus beyond total demand).
    Luxury,
}

impl WeightFn {
    /// `(base, weight)` for one clamped demand.
    fn base_weight(self, d: u64) -> (u64, u64) {
        match self {
            WeightFn::Demand => (0, d),
            WeightFn::Requirement => (0, slo_requirement(d)),
            WeightFn::Post => {
                let r = slo_requirement(d);
                (r, d - r)
            }
            WeightFn::Luxury => (d, d),
        }
    }
}

/// A lazy, `O(1)`-per-slot representation of one exact apportioning
/// decision: `quota(slot) = floor + plan_alloc(plan, slot, norm[slot])`.
/// A rebalance constructs one in `O(log n)`-ish time from the demand treap;
/// equal, slot for slot, to the full-scan objective bodies kept as the test
/// oracle (`tests/support/oracle.rs`). [`GlobalController::add_tenant`]'s
/// equal seed split is one more ([`ApportionPlan::Equal`]).
#[derive(Debug, Clone)]
enum ApportionPlan {
    /// The equal seed split over an all-live slot table (rank = slot):
    /// `alloc = base + [slot < rem]`, the remainder pages going to the
    /// earliest slots.
    Equal { base: u64, rem: u64 },
    /// One exact weighted split plus a per-slot base — proportional share
    /// and every SLO phase. `alloc(d) = base(d) +
    /// floor(amount·w(d)/total) + dust·[slot == dust_slot]`; since `w` is
    /// monotone in `d` with demand-then-slot tie-breaks, the oracle's
    /// `max_by_key((w, d, i))` dust receiver *is* the maximum
    /// `(demand, slot)` key.
    Weighted {
        weight: WeightFn,
        amount: u64,
        total: u128,
        dust_slot: usize,
        dust: u64,
    },
    /// Max-min, surplus branch (`amount ≥ total demand`):
    /// `alloc(d) = d + base + [(d, slot) ≥ cutoff]` — the oracle hands its
    /// remainder pages to the top `dust` keys in `(demand, slot)` order,
    /// i.e. everything at or above the `(m - dust)`-th ascending key.
    Surplus {
        base: u64,
        cutoff: Option<(u64, usize)>,
    },
    /// Max-min, progressive-filling branch: demands strictly below the
    /// break demand are fully satisfied; everyone else gets the final
    /// water `level`, plus one dust page for the top `dust` keys. The
    /// break position is per *demand-value class* (the fill predicate is
    /// constant within a class), so `d < d_break` decides the side exactly
    /// as the oracle's position-based loop does.
    Fill {
        level: u64,
        d_break: u64,
        cutoff: Option<(u64, usize)>,
    },
}

/// One dust page for keys at or above the cutoff.
fn cutoff_bonus(cutoff: Option<(u64, usize)>, d: u64, slot: usize) -> u64 {
    u64::from(cutoff.is_some_and(|c| (d, slot) >= c))
}

/// Evaluates a plan for one live slot with clamped demand `d` — the `O(1)`
/// read side of the lazy quota representation.
fn plan_alloc(plan: &ApportionPlan, slot: usize, d: u64) -> u64 {
    match *plan {
        ApportionPlan::Equal { base, rem } => base + u64::from((slot as u64) < rem),
        ApportionPlan::Weighted {
            weight,
            amount,
            total,
            dust_slot,
            dust,
        } => {
            let (base, w) = weight.base_weight(d);
            let share = (u128::from(amount) * u128::from(w) / total) as u64;
            base + share + if slot == dust_slot { dust } else { 0 }
        }
        ApportionPlan::Surplus { base, cutoff } => d + base + cutoff_bonus(cutoff, d, slot),
        ApportionPlan::Fill {
            level,
            d_break,
            cutoff,
        } => {
            if d < d_break {
                d
            } else {
                level + cutoff_bonus(cutoff, d, slot)
            }
        }
    }
}

/// The controller's apportioning state: the live demand treap (keyed
/// `(demand, slot)`, augmented with subtree counts and demand sums) plus
/// the incrementally-maintained SLO requirement total. `plan` turns the
/// current tree into an [`ApportionPlan`] without touching unchanged
/// tenants.
#[derive(Debug, Default)]
struct IncrementalApportioner {
    tree: OsTree,
    /// `Σ slo_requirement(d)` over live slots (maintained for every kind —
    /// one multiply per update — so the objective can be switched freely).
    total_req: u128,
    /// Demand-value classes: distinct clamped demand → live-slot count.
    /// The weighted plans' dust sum iterates *classes*, not slots, and
    /// this index makes that `O(1)` per class (jumping the treap instead
    /// costs `O(log n)` per class, which at a few hundred classes is a
    /// full scan in disguise).
    classes: BTreeMap<u64, u64>,
    /// Class-walk work performed, in classes visited — folded into
    /// [`ops`](Self::ops) so the meter stays honest about plan cost.
    walk_ops: u64,
}

impl IncrementalApportioner {
    fn insert(&mut self, slot: usize, d: u64) {
        self.tree.insert((d, slot));
        self.total_req += u128::from(slo_requirement(d));
        *self.classes.entry(d).or_insert(0) += 1;
    }

    fn remove(&mut self, slot: usize, d: u64) {
        let removed = self.tree.remove((d, slot));
        debug_assert!(removed, "removing absent demand key ({d}, {slot})");
        self.total_req -= u128::from(slo_requirement(d));
        let count = self.classes.get_mut(&d).expect("class present");
        *count -= 1;
        if *count == 0 {
            self.classes.remove(&d);
        }
    }

    fn ops(&self) -> u64 {
        self.tree.visits() + self.walk_ops
    }

    /// Plans `amount` pages over the live tenants. Every phase total is
    /// positive: clamped demands are ≥ 1, so are their requirements, and
    /// the post-SLO phase is entered only when it has more width than the
    /// (positive) pages left for it.
    fn plan(&mut self, kind: ObjectiveKind, amount: u64) -> ApportionPlan {
        match kind {
            ObjectiveKind::Proportional => {
                let total = self.tree.sum();
                self.weighted_plan(WeightFn::Demand, amount, total)
            }
            ObjectiveKind::MaxMin => self.maxmin_plan(amount),
            ObjectiveKind::SloUtility => {
                let treq = self.total_req;
                if u128::from(amount) <= treq {
                    return self.weighted_plan(WeightFn::Requirement, amount, treq);
                }
                let rem = (u128::from(amount) - treq) as u64;
                let tpost = self.tree.sum() - treq;
                if u128::from(rem) <= tpost {
                    return self.weighted_plan(WeightFn::Post, rem, tpost);
                }
                let rem2 = (u128::from(rem) - tpost) as u64;
                let total = self.tree.sum();
                self.weighted_plan(WeightFn::Luxury, rem2, total)
            }
        }
    }

    /// A weighted-split plan. The only super-logarithmic step is the dust
    /// value `amount - Σ floor(amount·w_i/total)`, summed per distinct
    /// demand-value class (`w` depends only on the demand value) through
    /// the class index — `O(1)` per class, so `O(v)` for `v` distinct live
    /// demands and never more than the `O(n)` scan it replaces.
    fn weighted_plan(&mut self, weight: WeightFn, amount: u64, total: u128) -> ApportionPlan {
        let dust_slot = self.tree.last().expect("live tenants present").1;
        let mut assigned: u128 = 0;
        for (&v, &count) in &self.classes {
            let (_, w) = weight.base_weight(v);
            assigned += u128::from(count) * (u128::from(amount) * u128::from(w) / total);
        }
        self.walk_ops += self.classes.len() as u64;
        ApportionPlan::Weighted {
            weight,
            amount,
            total,
            dust_slot,
            dust: amount - assigned as u64,
        }
    }

    fn maxmin_plan(&mut self, amount: u64) -> ApportionPlan {
        let m = self.tree.len() as u64;
        let total = self.tree.sum();
        if u128::from(amount) >= total {
            let surplus = amount - total as u64;
            let base = surplus / m;
            let dust = surplus % m;
            let cutoff = (dust > 0).then(|| self.tree.select((m - dust) as usize));
            return ApportionPlan::Surplus { base, cutoff };
        }
        let (p, pref, d_break) = self
            .tree
            .fill_break(u128::from(amount))
            .expect("amount below total demand always breaks");
        let active = m - p as u64;
        let remaining = (u128::from(amount) - pref) as u64;
        let level = remaining / active;
        let dust = remaining % active;
        let cutoff = (dust > 0).then(|| self.tree.select((m - dust) as usize));
        ApportionPlan::Fill {
            level,
            d_break,
            cutoff,
        }
    }

    /// The smallest allocation any live slot would receive under `plan` —
    /// every plan's `alloc` is monotone in demand with slot tie-breaks, so
    /// the minimum sits at the minimum `(demand, slot)` key. The controller
    /// uses this to prove the min-one fixup is a no-op before going lazy.
    fn min_alloc(&self, plan: &ApportionPlan) -> u64 {
        let (d, slot) = self.tree.first().expect("live tenants present");
        plan_alloc(plan, slot, d)
    }
}

/// One quota re-partition, as a typed event.
///
/// The controller records every [`rebalance`](GlobalController::rebalance)
/// as one of these; the vectors are indexed by tenant registration order
/// (stable slots — a departed tenant keeps its index with `live = false`
/// and zeroed entries). `PartialEq`/`Eq` make event traces directly
/// comparable in determinism tests.
///
/// Under [`ControllerMode::Incremental`] the controller records **compact**
/// events: `at_ns`, `objective`, and `floor_pages` are filled in but the
/// three per-slot vectors are left empty, so event recording stays `O(1)`
/// per rebalance at fleet scale. Query the controller
/// ([`quota`](GlobalController::quota)/[`quotas`](GlobalController::quotas))
/// for the decision itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceEvent {
    /// Simulated time the rebalance ran at.
    pub at_ns: u64,
    /// [`ObjectiveKind::label`] of the objective that made the decision.
    pub objective: String,
    /// Per-live-tenant floor (pages) enforced around the objective.
    pub floor_pages: u64,
    /// Which registration slots were live at decision time — the fleet
    /// composition this event apportioned over.
    pub live: Vec<bool>,
    /// Demand signal per tenant as used for apportioning (clamped to
    /// `[1, 2^40]`; departed slots report 0).
    pub demands: Vec<u64>,
    /// Fast-tier quota per tenant after the rebalance. Sums to exactly the
    /// controller's budget (departed slots hold 0).
    pub quotas: Vec<u64>,
}

impl RebalanceEvent {
    /// Fast pages assigned in total (the controller's full budget for
    /// full-detail events; 0 for the empty-vector compact events recorded
    /// under [`ControllerMode::Incremental`]).
    pub fn assigned(&self) -> u64 {
        self.quotas.iter().sum()
    }
}

/// One registered tenant (name + footprint + current quota + liveness).
#[derive(Debug, Clone)]
struct TenantSlot {
    name: String,
    footprint_pages: u64,
    quota: u64,
    /// A retired slot stays registered (stable indices) but holds no quota
    /// and is skipped by every apportioning decision.
    live: bool,
}

/// Quotas that exist only as `floor + plan` — the lazy state a rebalance
/// or the equal seed split leaves behind instead of materialized per-slot
/// quotas. Folded into the slots (`materialize`) the moment any operation
/// needs mutable per-slot quotas (churn, the min-one fixup).
#[derive(Debug, Clone)]
struct LazyPlan {
    floor: u64,
    plan: ApportionPlan,
}

/// Central coordinator that splits one physical fast tier across tenants.
///
/// Quotas are re-derived on [`rebalance`](GlobalController::rebalance):
/// the caller reports each tenant's demand (pages it demonstrably wants
/// fast), and the controller assigns the global budget under its
/// [`ObjectiveKind`] with a configurable per-tenant floor so an idle
/// tenant can always warm back up. The arithmetic is exact (128-bit
/// integer), so equal inputs always produce identical quotas — the
/// property tests pin this.
///
/// With the delta API ([`update_demand`](Self::update_demand) →
/// [`rebalance_dirty`](Self::rebalance_dirty)) a rebalance after `k`
/// demand changes costs `O((k + v) log n)` (`v` = distinct live demand
/// values) in either [`ControllerMode`]; `Incremental` additionally keeps
/// the recorded event `O(1)` (`tests/global_incremental.rs` pins both
/// modes against the full-scan oracle and meters the work).
#[derive(Debug)]
pub struct GlobalController {
    fast_budget_pages: u64,
    /// Minimum share of the budget any tenant keeps (fraction).
    floor_frac: f64,
    objective: ObjectiveKind,
    mode: ControllerMode,
    tenants: Vec<TenantSlot>,
    /// Applied clamped demand per slot (`[1, 2^40]` live, 0 dead) — the
    /// controller's persistent demand model, updated only for dirty slots.
    norm: Vec<u64>,
    /// Staged clamped demand per slot (meaningful while `dirty[slot]`).
    staged: Vec<u64>,
    dirty: Vec<bool>,
    dirty_slots: Vec<usize>,
    live_count: usize,
    apportioner: IncrementalApportioner,
    /// Quotas as a plan instead of per-slot values (see [`LazyPlan`]);
    /// `None` when the slots hold them.
    lazy: Option<LazyPlan>,
    /// Lazily rebuilt max-heap of `(quota, Reverse(slot))` over live slots,
    /// making admission bursts `O(log n)` amortized; invalidated whenever
    /// quotas change outside `admit_tenant` itself.
    donor_heap: Option<BinaryHeap<(u64, Reverse<usize>)>>,
    /// Slots touched by min-one fixups — with the treap's visit counter,
    /// the work meter behind [`apportion_ops`](Self::apportion_ops).
    fixup_ops: u64,
    events: Vec<RebalanceEvent>,
}

impl GlobalController {
    /// A controller managing `fast_budget_pages` of physical fast memory
    /// under the default [`ObjectiveKind::Proportional`] objective.
    ///
    /// # Panics
    ///
    /// Panics if `fast_budget_pages == 0` or `floor_frac` is not in
    /// `[0, 0.5]`.
    pub fn new(fast_budget_pages: u64, floor_frac: f64) -> Self {
        assert!(fast_budget_pages > 0, "empty fast budget");
        assert!(
            (0.0..=0.5).contains(&floor_frac),
            "floor fraction {floor_frac} out of range"
        );
        Self {
            fast_budget_pages,
            floor_frac,
            objective: ObjectiveKind::Proportional,
            mode: ControllerMode::FullScan,
            tenants: Vec::new(),
            norm: Vec::new(),
            staged: Vec::new(),
            dirty: Vec::new(),
            dirty_slots: Vec::new(),
            live_count: 0,
            apportioner: IncrementalApportioner::default(),
            lazy: None,
            donor_heap: None,
            fixup_ops: 0,
            events: Vec::new(),
        }
    }

    /// Selects the quota objective (default
    /// [`ObjectiveKind::Proportional`]); it applies from the next
    /// rebalance on.
    #[must_use]
    pub fn with_objective_kind(mut self, kind: ObjectiveKind) -> Self {
        self.objective = kind;
        self
    }

    /// Selects the event shape (default [`ControllerMode::FullScan`]).
    #[must_use]
    pub fn with_mode(mut self, mode: ControllerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Registers a tenant and resets all **live** tenants to equal initial
    /// shares of the budget (remainder pages go to the earliest live
    /// tenants). Returns the tenant's index for subsequent calls. Use
    /// before the run starts; mid-run arrivals go through
    /// [`admit_tenant`](GlobalController::admit_tenant), which leaves
    /// incumbent quotas standing.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot give every live tenant at least one
    /// fast page — the min-one quota guarantee needs
    /// `fast_budget_pages >= live tenants`.
    pub fn add_tenant(&mut self, name: &str, footprint_pages: u64) -> usize {
        assert!(
            self.fast_budget_pages > self.num_live() as u64,
            "budget of {} pages cannot hold one page per tenant for {} tenants",
            self.fast_budget_pages,
            self.num_live() + 1,
        );
        let slot = self.register_slot(name, footprint_pages, 0);
        // The reset discards every prior quota, so nothing needs
        // materializing first, and the split stays a lazy plan —
        // registering an n-tenant fleet is O(n) total. With retired slots
        // in the table the live ranks are no longer the indices, so fall
        // back to the eager loop.
        self.donor_heap = None;
        let n = self.live_count as u64;
        let base = self.fast_budget_pages / n;
        let rem = self.fast_budget_pages % n;
        if self.live_count == self.tenants.len() {
            self.lazy = Some(LazyPlan {
                floor: 0,
                plan: ApportionPlan::Equal { base, rem },
            });
        } else {
            self.lazy = None;
            let mut live_idx = 0u64;
            for t in self.tenants.iter_mut() {
                if t.live {
                    t.quota = base + u64::from(live_idx < rem);
                    live_idx += 1;
                }
            }
        }
        slot
    }

    /// Pushes one live slot with the shared side-table bookkeeping: the
    /// demand model starts at 1 (the clamp of "no demand reported yet"),
    /// mirrored into the apportioner.
    fn register_slot(&mut self, name: &str, footprint_pages: u64, quota: u64) -> usize {
        self.tenants.push(TenantSlot {
            name: name.to_string(),
            footprint_pages,
            quota,
            live: true,
        });
        self.norm.push(1);
        self.staged.push(1);
        self.dirty.push(false);
        self.live_count += 1;
        let slot = self.tenants.len() - 1;
        self.apportioner.insert(slot, 1);
        slot
    }

    /// Admits a tenant **mid-run** under the min-one guarantee: the
    /// newcomer immediately receives one fast page — carved from the live
    /// tenant with the largest current quota (lowest index on ties) — and
    /// earns its real share at the next rebalance. If no tenant is live,
    /// the newcomer takes the whole parked budget. Incumbent quotas are
    /// otherwise untouched, so live quotas keep summing to the budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot hold one page per live tenant after
    /// admission.
    pub fn admit_tenant(&mut self, name: &str, footprint_pages: u64) -> usize {
        assert!(
            self.fast_budget_pages > self.num_live() as u64,
            "budget of {} pages cannot admit a tenant beyond {} live tenants",
            self.fast_budget_pages,
            self.num_live(),
        );
        self.materialize();
        let quota = if self.live_count == 0 {
            self.fast_budget_pages
        } else {
            // The donor is the largest live quota, lowest slot on ties —
            // found through a lazily-built max-heap so admission bursts at
            // fleet scale cost O(log n) amortized instead of a full scan
            // each (the heap survives across consecutive admits and is
            // invalidated by anything else that moves quotas).
            if self.donor_heap.is_none() {
                self.donor_heap = Some(
                    self.tenants
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.live)
                        .map(|(j, t)| (t.quota, Reverse(j)))
                        .collect(),
                );
            }
            let heap = self.donor_heap.as_mut().expect("just built");
            let donor = loop {
                let (q, Reverse(j)) = heap.pop().expect("a live tenant exists");
                // Entries go stale when a popped slot's quota was since
                // re-pushed lower; every live slot's current pair is always
                // present, so the first matching pop is the true maximum.
                if self.tenants[j].live && self.tenants[j].quota == q {
                    break j;
                }
            };
            // Pigeonhole: budget > live count and every live quota ≥ 1, so
            // the largest live quota is ≥ 2 and stays enforceable.
            debug_assert!(self.tenants[donor].quota >= 2, "pigeonhole violated");
            self.tenants[donor].quota -= 1;
            let updated = (self.tenants[donor].quota, Reverse(donor));
            self.donor_heap.as_mut().expect("just built").push(updated);
            1
        };
        let slot = self.register_slot(name, footprint_pages, quota);
        if let Some(heap) = &mut self.donor_heap {
            heap.push((quota, Reverse(slot)));
        }
        slot
    }

    /// Retires a tenant: its slot goes dead (index preserved, quota zero)
    /// and its fast pages are reclaimed into the budget **immediately** —
    /// spread equally over the remaining live tenants, remainder pages to
    /// the lowest-indexed ones — so live quotas re-sum to the budget after
    /// every event. With no live tenant left the budget parks until the
    /// next [`admit_tenant`](GlobalController::admit_tenant).
    ///
    /// # Panics
    ///
    /// Panics if the slot is already retired.
    pub fn retire_tenant(&mut self, idx: usize) {
        assert!(self.tenants[idx].live, "tenant {idx} retired twice");
        self.materialize();
        let reclaimed = self.tenants[idx].quota;
        self.tenants[idx].quota = 0;
        self.tenants[idx].live = false;
        self.apportioner.remove(idx, self.norm[idx]);
        self.norm[idx] = 0;
        self.live_count -= 1;
        self.donor_heap = None;
        let m = self.live_count as u64;
        if m == 0 {
            return;
        }
        let base = reclaimed / m;
        let rem = reclaimed % m;
        let mut live_idx = 0u64;
        for t in self.tenants.iter_mut() {
            if t.live {
                t.quota += base + u64::from(live_idx < rem);
                live_idx += 1;
            }
        }
    }

    /// Number of registered tenant slots (live and retired).
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Number of live tenants (an `O(1)` counter — `floor_pages` and the
    /// admission asserts hit this on every churn event, so it must not be
    /// a scan at fleet scale).
    pub fn num_live(&self) -> usize {
        self.live_count
    }

    /// Whether the slot is live (registered and not retired).
    pub fn is_live(&self, idx: usize) -> bool {
        self.tenants[idx].live
    }

    /// The live mask over registration slots — the fleet composition.
    pub fn live_mask(&self) -> Vec<bool> {
        self.tenants.iter().map(|t| t.live).collect()
    }

    /// The tenant's registered name.
    pub fn tenant_name(&self, idx: usize) -> &str {
        &self.tenants[idx].name
    }

    /// Pages the tenant's address space spans.
    pub fn footprint_pages(&self, idx: usize) -> u64 {
        self.tenants[idx].footprint_pages
    }

    /// The tenant's current fast-tier quota in pages. Under a lazy plan
    /// (a rebalance or the equal seed split) this evaluates the plan for
    /// the slot in `O(1)`; the result is identical to the materialized
    /// quota.
    pub fn quota(&self, idx: usize) -> u64 {
        let t = &self.tenants[idx];
        if !t.live {
            return 0;
        }
        match &self.lazy {
            Some(lz) => lz.floor + plan_alloc(&lz.plan, idx, self.norm[idx]),
            None => t.quota,
        }
    }

    /// Current quotas in tenant order.
    pub fn quotas(&self) -> Vec<u64> {
        (0..self.tenants.len()).map(|i| self.quota(i)).collect()
    }

    /// Folds an outstanding lazy plan into materialized per-slot quotas —
    /// the `O(n)` step churn and the min-one fixup pay so they can mutate
    /// individual quotas. A no-op when quotas are already materialized.
    fn materialize(&mut self) {
        let Some(lz) = self.lazy.take() else {
            return;
        };
        for i in 0..self.tenants.len() {
            let q = if self.tenants[i].live {
                lz.floor + plan_alloc(&lz.plan, i, self.norm[i])
            } else {
                0
            };
            self.tenants[i].quota = q;
        }
        self.donor_heap = None;
    }

    /// The physical fast budget being partitioned.
    pub fn fast_budget_pages(&self) -> u64 {
        self.fast_budget_pages
    }

    /// The per-tenant quota floor in pages at the current **live** tenant
    /// count (zero until a tenant is live).
    pub fn floor_pages(&self) -> u64 {
        let n = self.num_live() as u64;
        if n == 0 {
            0
        } else {
            (self.fast_budget_pages as f64 * self.floor_frac / n as f64) as u64
        }
    }

    /// The tier configuration a tenant's private runtime should start from:
    /// fast capacity = current quota, slow capacity and address space = the
    /// tenant's footprint (the paper's slow tier alone always holds the
    /// whole footprint).
    pub fn tier_config(&self, idx: usize, page_size: PageSize) -> TierConfig {
        let t = &self.tenants[idx];
        TierConfig {
            fast_capacity_pages: self.quota(idx),
            slow_capacity_pages: t.footprint_pages,
            page_size,
            address_space_pages: t.footprint_pages,
        }
    }

    /// Re-partitions the fast budget across **live** tenants according to
    /// the active [`ObjectiveKind`] and the reported demand per slot
    /// (index-aligned with registration order; departed slots' entries are
    /// ignored), with the configured floor, and records the result as a
    /// [`RebalanceEvent`].
    ///
    /// Guarantees (property-tested for every objective):
    /// * live quotas sum to exactly the budget (departed slots hold 0);
    /// * every live tenant keeps at least the floor share — and at least
    ///   one page, so the recorded quota is always an enforceable capacity;
    /// * equal inputs produce identical events (exact integer arithmetic);
    /// * raising one tenant's demand while others hold still never lowers
    ///   that tenant's quota.
    ///
    /// # Panics
    ///
    /// Panics if `demands.len()` differs from the registered slot count or
    /// no tenant is live.
    pub fn rebalance(&mut self, at_ns: u64, demands: &[u64]) -> RebalanceEvent {
        assert_eq!(demands.len(), self.tenants.len(), "one demand per tenant");
        for (slot, &d) in demands.iter().enumerate() {
            if self.tenants[slot].live {
                self.update_demand(slot, d);
            }
        }
        self.rebalance_dirty(at_ns)
    }

    /// Stages one tenant's demand signal for the next
    /// [`rebalance_dirty`](Self::rebalance_dirty), clamping it exactly as
    /// [`rebalance`](Self::rebalance) always has. Only *changed* demands
    /// mark the slot dirty — re-reporting an unchanged demand is free — so
    /// callers can push every active tenant's signal each round and still
    /// get `O(k)` dirty slots. Demands for retired slots are ignored
    /// (matching `rebalance`, which has always ignored dead entries).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never registered.
    pub fn update_demand(&mut self, slot: usize, demand: u64) {
        if !self.tenants[slot].live {
            return;
        }
        let clamped = demand.clamp(1, DEMAND_CLAMP);
        if self.dirty[slot] {
            self.staged[slot] = clamped;
        } else if self.norm[slot] != clamped {
            self.dirty[slot] = true;
            self.staged[slot] = clamped;
            self.dirty_slots.push(slot);
        }
    }

    /// Re-partitions the budget from the staged demand deltas — the
    /// fleet-scale half of the split API. Applies every dirty slot to the
    /// demand model and the apportioner, plans the apportionment in
    /// `O((k + v) log n)` and leaves the quotas lazy as `floor + plan`.
    /// Only when the smallest of those is 0 does it materialize them and
    /// run the min-one fixup. The [`ControllerMode`] decides only the
    /// shape of the recorded event.
    ///
    /// # Panics
    ///
    /// Panics if no tenant is live.
    pub fn rebalance_dirty(&mut self, at_ns: u64) -> RebalanceEvent {
        let m = self.live_count;
        assert!(m > 0, "rebalance with no live tenants");

        while let Some(slot) = self.dirty_slots.pop() {
            self.dirty[slot] = false;
            if !self.tenants[slot].live {
                continue;
            }
            let (old, new) = (self.norm[slot], self.staged[slot]);
            if old == new {
                continue;
            }
            self.apportioner.remove(slot, old);
            self.apportioner.insert(slot, new);
            self.norm[slot] = new;
        }

        let floor = self.floor_pages();
        let distributable = self.fast_budget_pages.saturating_sub(floor * m as u64);
        self.donor_heap = None;
        let plan = self.apportioner.plan(self.objective, distributable);
        // The smallest lazy quota is `floor + min_alloc`; only a zero there
        // gives the min-one fixup anything to do.
        let fixup = floor + self.apportioner.min_alloc(&plan) == 0;
        self.lazy = Some(LazyPlan { floor, plan });
        if fixup {
            self.materialize();
            self.min_one_fixup();
        }

        let mut event = RebalanceEvent {
            at_ns,
            objective: self.objective.label().to_string(),
            floor_pages: floor,
            live: Vec::new(),
            demands: Vec::new(),
            quotas: Vec::new(),
        };
        if self.mode == ControllerMode::FullScan {
            event.live = self.live_mask();
            event.demands = self.norm.clone();
            event.quotas = self.quotas();
        }
        self.events.push(event.clone());
        event
    }

    /// Min-one guarantee over materialized quotas: a quota of zero is not
    /// an enforceable fast capacity, so top live zeros up to one page,
    /// taking each page from the largest current live quota (lowest
    /// demand, then lowest index, on ties — the tie-break that keeps quota
    /// ordering aligned with demand ordering). Admission guarantees
    /// budget ≥ live tenants, so while a live zero exists some live quota
    /// is ≥ 2 by pigeonhole.
    ///
    /// The donor key (q, Reverse(norm[j]), Reverse(j)) is injective in j,
    /// so each donor is the unique maximum and a lazily-deleted max-heap
    /// pops the same donor sequence a per-zero rescan would (the test
    /// oracle's form) — in O((n + zeros) log n) instead of O(zeros · n). A
    /// donor's quota only decreases (and a topped-up zero jumps 0 → 1
    /// exactly once), so a stale entry can never collide with a slot's
    /// current quota; the `quota == q` freshness check is exact.
    fn min_one_fixup(&mut self) {
        type DonorKey = (u64, Reverse<u64>, Reverse<usize>);
        let (tenants, norm) = (&mut self.tenants, &self.norm);
        self.fixup_ops += tenants.len() as u64;
        let mut donors: Option<BinaryHeap<DonorKey>> = None;
        for i in 0..tenants.len() {
            if tenants[i].live && tenants[i].quota == 0 {
                let heap = donors.get_or_insert_with(|| {
                    (0..tenants.len())
                        .filter(|&j| tenants[j].live)
                        .map(|j| (tenants[j].quota, Reverse(norm[j]), Reverse(j)))
                        .collect()
                });
                let donor = loop {
                    let &(q, _, Reverse(j)) = heap.peek().expect("a live tenant exists");
                    if tenants[j].quota == q {
                        break j;
                    }
                    heap.pop(); // stale: j's quota changed since this entry
                };
                debug_assert!(tenants[donor].quota >= 2, "pigeonhole violated");
                heap.pop();
                tenants[donor].quota -= 1;
                heap.push((tenants[donor].quota, Reverse(norm[donor]), Reverse(donor)));
                tenants[i].quota = 1;
                heap.push((1, Reverse(norm[i]), Reverse(i)));
            }
        }
    }

    /// Work meter for the sub-linearity tests: tree-node visits and
    /// class-walk steps performed by the apportioner plus slots touched by
    /// min-one fixups. Counted (not timed) so CI can assert that a
    /// dirty-slot rebalance at 10⁴ tenants does sub-linear work without
    /// wall-clock flakiness.
    pub fn apportion_ops(&self) -> u64 {
        self.fixup_ops + self.apportioner.ops()
    }

    /// The full rebalance trace, in call order.
    pub fn events(&self) -> &[RebalanceEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybridtier::{HybridTierConfig, HybridTierPolicy};
    use crate::policy::{PolicyCtx, TieringPolicy};
    use tiering_mem::{PageId, Tier, TieredMemory};
    use tiering_trace::Sample;

    /// Builds a tenant runtime at the controller's current quota and feeds
    /// it a synthetic hot set, returning its demand signal.
    fn demand_after_feed(
        g: &GlobalController,
        idx: usize,
        pages: u64,
        samples_per_page: u32,
    ) -> u64 {
        let cfg = g.tier_config(idx, PageSize::Base4K);
        let mut policy = HybridTierPolicy::new(HybridTierConfig::scaled(), &cfg);
        let mut mem = TieredMemory::new(cfg);
        let mut ctx = PolicyCtx::new();
        for p in 0..pages {
            mem.ensure_mapped(PageId(p), Tier::Slow);
        }
        for s in 0..samples_per_page {
            for p in 0..pages {
                policy.on_sample_batch(
                    &[Sample {
                        page: PageId(p),
                        addr: p << 12,
                        tier: mem.tier_of(PageId(p)).unwrap_or(Tier::Slow),
                        at_ns: u64::from(s) * 1_000 + p,
                        is_write: false,
                    }],
                    &mut mem,
                    &mut ctx,
                );
            }
        }
        policy.fast_demand_pages(&mem)
    }

    #[test]
    fn tenants_start_with_equal_shares() {
        let mut g = GlobalController::new(1_001, 0.1);
        g.add_tenant("a", 10_000);
        g.add_tenant("b", 10_000);
        assert_eq!(g.num_tenants(), 2);
        assert_eq!(g.quota(0) + g.quota(1), 1_001, "budget fully assigned");
        assert!(g.quota(0).abs_diff(g.quota(1)) <= 1, "equal initial shares");
        assert_eq!(g.tenant_name(1), "b");
        assert_eq!(g.footprint_pages(0), 10_000);
    }

    /// Quotas read lazily equal the quotas after the fold, whether
    /// `add_tenant` left the equal split as a plan (every slot live) or
    /// wrote it slot by slot (after a retire), and after admissions.
    #[test]
    fn add_tenant_split_reads_the_same_lazy_and_folded() {
        fn lazy_equals_folded(g: &mut GlobalController, lazy: bool, what: &str) -> Vec<u64> {
            assert_eq!(g.lazy.is_some(), lazy, "{what}: plan state");
            let read = g.quotas();
            g.materialize();
            assert!(g.lazy.is_none(), "{what}: folded");
            assert_eq!(g.quotas(), read, "{what}: lazy ≠ folded");
            assert_eq!(read.iter().sum::<u64>(), g.fast_budget_pages(), "{what}");
            read
        }
        let mut g = GlobalController::new(1_003, 0.1);
        for name in ["a", "b", "c"] {
            g.add_tenant(name, 10_000);
        }
        assert_eq!(lazy_equals_folded(&mut g, true, "seed"), [335, 334, 334]);
        // After admissions every slot is still live: the split is a plan.
        g.admit_tenant("d", 10_000);
        g.admit_tenant("e", 10_000);
        g.add_tenant("f", 10_000);
        assert_eq!(
            lazy_equals_folded(&mut g, true, "after admissions"),
            [168, 167, 167, 167, 167, 167]
        );
        // After a retire the live ranks are not the slots: eager loop.
        g.retire_tenant(1);
        g.add_tenant("g", 10_000);
        assert_eq!(
            lazy_equals_folded(&mut g, false, "after a retire"),
            [168, 0, 167, 167, 167, 167, 167]
        );
        // A rebalance over the split reads the same through either path.
        g.rebalance(0, &[5, 0, 1, 1, 1, 1, 9]);
        lazy_equals_folded(&mut g, true, "after a rebalance");
    }

    #[test]
    fn hot_tenant_receives_larger_quota() {
        let mut g = GlobalController::new(1_000, 0.1);
        let a = g.add_tenant("hot", 10_000);
        let b = g.add_tenant("idle", 10_000);
        let hot_demand = demand_after_feed(&g, a, 400, 6);
        assert!(hot_demand > 100, "feeding builds real demand: {hot_demand}");
        let event = g.rebalance(0, &[hot_demand, 1]);
        assert!(
            event.quotas[a] > 2 * event.quotas[b],
            "hot tenant should dominate: {:?}",
            event.quotas
        );
        assert_eq!(event.assigned(), 1_000);
    }

    #[test]
    fn floor_keeps_idle_tenants_alive() {
        let mut g = GlobalController::new(1_000, 0.2);
        let _hot = g.add_tenant("hot", 10_000);
        let idle = g.add_tenant("idle", 10_000);
        let event = g.rebalance(0, &[5_000, 0]);
        assert!(
            event.quotas[idle] >= 100,
            "idle tenant must keep its floor share, got {}",
            event.quotas[idle]
        );
        assert_eq!(g.floor_pages(), 100);
    }

    /// The wake-up transition the `multi_tenant` example demonstrates, as a
    /// typed event trace: the batch tenant idles for two rebalances, then
    /// wakes with a demand far beyond the cache tenant's — its quota must
    /// grow strictly across the transition and end dominant, and every
    /// event must assign the full budget.
    #[test]
    fn wakeup_transition_produces_event_trace() {
        let mut g = GlobalController::new(4_000, 0.1);
        let cache = g.add_tenant("cache", 40_000);
        let batch = g.add_tenant("batch", 40_000);

        g.rebalance(100, &[900, 10]);
        g.rebalance(200, &[900, 10]);
        let asleep = g.quota(batch);
        g.rebalance(300, &[900, 2_600]); // batch wakes up
        let awake = g.quota(batch);

        let events = g.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.at_ns).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert!(events.iter().all(|e| e.assigned() == 4_000));
        assert!(
            awake > asleep,
            "woken tenant's quota must grow: {asleep} -> {awake}"
        );
        assert!(
            g.quota(batch) > g.quota(cache),
            "demand leader takes the larger share: {:?}",
            g.quotas()
        );
        // The trace reproduces the stored state.
        assert_eq!(events[2].quotas, g.quotas());
    }

    #[test]
    fn shrunk_quota_is_enforced_by_memory() {
        let mut g = GlobalController::new(1_000, 0.1);
        let a = g.add_tenant("a", 10_000);
        let mut mem = TieredMemory::new(g.tier_config(a, PageSize::Base4K));
        for p in 0..1_000u64 {
            mem.ensure_mapped(PageId(p), Tier::Fast);
        }
        g.add_tenant("b", 10_000);
        g.rebalance(0, &[100, 800]);
        mem.set_fast_capacity(g.quota(a));
        assert_eq!(mem.config().fast_capacity_pages, g.quota(a).max(1));
        // Over-quota state is visible so the policy's watermark demotion
        // drains it on subsequent ticks.
        assert_eq!(mem.fast_free(), 0);
        assert!(mem.fast_used() > g.quota(a));
    }

    #[test]
    fn rebalance_is_exact_and_deterministic() {
        let run = || {
            let mut g = GlobalController::new(7_777, 0.15);
            g.add_tenant("a", 1_000);
            g.add_tenant("b", 1_000);
            g.add_tenant("c", 1_000);
            g.rebalance(5, &[13, 999, 100_000])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "empty fast budget")]
    fn zero_budget_rejected() {
        let _ = GlobalController::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "one demand per tenant")]
    fn demand_arity_checked() {
        let mut g = GlobalController::new(100, 0.1);
        g.add_tenant("a", 10);
        g.rebalance(0, &[1, 2]);
    }

    #[test]
    fn admit_carves_min_one_and_conserves_the_budget() {
        let mut g = GlobalController::new(1_000, 0.1);
        g.add_tenant("a", 10_000);
        g.add_tenant("b", 10_000);
        g.rebalance(10, &[700, 300]);
        let before = g.quotas();
        let c = g.admit_tenant("c", 5_000);
        assert_eq!(g.quota(c), 1, "newcomer starts at the min-one share");
        assert_eq!(g.quotas().iter().sum::<u64>(), 1_000, "budget conserved");
        // Exactly one page moved, from the largest incumbent quota.
        let donor = usize::from(before[1] > before[0]);
        assert_eq!(g.quota(donor), before[donor] - 1);
        assert!(g.is_live(c));
        assert_eq!(g.num_live(), 3);
    }

    #[test]
    fn retire_reclaims_pages_into_live_quotas() {
        let mut g = GlobalController::new(999, 0.1);
        g.add_tenant("a", 10_000);
        g.add_tenant("b", 10_000);
        g.add_tenant("c", 10_000);
        g.rebalance(5, &[100, 100, 800]);
        let reclaimed = g.quota(2);
        let (a_before, b_before) = (g.quota(0), g.quota(1));
        g.retire_tenant(2);
        assert!(!g.is_live(2));
        assert_eq!(g.quota(2), 0, "retired slot holds nothing");
        assert_eq!(
            g.quota(0) + g.quota(1),
            a_before + b_before + reclaimed,
            "departed pages reclaimed into live quotas"
        );
        assert_eq!(g.quotas().iter().sum::<u64>(), 999, "budget conserved");
        assert_eq!(g.live_mask(), vec![true, true, false]);
        // The next rebalance decides over the shrunk fleet only.
        let event = g.rebalance(20, &[50, 50, 123_456]);
        assert_eq!(event.quotas[2], 0);
        assert_eq!(event.demands[2], 0, "dead slot demand is ignored");
        assert_eq!(event.live, vec![true, true, false]);
        assert_eq!(event.assigned(), 999);
    }

    #[test]
    fn last_tenant_out_parks_the_budget_and_readmission_takes_it() {
        let mut g = GlobalController::new(500, 0.1);
        g.add_tenant("a", 1_000);
        g.retire_tenant(0);
        assert_eq!(g.num_live(), 0);
        assert_eq!(g.quotas().iter().sum::<u64>(), 0, "budget parked");
        let b = g.admit_tenant("b", 2_000);
        assert_eq!(g.quota(b), 500, "sole live tenant takes the full budget");
    }

    #[test]
    fn events_record_objective_and_floor() {
        let mut g = GlobalController::new(1_000, 0.2).with_objective_kind(ObjectiveKind::MaxMin);
        g.add_tenant("a", 1_000);
        g.add_tenant("b", 1_000);
        let e = g.rebalance(3, &[10, 2_000]);
        assert_eq!(e.objective, "max-min");
        assert_eq!(e.floor_pages, g.floor_pages());
        assert_eq!(e.live, vec![true, true]);
        assert_eq!(e.assigned(), 1_000);
        // Max-min fully satisfies the small demand above its floor.
        assert_eq!(e.quotas[0], e.floor_pages + 10);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_is_loud() {
        let mut g = GlobalController::new(100, 0.1);
        g.add_tenant("a", 10);
        g.retire_tenant(0);
        g.retire_tenant(0);
    }

    fn paired(
        kind: ObjectiveKind,
        budget: u64,
        floor: f64,
        n: usize,
    ) -> (GlobalController, GlobalController) {
        let mut full = GlobalController::new(budget, floor).with_objective_kind(kind);
        let mut inc = GlobalController::new(budget, floor)
            .with_objective_kind(kind)
            .with_mode(ControllerMode::Incremental);
        for i in 0..n {
            full.add_tenant(&format!("t{i}"), 512);
            inc.add_tenant(&format!("t{i}"), 512);
        }
        (full, inc)
    }

    #[test]
    fn incremental_events_are_compact() {
        let (_, mut inc) = paired(ObjectiveKind::Proportional, 1_000, 0.1, 4);
        let ev = inc.rebalance(5, &[10, 20, 30, 40]);
        assert!(ev.live.is_empty() && ev.demands.is_empty() && ev.quotas.is_empty());
        assert_eq!(ev.assigned(), 0, "compact events report no assignment");
        assert_eq!(ev.floor_pages, inc.floor_pages());
        // The controller itself still answers exact quotas.
        assert_eq!(inc.quotas().iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn full_scan_mode_keeps_historical_event_shape() {
        let (mut full, _) = paired(ObjectiveKind::Proportional, 1_000, 0.1, 4);
        let ev = full.rebalance(5, &[10, 20, 30, 40]);
        assert_eq!(ev.quotas, full.quotas());
        assert_eq!(ev.demands.len(), 4);
        assert_eq!(ev.live, vec![true; 4]);
    }

    #[test]
    fn apportion_ops_stay_sublinear_for_sparse_updates() {
        let n = 4_096;
        let mut inc = GlobalController::new(16 * n as u64, 0.0)
            .with_objective_kind(ObjectiveKind::MaxMin)
            .with_mode(ControllerMode::Incremental);
        for i in 0..n {
            inc.add_tenant(&format!("t{i}"), 64);
        }
        inc.rebalance_dirty(0); // settle the idle fleet
        let baseline = inc.apportion_ops();
        let rounds = 32u64;
        for round in 0..rounds {
            for j in 0..8u64 {
                inc.update_demand(((round * 131 + j * 17) as usize) % n, 100 + round * j);
            }
            inc.rebalance_dirty(round + 1);
        }
        let per_round = (inc.apportion_ops() - baseline) / rounds;
        // Full scans would cost ≥ n = 4096 ops per round; the incremental
        // path does k·O(log n) tree visits. Leave generous slack.
        assert!(
            per_round < n as u64 / 4,
            "expected sub-linear work, got {per_round} ops/round"
        );
    }

    #[test]
    fn admission_burst_matches_scan_donor_semantics() {
        // The donor heap must pick the same donor as the historical
        // max-by-(quota, lowest-index) scan, across a burst of admissions
        // with no rebalance in between.
        for mode in [ControllerMode::FullScan, ControllerMode::Incremental] {
            let mut g = GlobalController::new(997, 0.0).with_mode(mode);
            for i in 0..5 {
                g.add_tenant(&format!("t{i}"), 64);
            }
            g.rebalance(0, &[400, 30, 30, 30, 7]);
            let mut reference: Vec<u64> = g.quotas();
            for i in 0..40 {
                g.admit_tenant(&format!("late{i}"), 64);
                // Reference model: donor = max quota, lowest slot on ties.
                let donor = (0..reference.len())
                    .max_by_key(|&j| (reference[j], Reverse(j)))
                    .unwrap();
                reference[donor] -= 1;
                reference.push(1);
                assert_eq!(g.quotas(), reference, "mode {mode:?} admission {i}");
            }
            assert_eq!(g.quotas().iter().sum::<u64>(), 997);
        }
    }
}
