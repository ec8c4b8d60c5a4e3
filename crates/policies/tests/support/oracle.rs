//! The full-scan quota oracle for `GlobalController`.
//!
//! The three objectives written as full scans over every live demand —
//! the exact weighted split, max-min progressive filling and the
//! three-phase SLO greedy — which the controller's lazy apportioning plan
//! must match slot for slot. The min-one fixup sits beside them in its
//! plain per-zero rescan form (the controller's donor heap pops the same
//! donors). `global_incremental`, `global_properties` and
//! `global_churn_model` include this file with `mod` and compare the
//! controller, in both `ControllerMode`s, against [`quotas`].
#![allow(dead_code)] // each suite uses its own subset

use std::cmp::Reverse;

use tiering_policies::ObjectiveKind;

/// The controller's demand clamp: every demand is apportioned in
/// `[1, 2^40]`.
const DEMAND_CLAMP: u64 = 1 << 40;

/// The SLO point of `ObjectiveKind::SloUtility`.
const SLO_FRAC: f64 = 0.5;

/// A raw demand signal as the controller apportions it.
pub fn clamp(demand: u64) -> u64 {
    demand.clamp(1, DEMAND_CLAMP)
}

/// Exact weighted split: each tenant gets `amount * w_i / total` (128-bit
/// integer arithmetic), and the rounding dust all goes to the heaviest
/// weight — ties broken by `tiebreak` (the raw demands), then by highest
/// index (`max_by_key` semantics, matching the controller's historical
/// remainder rule). The demand tie-break matters for objectives whose
/// phase weights can tie while demands differ (e.g. SLO requirements
/// `ceil(d·frac)`): without it, dust could hand a strictly hungrier
/// tenant strictly less, breaking the demand-ordering contract. All-zero
/// weights degrade to an equal split (tie-break still by demand).
fn weighted_split(weights: &[u64], amount: u64, tiebreak: &[u64]) -> Vec<u64> {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if total == 0 {
        let ones = vec![1u64; weights.len()];
        return weighted_split(&ones, amount, tiebreak);
    }
    let mut out: Vec<u64> = weights
        .iter()
        .map(|&w| (u128::from(amount) * u128::from(w) / total) as u64)
        .collect();
    let assigned: u64 = out.iter().sum();
    let max_idx = weights
        .iter()
        .enumerate()
        .max_by_key(|&(i, &w)| (w, tiebreak[i], i))
        .map(|(i, _)| i)
        .expect("non-empty weights");
    out[max_idx] += amount - assigned;
    out
}

/// Proportional share: allocations proportional to demand.
fn proportional(demands: &[u64], amount: u64) -> Vec<u64> {
    weighted_split(demands, amount, demands)
}

/// Max-min fairness by progressive filling: demands are caps, the water
/// level rises until the budget is spent, and any surplus beyond total
/// demand is split equally.
fn max_min(demands: &[u64], amount: u64) -> Vec<u64> {
    let n = demands.len();
    let total: u128 = demands.iter().map(|&d| u128::from(d)).sum();
    if u128::from(amount) >= total {
        // Everyone satisfied; the surplus is split equally, one-page
        // dust going to the hungriest tenants first (ties: highest
        // index, consistent with `weighted_split`).
        let surplus = amount - total as u64;
        let base = surplus / n as u64;
        let dust = (surplus % n as u64) as usize;
        let mut out: Vec<u64> = demands.iter().map(|&d| d + base).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (demands[i], i));
        for &i in order.iter().rev().take(dust) {
            out[i] += 1;
        }
        return out;
    }
    // Progressive filling: satisfy demands in ascending order while the
    // equal share covers them; once it no longer does, every remaining
    // tenant gets the final water level (dust to the hungriest).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (demands[i], i));
    let mut out = vec![0u64; n];
    let mut remaining = amount;
    for (pos, &i) in order.iter().enumerate() {
        let active = (n - pos) as u64;
        let level = remaining / active;
        if demands[i] <= level {
            out[i] = demands[i];
            remaining -= demands[i];
        } else {
            let dust = (remaining - level * active) as usize;
            for &j in &order[pos..] {
                out[j] = level;
            }
            for &j in order.iter().rev().take(dust) {
                out[j] += 1;
            }
            remaining = 0;
            break;
        }
    }
    debug_assert_eq!(remaining, 0, "filling assigns the whole amount");
    out
}

/// The SLO requirement for one clamped demand: `ceil(d * slo_frac)`, kept
/// within `[1, d]` so it is always achievable and monotone in `d`.
fn slo_requirement(demand: u64) -> u64 {
    ((demand as f64 * SLO_FRAC).ceil() as u64).clamp(1, demand)
}

/// Piecewise-linear utility / SLO objective.
fn slo_utility(demands: &[u64], amount: u64) -> Vec<u64> {
    let req: Vec<u64> = demands.iter().map(|&d| slo_requirement(d)).collect();
    apportion_with_requirements(demands, &req, amount)
}

/// The three-phase greedy over an explicit requirement vector (each
/// entry already within `[1, d]`): requirements first, then the
/// post-requirement segments, then surplus beyond demand.
fn apportion_with_requirements(demands: &[u64], req: &[u64], amount: u64) -> Vec<u64> {
    let total_req: u128 = req.iter().map(|&r| u128::from(r)).sum();
    if u128::from(amount) <= total_req {
        // SLO pressure: the steep segments already exceed the budget —
        // allocate proportionally to the requirements (dust ties broken
        // by raw demand, so requirement ties cannot invert ordering).
        return weighted_split(req, amount, demands);
    }
    let mut out = req.to_vec();
    let mut remaining = amount - total_req as u64;
    let post: Vec<u64> = demands.iter().zip(req).map(|(&d, &r)| d - r).collect();
    let total_post: u128 = post.iter().map(|&p| u128::from(p)).sum();
    if u128::from(remaining) <= total_post {
        for (o, p) in out
            .iter_mut()
            .zip(weighted_split(&post, remaining, demands))
        {
            *o += p;
        }
        return out;
    }
    for (o, &p) in out.iter_mut().zip(&post) {
        *o += p;
    }
    remaining -= total_post as u64;
    for (o, s) in out
        .iter_mut()
        .zip(weighted_split(demands, remaining, demands))
    {
        *o += s;
    }
    out
}

/// Splits `amount` pages over `demands` (clamped, live tenants only) under
/// `kind`.
pub fn apportion(kind: ObjectiveKind, demands: &[u64], amount: u64) -> Vec<u64> {
    match kind {
        ObjectiveKind::Proportional => proportional(demands, amount),
        ObjectiveKind::MaxMin => max_min(demands, amount),
        ObjectiveKind::SloUtility => slo_utility(demands, amount),
    }
}

/// The per-tenant floor at `live` live tenants.
fn floor_pages(budget: u64, floor_frac: f64, live: usize) -> u64 {
    (budget as f64 * floor_frac / live as f64) as u64
}

/// Quotas before the min-one fixup: `floor + apportion(..)` for every live
/// slot in slot order, 0 for dead slots. `demands` are raw signals
/// (clamped here); dead slots' entries are ignored.
pub fn raw_quotas(
    kind: ObjectiveKind,
    budget: u64,
    floor_frac: f64,
    live: &[bool],
    demands: &[u64],
) -> Vec<u64> {
    let live_demands: Vec<u64> = (0..live.len())
        .filter(|&i| live[i])
        .map(|i| clamp(demands[i]))
        .collect();
    let floor = floor_pages(budget, floor_frac, live_demands.len());
    let distributable = budget.saturating_sub(floor * live_demands.len() as u64);
    let mut alloc = apportion(kind, &live_demands, distributable).into_iter();
    live.iter()
        .map(|&l| if l { floor + alloc.next().unwrap() } else { 0 })
        .collect()
}

/// Min-one guarantee: a quota of zero is not an enforceable fast
/// capacity, so top live zeros up to one page, taking each page from the
/// largest current live quota (lowest demand, then lowest index, on ties),
/// rescanning every slot for each zero.
fn min_one_fixup(quotas: &mut [u64], live: &[bool], demands: &[u64]) {
    let norm: Vec<u64> = demands.iter().map(|&d| clamp(d)).collect();
    for i in 0..quotas.len() {
        if live[i] && quotas[i] == 0 {
            // Only a strictly larger key replaces the donor, so ties keep
            // the lowest index.
            let mut donor: Option<usize> = None;
            for j in 0..quotas.len() {
                if live[j]
                    && donor.is_none_or(|k| {
                        (quotas[j], Reverse(norm[j])) > (quotas[k], Reverse(norm[k]))
                    })
                {
                    donor = Some(j);
                }
            }
            let donor = donor.expect("a live tenant exists");
            assert!(quotas[donor] >= 2, "pigeonhole violated");
            quotas[donor] -= 1;
            quotas[i] = 1;
        }
    }
}

/// What a controller's quotas must be after a rebalance over `live` with
/// raw `demands`.
pub fn quotas(
    kind: ObjectiveKind,
    budget: u64,
    floor_frac: f64,
    live: &[bool],
    demands: &[u64],
) -> Vec<u64> {
    let mut q = raw_quotas(kind, budget, floor_frac, live, demands);
    min_one_fixup(&mut q, live, demands);
    q
}
