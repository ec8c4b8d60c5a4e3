//! Global memory tiering across co-located tenants (paper §7).
//!
//! The paper sketches — but does not evaluate — a central controller that
//! re-partitions the fast tier across HybridTier instances. This experiment
//! produces the figure that evaluation would have shown: the per-tenant
//! fast-quota trajectory as a mostly idle tenant wakes up next to a hot
//! cache tenant, using the exact scenario the `multi_tenant` example runs
//! (`Scenario::wakeup_demo`), so the printed trajectory and the example's
//! output are the same numbers.

use tiering_runner::{Scenario, SweepRunner};
use tiering_sim::SimConfig;

use super::Budget;
use crate::{Cell, Figure, SEED};

/// §7: the wake-up quota trajectory plus per-tenant service quality, over
/// a 100 ms horizon covering the 40 ms tenant wake-up plus several
/// rebalance periods on each side.
pub fn sec7(_: &Budget) -> Figure {
    let config = SimConfig::default().with_max_sim_ns(100_000_000);
    let sweep = SweepRunner::new(0).run(vec![Scenario::wakeup_demo(&config, SEED)]);
    let multi = sweep.results[0]
        .multi
        .as_ref()
        .expect("`Scenario::wakeup_demo` is a fleet scenario");
    let mut fig = Figure::new(
        "sec7",
        [
            "t_ms",
            "cache_demand",
            "batch_demand",
            "cache_quota",
            "batch_quota",
        ],
    );
    for e in &multi.rebalances {
        fig.row(vec![
            Cell::fixed(e.at_ns as f64 / 1e6, 3),
            Cell::int(e.demands[0]),
            Cell::int(e.demands[1]),
            Cell::int(e.quotas[0]),
            Cell::int(e.quotas[1]),
        ]);
    }
    for line in multi.summary().lines() {
        fig.note(line);
    }
    fig
}
