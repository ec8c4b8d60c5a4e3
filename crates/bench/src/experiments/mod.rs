//! One function per paper result (figure or table).
//!
//! Each is a pure `fn(&Budget) -> Figure`: it runs its sweep at the given
//! [`Budget`] and returns the rows and notes, printing nothing.
//! [`render`](crate::render) prints and writes every one of them the same
//! way. `repro` runs them at [`Budget::paper`]; the paper-claims suite
//! (`crates/bench/tests/paper_claims.rs`) runs the same functions at a
//! smaller budget and asserts the paper's shapes on what they return.

pub mod adaptation;
pub mod cache_overhead;
pub mod colocation;
pub mod metadata;
pub mod motivation;
pub mod performance;

use tiering_runner::ScenarioResult;
use tiering_sim::{SimConfig, SimReport};

use crate::Figure;

/// How long the multi-run experiments simulate. Every field is a run
/// length; the experiments fix everything else, including the length of
/// the runs that are cheap enough to keep one size (Figures 2, 3b, 5,
/// 13, 14 and 16, Table 5, §7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Budget {
    /// Ops per scenario of the steady-state sweeps (Figures 9–12, 15, 17).
    pub sweep_ops: u64,
    /// Simulated horizon of the adaptation runs (Figure 4, Table 3).
    pub adaptation_ns: u64,
    /// Simulated instant of the hotness shift in those runs.
    pub shift_ns: u64,
}

impl Budget {
    /// The run lengths `repro` uses: long enough for placement to converge
    /// and several churn cycles to pass, short enough that the 180-run
    /// Figure 10 sweep stays in minutes. Time is compressed ~1000× against
    /// the paper (its 1800 s shift becomes 2 simulated seconds).
    pub fn paper() -> Self {
        Self {
            sweep_ops: 1_200_000,
            adaptation_ns: 8_000_000_000,
            shift_ns: 2_000_000_000,
        }
    }

    /// Engine configuration of the steady-state sweeps.
    pub fn sweep_config(&self) -> SimConfig {
        SimConfig::default().with_max_ops(self.sweep_ops)
    }

    /// Engine configuration of the adaptation runs: 100 ms windows over
    /// [`adaptation_ns`](Self::adaptation_ns).
    pub fn adaptation_config(&self) -> SimConfig {
        SimConfig {
            window_ns: 100_000_000,
            max_sim_ns: self.adaptation_ns,
            ..SimConfig::default()
        }
    }
}

/// One `repro` id: its title and the function that computes it.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The id `repro` accepts, also the CSV file stem.
    pub id: &'static str,
    /// One line saying what the figure shows.
    pub title: &'static str,
    /// Runs the experiment.
    pub run: fn(&Budget) -> Figure,
}

/// Every experiment `repro` accepts, in `repro all` order.
pub const ALL: &[Experiment] = &[
    Experiment {
        id: "fig2",
        title: "hot-page retention over time (PR, XGBoost)",
        run: motivation::fig2,
    },
    Experiment {
        id: "fig3a",
        title: "EMA lag on a pulsed page",
        run: motivation::fig3a,
    },
    Experiment {
        id: "fig3b",
        title: "hotness classification vs cooling period",
        run: motivation::fig3b,
    },
    Experiment {
        id: "fig4",
        title: "median-latency timeline across a distribution shift",
        run: adaptation::fig4,
    },
    Experiment {
        id: "fig5",
        title: "Memtis tiering cache-miss fraction (4K + huge)",
        run: cache_overhead::fig5,
    },
    Experiment {
        id: "fig9",
        title: "CacheLib latency/throughput, 6 systems x 3 ratios",
        run: performance::fig9,
    },
    Experiment {
        id: "fig10",
        title: "GAP/SPEC/Silo/XGBoost relative performance vs TPP",
        run: performance::fig10,
    },
    Experiment {
        id: "fig11",
        title: "HybridTier vs all-fast-tier upper bound",
        run: performance::fig11,
    },
    Experiment {
        id: "fig12",
        title: "huge-page performance vs Memtis",
        run: performance::fig12,
    },
    Experiment {
        id: "fig13",
        title: "HybridTier tiering cache-miss fraction",
        run: cache_overhead::fig13,
    },
    Experiment {
        id: "fig14",
        title: "cache-miss breakdown: Memtis vs CBF vs blocked CBF",
        run: cache_overhead::fig14,
    },
    Experiment {
        id: "fig15",
        title: "frequency-only ablation at 1:8",
        run: performance::fig15,
    },
    Experiment {
        id: "fig16",
        title: "per-page access-count distributions, 12 workloads",
        run: metadata::fig16,
    },
    Experiment {
        id: "fig17",
        title: "momentum-threshold sensitivity",
        run: performance::fig17,
    },
    Experiment {
        id: "sec7",
        title: "global-controller quota trajectory across a tenant wake-up (§7)",
        run: colocation::sec7,
    },
    Experiment {
        id: "table3",
        title: "time to adapt to a new distribution",
        run: adaptation::table3,
    },
    Experiment {
        id: "table4",
        title: "metadata size relative to total memory",
        run: metadata::table4,
    },
    Experiment {
        id: "table5",
        title: "CBF migration-decision accuracy vs size",
        run: metadata::table5,
    },
];

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

/// The report of a scenario the calling figure function put in its own
/// sweep.
fn built(result: Option<&ScenarioResult>) -> &SimReport {
    &result
        .expect("a figure function reads only scenarios of the sweep it built")
        .report
}

/// Geometric mean, each value floored at 1e-9, summed in the given order.
fn geomean(values: &[f64]) -> f64 {
    let lnsum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (lnsum / values.len() as f64).exp()
}
