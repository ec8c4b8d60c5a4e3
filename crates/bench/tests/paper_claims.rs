//! The paper's shapes, asserted on the functions `repro` renders.
//!
//! Every id in [`experiments::ALL`] runs here through the same
//! `fn(&Budget) -> Figure` that `repro` prints, at [`TEST`] instead of
//! [`Budget::paper`], and at least one test asserts a shape of HybridTier
//! (ASPLOS'25) §6 on the returned rows. `every_repro_id_has_a_claim` fails
//! when an id has none. Several claims on one id share one computed figure
//! through [`figure`].
//!
//! Each assertion's comment names the paper number it shadows and the value
//! `repro` prints at `Budget::paper()`. These comments are the
//! paper-vs-measured record. Bands are wide enough for model changes that
//! keep the shape and narrow enough to fail when a winner or a direction
//! flips.
//!
//! [`TEST`] shortens only what `Budget` holds: the steady-state sweeps run
//! 40× fewer ops and the adaptation runs a fifth of the horizon. Every other
//! experiment runs exactly as `repro` runs it. At 30 000 ops placement has
//! not converged, so in Figure 9 HybridTier leads only two of the six cells
//! it leads at `Budget::paper()`, and the claim asserts the winner in those
//! two (social 1:16, CDN 1:4). The winner is not checked in the other four;
//! their test-budget leaders are warm-up artefacts (ARC and TwoQ tied on CDN
//! 1:16 and 1:8, TPP on social 1:8, AutoNUMA on social 1:4). ARC leads both
//! 1:4 cells from 50 000 to at least 800 000 ops, and HybridTier first
//! leads CDN 1:8 somewhere between 500 000 and 800 000, so no affordable
//! test budget has the paper budget's leaders. In those four cells the
//! claim keeps HybridTier within 10 % of the best.
//!
//! Figure 10 asserts the winner at every ratio: the test budget has the
//! same leaders as `Budget::paper()`. Table 3 asserts only the 1:16 cells,
//! where the shortened post-shift horizon still separates the two systems.
//!
//! Where the model misses the paper, the claim asserts the measured
//! direction:
//! - Fig 5: 2 MiB pages lower Memtis's L1 tiering share (paper: 9 % → 13 %).
//!   Its LLC share is 2.9 %, not 18 %.
//! - Figs 13/14: at L1, HybridTier's tiering share and misses exceed
//!   Memtis's. Only the LLC and the 2 MiB L1 follow the paper.
//! - Fig 10: ARC leads the 1:16 geomean at both budgets (paper: HybridTier
//!   beats ARC by 50 %). HybridTier leads at 1:8 and 1:4.
//! - Fig 12: under 2 MiB pages HybridTier trails Memtis more as the fast
//!   tier grows (paper: +9 % / +11 % at 1:8 / 1:4).
//! - Fig 15: the frequency-only ablation is at parity everywhere (paper:
//!   −8.5 % on CacheLib and XGBoost).
//! - Fig 16: the GAP kernels, not the social graph, have the largest ≥ 15
//!   share, and GAP-Kronecker has 20–40 % of pages at count 0, not 94 %.
//! - Table 4: the reduction runs 21× → 7.4×, not 7.8× → 2.0×. The shape,
//!   shrinking as the fast tier grows, holds.

use std::sync::OnceLock;

use hybridtier_bench::{experiments, Budget, Figure};
use tiering_mem::{PageId, PageSize, Tier, TierConfig, TierRatio, TieredMemory};
use tiering_policies::{build_policy, PolicyCtx, PolicyKind};
use tiering_sim::{Engine, SimConfig};
use tiering_trace::{Sample, Workload};
use tiering_workloads::SequentialScanWorkload;

/// The claims' budget: every field smaller than `Budget::paper()`'s, so
/// the whole file runs in about a minute in debug on two cores. Here
/// Table 3 takes ≈ 23 s and Figure 10 ≈ 13 s, and both grow with these
/// fields.
const TEST: Budget = Budget {
    sweep_ops: 30_000,
    adaptation_ns: 1_500_000_000,
    shift_ns: 500_000_000,
};

const RATIOS: [&str; 3] = ["1:16", "1:8", "1:4"];
const COMPARED: [&str; 6] = ["TPP", "AutoNUMA", "Memtis", "ARC", "TwoQ", "HybridTier"];
const GAP: [&str; 6] = ["BFS-K", "BFS-U", "CC-K", "CC-U", "PR-K", "PR-U"];

/// The figure of experiment `id` at [`TEST`], computed once per process.
fn figure(id: &str) -> &'static Figure {
    static FIGURES: [OnceLock<Figure>; experiments::ALL.len()] =
        [const { OnceLock::new() }; experiments::ALL.len()];
    let i = experiments::ALL
        .iter()
        .position(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment {id}"));
    FIGURES[i].get_or_init(|| {
        let fig = (experiments::ALL[i].run)(&TEST);
        assert_eq!(fig.id, id, "a figure carries its own id");
        assert!(!fig.rows.is_empty(), "{id} has no rows at the test budget");
        fig
    })
}

/// The value of `column` in the one row matching `key`.
fn value(fig: &Figure, key: &[(&str, &str)], column: &str) -> f64 {
    fig.value(key, column).unwrap_or_else(|| {
        panic!(
            "{}: no single row {key:?} with a number in {column}",
            fig.id
        )
    })
}

/// The values of `column` in every row matching `key`, at least one.
fn values(fig: &Figure, key: &[(&str, &str)], column: &str) -> Vec<f64> {
    let v = fig.values(key, column);
    assert!(!v.is_empty(), "{}: no row {key:?} with {column}", fig.id);
    v
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[test]
fn every_repro_id_has_a_claim() {
    let source = include_str!("paper_claims.rs");
    for e in experiments::ALL {
        let call = format!("figure({:?})", e.id);
        assert!(source.contains(&call), "no claim calls {call}");
    }
    // Field by field, and exhaustively: a new field must be listed here.
    let Budget {
        sweep_ops,
        adaptation_ns,
        shift_ns,
    } = Budget::paper();
    assert_ne!(TEST.sweep_ops, sweep_ops);
    assert_ne!(TEST.adaptation_ns, adaptation_ns);
    assert_ne!(TEST.shift_ns, shift_ns);
}

/// Paper Fig 2: most initially hot pages are no longer hot after 5 minutes
/// (PageRank > 90 % decayed, XGBoost > 50 %).
#[test]
fn fig2_initial_hot_sets_turn_over() {
    let fig = figure("fig2");
    for workload in ["pr-K", "xgboost"] {
        let series = values(fig, &[("workload", workload)], "fraction_still_hot");
        assert_eq!(
            series[0], 1.0,
            "{workload}: the first window defines the set"
        );
        // repro: 14 % (pr-K, after 1.5 s) and 36 % (xgboost, 0.5 s) remain.
        let last = series[series.len() - 1];
        assert!(last < 0.5, "{workload}: {last:.3} of the hot set remains");
    }
    // Paper: PageRank > 90 % decayed. repro: the lowest window keeps
    // 11.6 % (PageRank's hot set moves with each iteration).
    let pr = values(fig, &[("workload", "pr-K")], "fraction_still_hot");
    let low = pr[1..].iter().copied().fold(f64::INFINITY, f64::min);
    assert!(low < 0.2, "pr-K never drops below {low:.3}");
}

/// Paper Fig 3(a): the EMA score of a page that went cold lags many
/// minutes behind — the motivation for momentum tracking.
#[test]
fn ema_lag_reproduces() {
    let fig = figure("fig3a");
    let minute = |m: u32| value(fig, &[("minute", &m.to_string())], "ema_score");
    assert_eq!(value(fig, &[("minute", "10")], "accesses_per_min"), 0.0);
    // Paper: ~19 minutes (cold at 10). repro: below 10 at minute 17, and
    // at least 10 in every minute before.
    let drop = (0..25)
        .find(|&m| minute(m) < 10.0)
        .expect("eventually cools");
    assert!(
        (15..=21).contains(&drop),
        "EMA stayed hot until minute {drop}; paper shows ~19"
    );
}

/// Paper Fig 3(b): a shorter cooling period refreshes faster but moves
/// hot/warm mass to cold.
#[test]
fn fig3b_shorter_cooling_moves_mass_to_cold() {
    let fig = figure("fig3b");
    let at = |c: &str, col: &str| value(fig, &[("cooling_period_samples", c)], col);
    // repro: cold 0.386 with no cooling, 0.759 at C = 4k.
    assert!(
        at("4k", "cold_frac") > at("Inf", "cold_frac") + 0.05,
        "cold {} (4k) vs {} (Inf)",
        at("4k", "cold_frac"),
        at("Inf", "cold_frac")
    );
    // repro: warm 0.496 → 0.174.
    assert!(at("4k", "warm_frac") < at("Inf", "warm_frac"));
}

/// Paper Fig 4: after the shift HybridTier re-converges in ~250 s, Memtis
/// in ~1400 s, and AutoNUMA never reaches their level. The faster adapter
/// accumulates less slow-tier time, so its mean latency over the
/// post-shift second is lower.
#[test]
fn hybridtier_adapts_faster_than_memtis() {
    let fig = figure("fig4");
    let post_mean = |policy: &str| {
        let t = values(fig, &[("policy", policy)], "t_ns");
        let m = values(fig, &[("policy", policy)], "mean_ns");
        let window =
            |t: f64| t > TEST.shift_ns as f64 && t <= (TEST.shift_ns + 1_000_000_000) as f64;
        let post: Vec<f64> = t
            .iter()
            .zip(&m)
            .filter(|(t, _)| window(**t))
            .map(|(_, m)| *m)
            .collect();
        mean(&post)
    };
    // repro: 1 162 ns (HybridTier) < 1 374 ns (Memtis) < 1 622 ns (AutoNUMA).
    let (ht, memtis, autonuma) = (
        post_mean("HybridTier"),
        post_mean("Memtis"),
        post_mean("AutoNUMA"),
    );
    assert!(
        ht < memtis,
        "HybridTier {ht:.0} ns should beat Memtis {memtis:.0} ns"
    );
    assert!(
        memtis < autonuma,
        "Memtis {memtis:.0} ns vs AutoNUMA {autonuma:.0} ns"
    );
}

/// Paper Fig 5: Memtis's tiering work causes ~9 % of L1 misses.
#[test]
fn fig5_memtis_tiering_causes_a_visible_share_of_misses() {
    let fig = figure("fig5");
    let l1_4k = values(fig, &[("config", "memtis-4k")], "l1_tiering_frac");
    let l1_2m = values(fig, &[("config", "memtis-2m")], "l1_tiering_frac");
    // Paper ~9 %; repro: 8.7–11.0 % per window, 9.2 % over the run.
    assert!(
        l1_4k.iter().all(|f| (0.03..0.3).contains(f)),
        "Memtis L1 tiering share {l1_4k:?}"
    );
    // Paper: 13 % under huge pages. Measured direction: huge pages cut it
    // (repro 4.0 %).
    assert!(mean(&l1_2m) < mean(&l1_4k), "{l1_2m:?} vs {l1_4k:?}");
}

/// The policy of [`COMPARED`] with the highest `score`.
fn leader(score: impl Fn(&str) -> f64) -> &'static str {
    COMPARED
        .into_iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("six policies")
}

/// Paper Fig 9: HybridTier is best or tied in all but two of the twelve
/// CacheLib cells.
#[test]
fn fig9_hybridtier_leads_cachelib_against_tpp() {
    let fig = figure("fig9");
    let mops = |w: &str, r: &str, p: &str| {
        value(fig, &[("workload", w), ("ratio", r), ("policy", p)], "mops")
    };
    // repro: HybridTier 1.60× / 1.59× TPP's throughput on CDN at 1:16 / 1:8.
    for ratio in ["1:16", "1:8"] {
        let factor = mops("CDN", ratio, "HybridTier") / mops("CDN", ratio, "TPP");
        assert!(factor > 1.15, "CDN {ratio}: HybridTier/TPP = {factor:.3}");
    }
    // repro: HybridTier has the highest throughput in all six cells, by
    // 6.3 % over ARC on social 1:16 and 0.7 % over ARC on CDN 1:4. Here
    // the two cells where it leads at the test budget too (module doc).
    for (workload, ratio) in [("social", "1:16"), ("CDN", "1:4")] {
        let best = leader(|p| mops(workload, ratio, p));
        assert_eq!(best, "HybridTier", "{workload} {ratio}");
    }
    // In the other four cells the band catches HybridTier falling to the
    // TPP/AutoNUMA level.
    for workload in ["CDN", "social"] {
        for ratio in RATIOS {
            let best = COMPARED
                .iter()
                .map(|p| mops(workload, ratio, p))
                .fold(0.0, f64::max);
            let ht = mops(workload, ratio, "HybridTier");
            assert!(
                ht > 0.9 * best,
                "{workload} {ratio}: HybridTier {ht} vs best {best}"
            );
        }
    }
}

/// Per-ratio geomean of `policy`'s Figure 10 speed-up over TPP.
fn fig10_geomean(ratio: &str, policy: &str) -> f64 {
    geomean(&values(
        figure("fig10"),
        &[("ratio", ratio), ("policy", policy)],
        "relative_to_tpp",
    ))
}

/// Paper Fig 10: HybridTier beats TPP by 32 %, AutoNUMA by 11 %, Memtis by
/// 29 %, ARC by 50 % and TwoQ by 40 % (geomeans).
#[test]
fn fig10_hybridtier_beats_tpp_and_autonuma_and_leads_at_1_8_and_1_4() {
    for ratio in RATIOS {
        let ht = fig10_geomean(ratio, "HybridTier");
        // repro: 1.34 / 1.28 / 1.22 × TPP at 1:16 / 1:8 / 1:4 (paper
        // 1.32 overall).
        assert!(
            (1.1..1.6).contains(&ht),
            "{ratio}: HybridTier {ht:.3} × TPP"
        );
        let autonuma = fig10_geomean(ratio, "AutoNUMA");
        assert!(
            ht > 1.1 * autonuma,
            "{ratio}: HybridTier {ht:.3} vs AutoNUMA {autonuma:.3}"
        );
    }
    // repro: ARC 1.366 leads 1:16 over Memtis 1.353 and HybridTier 1.341
    // (the paper has HybridTier ahead). HybridTier leads 1:8 (1.285 over
    // ARC's 1.278) and 1:4 (1.220 over ARC's 1.206).
    for (ratio, winner) in [
        ("1:16", "ARC"),
        ("1:8", "HybridTier"),
        ("1:4", "HybridTier"),
    ] {
        assert_eq!(leader(|p| fig10_geomean(ratio, p)), winner, "{ratio}");
    }
}

/// Paper Fig 11: HybridTier is 14 %, 9 % and 6 % slower than an all-fast
/// system at 1:16, 1:8 and 1:4.
#[test]
fn fig11_hybridtier_approaches_all_fast_as_the_fast_tier_grows() {
    let fig = figure("fig11");
    let gm: Vec<f64> = RATIOS
        .iter()
        .map(|r| geomean(&values(fig, &[("ratio", r)], "relative_to_allfast")))
        .collect();
    // repro: 0.792 / 0.823 / 0.853.
    assert!(gm[0] < gm[1] && gm[1] < gm[2], "not rising: {gm:?}");
    assert!(gm.iter().all(|g| (0.65..=1.0).contains(g)), "{gm:?}");
}

/// Paper Fig 12: under 2 MiB pages HybridTier is on par with Memtis at
/// 1:16 and 9 % / 11 % faster at 1:8 / 1:4. The GAP graphs are left out:
/// scaled down, they span too few 2 MiB pages to tier.
#[test]
fn fig12_huge_pages_bring_hybridtier_to_memtis() {
    let fig = figure("fig12");
    let gm: Vec<f64> = RATIOS
        .iter()
        .map(|r| geomean(&values(fig, &[("ratio", r)], "hybridtier_vs_memtis")))
        .collect();
    // Paper: on par at 1:16. repro: 0.996.
    assert!((0.95..1.05).contains(&gm[0]), "1:16: {:.3}", gm[0]);
    // Measured direction (the paper's is the opposite): the larger the fast
    // tier, the further HybridTier trails. repro: 0.996 → 0.972 at 1:4.
    assert!(gm[2] < gm[0], "{gm:?}");
}

/// Paper Fig 13: HybridTier's tiering work causes ~5 % (4 KiB) and ~4 %
/// (2 MiB) of misses, far below Memtis.
#[test]
fn fig13_hybridtier_causes_fewer_tiering_misses_than_memtis() {
    let (ht, memtis) = (figure("fig13"), figure("fig5"));
    // Paper: ~5 % vs 18 % (LLC). repro: 1.4 % vs 2.9 % over the run.
    let ht_llc = values(ht, &[("config", "hybridtier-4k")], "llc_tiering_frac");
    let memtis_llc = values(memtis, &[("config", "memtis-4k")], "llc_tiering_frac");
    assert!(
        mean(&ht_llc) < mean(&memtis_llc),
        "{ht_llc:?} vs {memtis_llc:?}"
    );
    // Paper: ~4 % vs 13 % (L1, huge pages). repro: 1.5 % vs 4.0 %.
    let ht_l1 = values(ht, &[("config", "hybridtier-2m")], "l1_tiering_frac");
    let memtis_l1 = values(memtis, &[("config", "memtis-2m")], "l1_tiering_frac");
    assert!(
        mean(&ht_l1) < mean(&memtis_l1),
        "{ht_l1:?} vs {memtis_l1:?}"
    );
}

/// Paper Fig 14: a standard CBF cuts Memtis's tiering misses by 12–36 %,
/// and blocking cuts another 31–72 %.
#[test]
fn fig14_blocked_below_standard_below_memtis() {
    let fig = figure("fig14");
    let misses = |system: &str, col: &str| value(fig, &[("system", system)], col);
    let llc = |s: &str| misses(s, "llc_tiering_misses");
    // repro (LLC): 65 743 → 44 161 → 31 824.
    assert!(
        llc("HybridTier") < llc("HybridTier-CBF") && llc("HybridTier-CBF") < llc("Memtis"),
        "LLC tiering misses out of order"
    );
    // repro (L1): blocking cuts 1 498 711 to 389 688 (−74 %). Memtis's
    // 274 834 is below both; the paper has it above.
    let l1 = |s: &str| misses(s, "l1_tiering_misses");
    assert!(l1("HybridTier") < 0.5 * l1("HybridTier-CBF"));
}

/// Paper Fig 15: momentum adds 8.5 % on CacheLib and XGBoost, nothing on
/// the small-hot-set GAP kernels.
#[test]
fn fig15_frequency_only_ablation_stays_near_parity() {
    let fig = figure("fig15");
    // repro: 0.962 (BFS-U) to 1.044 (PR-U); CDN 0.999, social 0.993,
    // XGBoost 1.000 (the paper's 8.5 % gain is not reproduced).
    for row in &fig.rows {
        let rel = row[1].value.expect("a ratio");
        assert!((0.94..1.06).contains(&rel), "{}: {rel}", row[0].text);
    }
}

/// Paper Fig 16: GAP-Kronecker keeps ~94 % of pages at count 0, and the
/// social graph has the largest ≥ 15 share.
#[test]
fn fig16_gap_kernels_saturate_the_most_pages() {
    let fig = figure("fig16");
    let at = |w: &str, col: &str| value(fig, &[("workload", w)], col);
    for row in &fig.rows {
        let cum: Vec<f64> = row[1..].iter().filter_map(|c| c.value).collect();
        assert!(
            cum.windows(2).all(|p| p[0] <= p[1]),
            "{}: {cum:?}",
            row[0].text
        );
        assert_eq!(cum[cum.len() - 1], 1.0, "{}", row[0].text);
    }
    // Share of pages at ≥ 15 sampled accesses. repro: 5.0–5.3 % on every
    // GAP kernel, 0.3 % (CDN) and 0.1 % (social).
    let saturated = |w: &str| 1.0 - at(w, "cum_13-14");
    for gap in GAP {
        assert!(saturated(gap) > 0.02, "{gap}: {}", saturated(gap));
        for cachelib in ["CDN", "social"] {
            assert!(saturated(gap) > saturated(cachelib), "{gap} vs {cachelib}");
        }
    }
    // repro: 88–98 % of CacheLib, SPEC, Silo and XGBoost pages at count 0,
    // 17–40 % of GAP pages.
    for w in ["CDN", "social", "bwave", "roms", "silo", "XGBoost"] {
        assert!(at(w, "cum_0") > 0.85, "{w}: {}", at(w, "cum_0"));
    }
    for gap in GAP {
        assert!(at(gap, "cum_0") < 0.8, "{gap}: {}", at(gap, "cum_0"));
    }
}

/// Paper Fig 17: momentum thresholds below 3 mispromote; above 3 little
/// changes.
#[test]
fn fig17_low_momentum_thresholds_mispromote() {
    let fig = figure("fig17");
    for workload in ["CDN", "social"] {
        let mops = |t: u32| {
            value(
                fig,
                &[("workload", workload), ("threshold", &t.to_string())],
                "mops",
            )
        };
        // repro: 0.281 vs 0.809 (CDN), 0.527 vs 1.879 (social).
        assert!(
            mops(1) < mops(3),
            "{workload}: threshold 1 {} vs 3 {}",
            mops(1),
            mops(3)
        );
        // repro: thresholds 3–6 within 1.5 %.
        for t in 4..=6 {
            let change = mops(t) / mops(3);
            assert!(
                (0.97..1.03).contains(&change),
                "{workload}: threshold {t} moves {change}"
            );
        }
    }
}

/// Paper §7: a central controller re-partitions the fast tier as demand
/// moves between co-located tenants.
#[test]
fn sec7_wakeup_moves_quota_to_the_waking_tenant() {
    let fig = figure("sec7");
    let at = |t_ms: &str, col: &str| value(fig, &[("t_ms", t_ms)], col);
    for row in &fig.rows {
        let (cache, batch) = (row[3].value, row[4].value);
        assert_eq!(
            cache.zip(batch).map(|(c, b)| c + b),
            Some(3000.0),
            "budget kept"
        );
    }
    // repro: the batch tenant holds 176–222 of 3 000 pages until its
    // 40 ms wake-up, then 595 at 50 ms and 1 010 at 90 ms.
    assert!(at("40.000", "batch_quota") < 300.0);
    assert!(at("50.000", "batch_quota") > 2.0 * at("40.000", "batch_quota"));
    assert!(at("50.000", "batch_demand") > 5.0 * at("40.000", "batch_demand"));
    // repro: it keeps gaining at every rebalance after the wake-up,
    // 595 → 788 → 891 → 952 → 1 010.
    let batch = values(fig, &[], "batch_quota");
    assert_eq!(batch.len(), 9, "rebalances at 10, 20, …, 90 ms");
    assert!(batch[4..].windows(2).all(|p| p[0] < p[1]), "{batch:?}");
    assert!(at("90.000", "batch_quota") > 4.0 * at("40.000", "batch_quota"));
    // repro: the cache tenant gives up pages, 2 778 → 2 405 → 1 990.
    assert!(at("50.000", "cache_quota") < at("40.000", "cache_quota"));
}

/// Paper Table 3: HybridTier adapts 1.7–5.9× (average 3.2×) faster than
/// Memtis.
#[test]
fn table3_hybridtier_adapts_faster_at_1_16() {
    let fig = figure("table3");
    let adapt = |policy: &str| -> f64 {
        ["CDN", "social"]
            .iter()
            .map(|w| {
                value(
                    fig,
                    &[("workload", w), ("ratio", "1:16"), ("policy", policy)],
                    "adapt_s",
                )
            })
            .sum()
    };
    // repro at 1:16: 4.20 s vs 1.00 s (CDN), 3.50 s vs 0.20 s (social);
    // over all six cells HybridTier is never slower (CDN 1:4 ties at 0.90 s).
    let (memtis, ht) = (adapt("Memtis"), adapt("HybridTier"));
    assert!(ht < memtis, "HybridTier {ht:.2} s vs Memtis {memtis:.2} s");
}

/// Paper §3.2 / Table 4: Memtis's metadata is a constant 0.39 % of memory;
/// HybridTier's is 2.0–7.8× smaller, the gap widening as the fast tier
/// shrinks.
#[test]
fn metadata_reduction_and_scaling() {
    let fig = figure("table4");
    let at = |r: &str, col: &str| value(fig, &[("ratio", r)], col);
    for ratio in RATIOS {
        // repro: 0.391 % at every ratio.
        assert!((0.0035..0.0045).contains(&at(ratio, "memtis_frac")));
        // repro: 21.1× / 12.5× / 7.4×.
        assert!(at(ratio, "reduction") > 2.0, "{ratio}");
    }
    let (small, large) = (at("1:16", "reduction"), at("1:4", "reduction"));
    // Paper 7.8 / 2.0 = 3.9; repro 21.1 / 7.4 = 2.9.
    assert!(
        (2.0..6.0).contains(&(small / large)),
        "reduction should shrink with bigger fast tiers: {small} → {large}"
    );
}

/// The same direction where the CBF sizing floors bind: at a 120 000-page
/// footprint (Table 4 uses 1 000 000) HybridTier still needs less than half
/// of Memtis's metadata at every ratio.
#[test]
fn metadata_stays_below_half_of_memtis_at_the_sizing_floors() {
    for ratio in TierRatio::ALL {
        let cfg = TierConfig::for_footprint(120_000, ratio, PageSize::Base4K);
        let memtis = build_policy(PolicyKind::Memtis, &cfg).metadata_bytes();
        let ht = build_policy(PolicyKind::HybridTier, &cfg).metadata_bytes();
        assert!(
            ht * 2 < memtis,
            "{ratio}: HybridTier {ht} B vs Memtis {memtis} B"
        );
    }
}

/// Paper §6.4.2 / Table 5: CBF decisions match an exact tracker on
/// 99.72 % (256 MB) down to 96.92 % (8 MB) of migrations.
#[test]
fn cbf_migration_decision_accuracy() {
    let fig = figure("table5");
    let accuracy = values(fig, &[], "accuracy");
    // Rows run from 512 KiB down to 16 KiB.
    assert!(accuracy.windows(2).all(|p| p[0] >= p[1]), "{accuracy:?}");
    // repro: 99.97 % at 512 KiB.
    assert!(accuracy[0] > 0.99, "{accuracy:?}");
    // repro: 98.33 % at 16 KiB.
    let smallest = accuracy[accuracy.len() - 1];
    assert!(smallest < accuracy[0] && smallest > 0.9, "{accuracy:?}");
}

/// Paper §6.1: ARC and TwoQ promote on first touch — under a one-time scan
/// they churn the fast tier far more than HybridTier does.
#[test]
fn scan_resistance_of_hybridtier() {
    let run = |kind: PolicyKind| {
        let mut w = SequentialScanWorkload::new(20_000, 2, 4096);
        let pages = w.footprint_pages(PageSize::Base4K);
        let tier_cfg = TierConfig::for_footprint(pages, TierRatio::OneTo8, PageSize::Base4K);
        let mut policy = build_policy(kind, &tier_cfg);
        Engine::new(SimConfig::default()).run(&mut w, policy.as_mut(), tier_cfg)
    };
    let ht = run(PolicyKind::HybridTier);
    let arc = run(PolicyKind::Arc);
    assert!(
        ht.migrations.promotions * 5 < arc.migrations.promotions.max(1),
        "scan: HybridTier promoted {} vs ARC {} — momentum threshold should \
         filter one-time accesses",
        ht.migrations.promotions,
        arc.migrations.promotions
    );
}

/// Blocked CBF touches one line per op; standard touches up to k — verified
/// end-to-end through the policy layer (paper Figure 14's mechanism).
#[test]
fn blocked_cbf_reduces_metadata_lines_through_policy() {
    let tier_cfg = TierConfig::for_footprint(50_000, TierRatio::OneTo8, PageSize::Base4K);
    let count_lines = |kind: PolicyKind| {
        let mut policy = build_policy(kind, &tier_cfg);
        let mut mem = TieredMemory::new(tier_cfg);
        let mut ctx = PolicyCtx::new();
        for i in 0..2_000u64 {
            mem.ensure_mapped(PageId(i), Tier::Slow);
        }
        for i in 0..2_000u64 {
            policy.on_sample_batch(
                &[Sample {
                    page: PageId(i),
                    addr: i << 12,
                    tier: Tier::Slow,
                    at_ns: i,
                    is_write: false,
                }],
                &mut mem,
                &mut ctx,
            );
        }
        ctx.metadata_lines.len()
    };
    let blocked = count_lines(PolicyKind::HybridTier);
    let standard = count_lines(PolicyKind::HybridTierUnblocked);
    assert!(
        blocked < standard,
        "blocked {blocked} lines vs standard {standard}"
    );
}
