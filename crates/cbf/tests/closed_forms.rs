//! Both counting Bloom filters against the closed forms of the filters they
//! implement.
//!
//! Each key of a design load `n` (the capacity the filter was sized for) is
//! inserted once; the false-positive rate is then the fraction of unseen
//! keys whose estimate is at least 1. Conservative update leaves a counter
//! non-zero exactly where a plain Bloom filter would set its bit, so the
//! rates are the textbook ones:
//!
//! * `StandardCbf`, `m` counters: `(1 − e^(−kn/m))^k`.
//! * `BlockedCbf`, `B` blocks of `b` slots: the blocked-Bloom mixture
//!   `Σᵢ Pois(i; n/B) · (1 − (1 − 1/b)^(k·i))^k` (Putze, Sanders and
//!   Singler, 2007), where `b` is 128 at W4, 64 at W8 and 32 at W16.
//!
//! Tolerances come from the binomial spread of the probe count: a rate `p`
//! read over `N` unseen keys has standard deviation `√(p(1 − p)/N)`, and
//! each check allows [`SIGMAS`] of it. The tier-1 size probes `n = 4 096`
//! with 500 000 unseen keys; the ignored test repeats every check at
//! `n = 4 096 … 131 072` with 2 M unseen keys and runs in release:
//!
//! ```text
//! cargo test -q --release -p hybridtier-cbf --test closed_forms -- --ignored
//! ```

use hybridtier_cbf::{AccessCounter, BlockedCbf, CbfParams, CounterWidth, StandardCbf};

/// Hash functions and design error rate: HybridTier's defaults (§4.2).
const K: u32 = 4;
const P: f64 = 0.001;

/// Standard deviations of the probe-count binomial each check allows.
const SIGMAS: f64 = 4.0;

/// Inserts keys `0..n` once each, then returns the fraction of the
/// `unseen` keys after them whose estimate is non-zero.
fn false_positive_rate(filter: &mut impl AccessCounter, n: usize, unseen: usize) -> f64 {
    for key in 0..n as u64 {
        filter.increment(key);
    }
    let first = n as u64;
    let hits = (first..first + unseen as u64)
        .filter(|&key| filter.estimate(key) >= 1)
        .count();
    hits as f64 / unseen as f64
}

/// `SIGMAS` standard deviations of a rate `p` read over `unseen` keys.
fn tolerance(p: f64, unseen: usize) -> f64 {
    SIGMAS * (p * (1.0 - p) / unseen as f64).sqrt()
}

/// `(1 − e^(−kn/m))^k`.
fn standard_closed_form(n: usize, m: usize) -> f64 {
    let k = K as f64;
    (1.0 - (-k * n as f64 / m as f64).exp()).powf(k)
}

/// `Σᵢ Pois(i; n/B) · (1 − (1 − 1/b)^(k·i))^k`, summed until the Poisson
/// tail is below 1e-15.
fn blocked_closed_form(n: usize, blocks: usize, slots: usize) -> f64 {
    let lambda = n as f64 / blocks as f64;
    let k = K as f64;
    let mut pois = (-lambda).exp();
    let (mut sum, mut mass) = (0.0, 0.0);
    let mut i = 0u32;
    while mass < 1.0 - 1e-15 && i < 10_000 {
        let untouched = (1.0 - 1.0 / slots as f64).powf(k * i as f64);
        sum += pois * (1.0 - untouched).powf(k);
        mass += pois;
        i += 1;
        pois *= lambda / i as f64;
    }
    sum
}

/// The standard filter reads its closed form within the tolerance.
fn check_standard(n: usize, unseen: usize) {
    let mut f = StandardCbf::new(CbfParams::for_capacity(n, K, P, CounterWidth::W4));
    let want = standard_closed_form(n, f.num_counters());
    let got = false_positive_rate(&mut f, n, unseen);
    let tol = tolerance(want, unseen);
    assert!(
        (got - want).abs() <= tol,
        "standard n={n}: measured {got:.5}, closed form {want:.5} ± {tol:.5}"
    );
}

/// Known defect 6: the blocked filter does not read its closed form. Its
/// block is the high bits of `h1` and slot `i` the high bits of
/// `h1 + (i + 1)·h2` (`BlockedCbf::probes`), so within one block `h1` is
/// nearly fixed and a key's slots sit close to an arithmetic progression
/// set by `h2`; keys collide far more often than independent slots would.
///
/// So this pins the measured rate at each width, read at every release
/// size (n = 4 096 … 131 072, 2 M unseen keys each: 0.0119–0.0122,
/// 0.0133–0.0136 and 0.0163–0.0165), against closed forms of 0.0018,
/// 0.0027 and 0.0047. Direction 15(b), which derives the slots from bits
/// independent of the block choice, flips it to the closed form.
const BLOCKED_MEASURED: [(CounterWidth, f64); 3] = [
    (CounterWidth::W4, 0.0120),
    (CounterWidth::W8, 0.0135),
    (CounterWidth::W16, 0.0164),
];

/// The blocked filter reads its pinned rate (Known defect 6) within the
/// tolerance.
fn check_blocked(n: usize, unseen: usize) {
    for (width, pinned) in BLOCKED_MEASURED {
        let mut f = BlockedCbf::new(CbfParams::for_capacity(n, K, P, width));
        let slots = width.counters_per_line();
        let closed = blocked_closed_form(n, f.num_counters() / slots, slots);
        let got = false_positive_rate(&mut f, n, unseen);
        let tol = tolerance(pinned, unseen);
        assert!(
            (got - pinned).abs() <= tol,
            "blocked {width} n={n}: measured {got:.5}, pinned {pinned:.4} ± {tol:.5} \
             (closed form {closed:.5}); if Known defect 6 is mended, assert the closed form"
        );
    }
}

#[test]
fn standard_cbf_reads_its_closed_form() {
    check_standard(4_096, 500_000);
}

#[test]
fn blocked_cbf_reads_its_known_defect_rate() {
    check_blocked(4_096, 500_000);
}

#[test]
#[ignore = "release size: n up to 131 072 and 2 M unseen keys per filter"]
fn closed_forms_at_release_size() {
    for n in [4_096, 16_384, 131_072] {
        check_standard(n, 2_000_000);
        check_blocked(n, 2_000_000);
    }
}
