//! Property-based tests for the CBF invariants the tiering policies rely on.

use hybridtier_cbf::{
    AccessCounter, BlockedCbf, CbfParams, CounterArray, CounterWidth, GroundTruthCounter,
    StandardCbf,
};
use proptest::prelude::*;

fn any_width() -> impl Strategy<Value = CounterWidth> {
    prop_oneof![
        Just(CounterWidth::W4),
        Just(CounterWidth::W8),
        Just(CounterWidth::W16),
    ]
}

/// Arbitrary small key streams with repetition (Zipf-ish via modulo).
fn key_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..64, 1..400)
}

proptest! {
    /// The one-sided error guarantee: a CBF never underestimates the true
    /// count of any key (up to counter saturation). This is what lets
    /// HybridTier use the estimate as a hotness lower bound.
    #[test]
    fn standard_never_underestimates(keys in key_stream(), width in any_width()) {
        let params = CbfParams::for_capacity(64, 4, 0.001, width);
        let mut cbf = StandardCbf::new(params);
        let mut truth = GroundTruthCounter::new(width);
        for &k in &keys {
            cbf.increment(k);
            truth.increment(k);
        }
        for &k in &keys {
            prop_assert!(cbf.estimate(k) >= truth.estimate(k));
        }
    }

    #[test]
    fn blocked_never_underestimates(keys in key_stream(), width in any_width()) {
        let params = CbfParams::for_capacity(64, 4, 0.001, width);
        let mut cbf = BlockedCbf::new(params);
        let mut truth = GroundTruthCounter::new(width);
        for &k in &keys {
            cbf.increment(k);
            truth.increment(k);
        }
        for &k in &keys {
            prop_assert!(cbf.estimate(k) >= truth.estimate(k));
        }
    }

    /// Cooling preserves the never-underestimate invariant when applied to
    /// both the CBF and the ground truth at the same instants.
    #[test]
    fn cooling_preserves_ordering(
        keys in key_stream(),
        cool_every in 16usize..64,
    ) {
        let params = CbfParams::for_capacity(64, 4, 0.001, CounterWidth::W8);
        let mut cbf = BlockedCbf::new(params);
        let mut truth = GroundTruthCounter::new(CounterWidth::W8);
        for (i, &k) in keys.iter().enumerate() {
            cbf.increment(k);
            truth.increment(k);
            if (i + 1) % cool_every == 0 {
                cbf.cool();
                truth.cool();
            }
        }
        for &k in &keys {
            prop_assert!(
                cbf.estimate(k) >= truth.estimate(k),
                "key {} cbf {} truth {}", k, cbf.estimate(k), truth.estimate(k)
            );
        }
    }

    /// Increments are monotone: an increment never lowers any key's estimate.
    #[test]
    fn increment_is_monotone(keys in key_stream()) {
        let params = CbfParams::for_capacity(64, 4, 0.001, CounterWidth::W8);
        let mut cbf = StandardCbf::new(params);
        for &k in &keys {
            let others: Vec<u32> = (0..16u64).map(|o| cbf.estimate(o)).collect();
            cbf.increment(k);
            for (o, &before) in others.iter().enumerate() {
                prop_assert!(cbf.estimate(o as u64) >= before);
            }
        }
    }

    /// Estimates saturate exactly at the counter-width cap, never beyond.
    #[test]
    fn estimates_bounded_by_cap(keys in key_stream(), width in any_width()) {
        let params = CbfParams::for_capacity(8, 2, 0.01, width);
        let mut cbf = BlockedCbf::new(params);
        for &k in &keys {
            for _ in 0..20 {
                cbf.increment(k);
            }
        }
        for &k in &keys {
            prop_assert!(cbf.estimate(k) <= width.max_count());
        }
    }

    /// Determinism: two filters built with the same parameters observe the
    /// same stream identically. The simulator's reproducibility depends on
    /// this.
    #[test]
    fn deterministic_under_same_seed(keys in key_stream()) {
        let params = CbfParams::for_capacity(128, 4, 0.001, CounterWidth::W4);
        let mut a = BlockedCbf::new(params.clone());
        let mut b = BlockedCbf::new(params);
        for &k in &keys {
            prop_assert_eq!(a.increment(k), b.increment(k));
        }
    }

    /// Blocked CBF: the single touched line is always the same line for the
    /// same key, and lies within the filter's storage.
    #[test]
    fn blocked_touches_one_stable_line(key in any::<u64>()) {
        let params = CbfParams::for_capacity(10_000, 4, 0.001, CounterWidth::W4);
        let cbf = BlockedCbf::new(params);
        let mut l1 = Vec::new();
        let mut l2 = Vec::new();
        cbf.touched_lines(key, &mut l1);
        cbf.touched_lines(key, &mut l2);
        prop_assert_eq!(&l1, &l2);
        prop_assert_eq!(l1.len(), 1);
        let off = l1[0] - cbf.base_addr();
        prop_assert!((off as usize) < cbf.metadata_bytes());
    }

    /// Ground-truth cooling equals integer halving.
    #[test]
    fn ground_truth_cool_is_halving(n in 0u32..1000) {
        let mut g = GroundTruthCounter::with_cap(u32::MAX);
        for _ in 0..n {
            g.increment(5);
        }
        g.cool();
        prop_assert_eq!(g.estimate(5), n / 2);
    }

    /// The counter bit layout against a plain `Vec<u32>` model of counter
    /// values, under random interleaved writes at every counter width:
    /// word-level block writes (`load_block` + `set_in_words` +
    /// `store_block`) and indexed `set`s, each read back through both
    /// `get` and `get_in_words` on a loaded block. `get`/`set` are
    /// `get_in_words`/`set_in_words` over the whole array, so the model,
    /// not either path, is the reference; this is the load-bearing check
    /// behind the word-level `BlockedCbf` path.
    #[test]
    fn block_ops_match_scalar_get_set(
        width in any_width(),
        // (slot, value, use_word_path) triples over a 3-block array.
        ops in prop::collection::vec((0usize..384, 0u32..70_000, any::<bool>()), 1..300),
    ) {
        let per_line = width.counters_per_line();
        let len = per_line * 3;
        let mut arr = CounterArray::new(len, width);
        let mut model = vec![0u32; len];
        for &(slot, value, word_path) in &ops {
            let idx = slot % len;
            model[idx] = value.min(width.max_count());
            if word_path {
                // Word path: load the enclosing block, mutate in registers,
                // store it back.
                let base = (idx / per_line) * per_line;
                let mut words = arr.load_block(base);
                width.set_in_words(&mut words, idx - base, value);
                arr.store_block(base, words);
            } else {
                arr.set(idx, value);
            }
        }
        // Every counter equals the model, read through both paths.
        for (idx, &want) in model.iter().enumerate() {
            prop_assert_eq!(arr.get(idx), want, "idx {}", idx);
            let base = (idx / per_line) * per_line;
            let words = arr.load_block(base);
            prop_assert_eq!(
                width.get_in_words(&words, idx - base),
                want,
                "word read idx {}", idx
            );
        }
    }

    /// The fused `increment_with_prev` equals a discrete
    /// `(estimate, increment)` pair for both layouts.
    #[test]
    fn increment_with_prev_equals_estimate_then_increment(
        width in any_width(),
        keys in key_stream(),
    ) {
        let params = CbfParams::for_capacity(64, 4, 0.001, width);
        let mut fused_b = BlockedCbf::new(params.clone());
        let mut split_b = BlockedCbf::new(params.clone());
        let mut fused_s = StandardCbf::new(params.clone());
        let mut split_s = StandardCbf::new(params);
        for &k in &keys {
            let want = (split_b.estimate(k), split_b.increment(k));
            prop_assert_eq!(fused_b.increment_with_prev(k), want);
            let want = (split_s.estimate(k), split_s.increment(k));
            prop_assert_eq!(fused_s.increment_with_prev(k), want);
        }
    }
}
