//! Counting Bloom filters for probabilistic memory-access tracking.
//!
//! This crate implements the metadata data structures at the heart of
//! HybridTier (ASPLOS'25): counting Bloom filters (CBF) with packed
//! 4/8/16-bit saturating counters, in two layouts:
//!
//! * [`StandardCbf`] — the textbook CBF: `k` hash functions index anywhere
//!   in one large counter array. A lookup touches up to `k` cache lines.
//! * [`BlockedCbf`] — the cache-local variant adopted by HybridTier: a page
//!   maps to exactly one 64-byte block, and all `k` counters live inside that
//!   block, so every operation touches exactly one cache line.
//!
//! Both support the two operations from the paper (§4.2): `GET` returns the
//! minimum of the `k` counters ([`AccessCounter::estimate`]) and `INCREMENT`
//! increments the minimum counters ([`AccessCounter::increment`], the
//! *conservative update* rule). A third operation, [`AccessCounter::cool`],
//! halves every counter in place and implements the exponential-moving-average
//! decay (decay factor 2) that frequency-based tiering systems use to keep
//! their histograms fresh.
//!
//! Filter sizing follows the classic Bloom-filter formula (paper §4.2):
//! `r = -k / ln(1 - exp(ln(p) / k))`, `m = ceil(n * r)` — see [`counters_for`].
//!
//! # Word-level layout
//!
//! Counters are packed into `u64` words ([`CounterArray`]); a blocked
//! filter's 64-byte block is exactly eight words
//! ([`CounterBlock`]). The hot operations exploit this end to end:
//!
//! * each filter derives a key's counter positions in one private
//!   `probes` function: one [`PageHasher::pair`] call per key yields every
//!   probe value as `h1 + i·h2` (Kirsch–Mitzenmacher), instead of
//!   rehashing per probe. `GET`, `INCREMENT` and `touched_lines` all read
//!   it, so the layout rule is written once per filter;
//! * the counters have one bit layout,
//!   [`CounterWidth::get_in_words`]/[`set_in_words`](CounterWidth::set_in_words)
//!   over any word slice: [`CounterArray::get`]/[`set`](CounterArray::set)
//!   are those functions over the whole array, and [`BlockedCbf`]
//!   `GET`/`INCREMENT` apply them to the key's block, loaded once as whole
//!   words and stored back once — the simulator-side twin of the paper's
//!   one-cache-line-per-op design.
//!
//! That word-level path is the one kernel each filter has. Its oracles are
//! derived independently of the code they check: the `blocked` module's
//! tests compare it under random op sequences with a per-counter reference
//! that rehashes once per probe ([`PageHasher::probe`]) and is compiled only
//! into them, and `tests/cbf_properties.rs` checks the bit layout against a
//! plain `Vec<u32>` model of counter values. `tests/closed_forms.rs` reads
//! both filters' false-positive rates against the textbook formulas.
//!
//! # Example
//!
//! ```
//! use hybridtier_cbf::{AccessCounter, BlockedCbf, CbfParams, CounterWidth};
//!
//! // Track ~10_000 hot pages with a 0.1% tracking-error target.
//! let params = CbfParams::for_capacity(10_000, 4, 0.001, CounterWidth::W4);
//! let mut cbf = BlockedCbf::new(params);
//! for _ in 0..5 {
//!     cbf.increment(0x1000);
//! }
//! assert_eq!(cbf.estimate(0x1000), 5);
//! cbf.cool(); // EMA decay: all counters halved
//! assert_eq!(cbf.estimate(0x1000), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocked;
mod counters;
mod ground_truth;
mod hash;
mod sizing;
mod standard;

pub use blocked::BlockedCbf;
pub use counters::{CounterArray, CounterBlock, CounterWidth, WORDS_PER_LINE};
pub use ground_truth::{DecisionOutcome, GroundTruthCounter};
pub use hash::PageHasher;
pub use sizing::{counters_for, CbfParams};
pub use standard::StandardCbf;

/// Number of bytes in a CPU cache line; blocked CBFs confine each key's
/// counters to one line of this size.
pub const CACHE_LINE_BYTES: usize = 64;

/// A frequency counter keyed by page number, as used by HybridTier's
/// frequency and momentum trackers.
///
/// Implementations may be exact ([`GroundTruthCounter`]) or probabilistic
/// ([`StandardCbf`], [`BlockedCbf`]). Probabilistic implementations may
/// *overestimate* a key's count (hash collisions) but never underestimate it,
/// up to the saturation cap of the counter width.
pub trait AccessCounter {
    /// Records one access to `key` and returns the new estimated count.
    ///
    /// Counters saturate at the maximum value representable by the
    /// implementation's counter width; once saturated, further increments
    /// return the cap unchanged.
    fn increment(&mut self, key: u64) -> u32;

    /// Returns the estimated access count of `key`.
    fn estimate(&self, key: u64) -> u32;

    /// Records one access to `key`, returning `(previous, new)` estimated
    /// counts.
    ///
    /// Semantically identical to `(self.estimate(key), self.increment(key))`
    /// — the conservative-update increment already computes the pre-update
    /// minimum, so implementations can report it without a second probe
    /// pass. HybridTier's sample ingest uses this to halve its
    /// frequency-tracker traffic.
    fn increment_with_prev(&mut self, key: u64) -> (u32, u32) {
        (self.estimate(key), self.increment(key))
    }

    /// Halves every counter (exponential decay with factor 2).
    ///
    /// This is the "cooling" operation that frequency-based tiering systems
    /// run periodically to age out stale hotness (paper §2.3.2).
    fn cool(&mut self);

    /// Bytes of metadata memory consumed by this tracker.
    fn metadata_bytes(&self) -> usize;

    /// Appends the cache-line addresses (relative to this structure's own
    /// address space, starting at [`AccessCounter::base_addr`]) that one
    /// operation on `key` touches.
    ///
    /// The simulation engine replays these through the cache simulator to
    /// attribute cache misses to tiering metadata (paper Figures 5, 13, 14).
    fn touched_lines(&self, key: u64, out: &mut Vec<u64>);

    /// Base virtual address this tracker pretends to occupy, so that
    /// different trackers' metadata do not alias in the cache simulator.
    fn base_addr(&self) -> u64;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn counters_are_send_sync() {
        assert_send_sync::<StandardCbf>();
        assert_send_sync::<BlockedCbf>();
        assert_send_sync::<GroundTruthCounter>();
    }

    /// Exercises every implementation through the trait object interface,
    /// which the policy crate relies on.
    #[test]
    fn trait_object_usable() {
        let params = CbfParams::for_capacity(128, 4, 0.01, CounterWidth::W8);
        let mut impls: Vec<Box<dyn AccessCounter>> = vec![
            Box::new(StandardCbf::new(params.clone())),
            Box::new(BlockedCbf::new(params)),
            Box::new(GroundTruthCounter::new(CounterWidth::W8)),
        ];
        for c in &mut impls {
            assert_eq!(c.estimate(42), 0);
            assert_eq!(c.increment(42), 1);
            assert!(c.estimate(42) >= 1);
            c.cool();
            assert_eq!(c.estimate(42), 0, "cooling halves a count of 1 to 0");
            assert!(c.metadata_bytes() > 0 || c.estimate(1) == 0);
        }
    }
}
