//! Exact per-key counting, used as ground truth for CBF accuracy studies.

use std::collections::HashMap;

use crate::counters::CounterWidth;
use crate::AccessCounter;

/// An exact (hash-table backed) access counter.
///
/// This is the "exact data structure" of paper §3.2 — the memory-hungry
/// alternative a CBF replaces — and the ground truth for the Table 5
/// migration-decision accuracy experiment (§6.4.2), where the paper runs a
/// hash table alongside the CBF and counts decision agreements.
///
/// Counts saturate at the same cap as the CBF under comparison so that
/// saturation alone never registers as disagreement.
#[derive(Debug, Clone, Default)]
pub struct GroundTruthCounter {
    counts: HashMap<u64, u32>,
    cap: u32,
    base_addr: u64,
}

impl GroundTruthCounter {
    /// Creates an exact counter whose counts saturate at `width.max_count()`.
    pub fn new(width: CounterWidth) -> Self {
        Self {
            counts: HashMap::new(),
            cap: width.max_count(),
            base_addr: 0x7400_0000_0000,
        }
    }

    /// Creates an exact counter with an explicit saturation cap.
    pub fn with_cap(cap: u32) -> Self {
        Self {
            counts: HashMap::new(),
            cap,
            base_addr: 0x7400_0000_0000,
        }
    }

    /// Number of distinct keys ever incremented.
    #[cfg(test)]
    fn distinct_keys(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(key, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

impl AccessCounter for GroundTruthCounter {
    fn increment(&mut self, key: u64) -> u32 {
        let e = self.counts.entry(key).or_insert(0);
        if *e < self.cap {
            *e += 1;
        }
        *e
    }

    fn estimate(&self, key: u64) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    fn cool(&mut self) {
        self.counts.retain(|_, v| {
            *v /= 2;
            *v > 0
        });
    }

    fn metadata_bytes(&self) -> usize {
        // HashMap<u64, u32> entry: key + value + bucket overhead ≈ 16B, the
        // same figure the paper charges Memtis per page.
        self.counts.len() * 16
    }

    fn touched_lines(&self, key: u64, out: &mut Vec<u64>) {
        // Model a hash-table lookup as one bucket-array line plus one entry
        // line derived from the key hash (HeMem-style chained table,
        // paper §3.3 / Algorithm 1 analysis).
        let h = crate::hash::splitmix64(key);
        out.push(self.base_addr + (h % (1 << 20)) * 64);
        out.push(self.base_addr + (1 << 26) + (h >> 32) % (1 << 20) * 64);
    }

    fn base_addr(&self) -> u64 {
        self.base_addr
    }
}

/// Outcome of comparing a probabilistic tracker's migration decision against
/// ground truth (Table 5 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionOutcome {
    /// Decisions where CBF and ground truth agree.
    pub agree: u64,
    /// Decisions where they disagree (tracking error changed the decision).
    pub disagree: u64,
}

impl DecisionOutcome {
    /// Records one comparison of "would promote?" under both trackers.
    pub fn record(&mut self, cbf_hot: bool, truth_hot: bool) {
        if cbf_hot == truth_hot {
            self.agree += 1;
        } else {
            self.disagree += 1;
        }
    }

    /// Fraction of decisions that agree, in `[0, 1]`; 1.0 when no decisions
    /// were recorded.
    pub fn accuracy(&self) -> f64 {
        let total = self.agree + self.disagree;
        if total == 0 {
            1.0
        } else {
            self.agree as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts() {
        let mut g = GroundTruthCounter::new(CounterWidth::W16);
        for _ in 0..100 {
            g.increment(1);
        }
        g.increment(2);
        assert_eq!(g.estimate(1), 100);
        assert_eq!(g.estimate(2), 1);
        assert_eq!(g.estimate(3), 0);
        assert_eq!(g.distinct_keys(), 2);
    }

    #[test]
    fn saturates_at_width_cap() {
        let mut g = GroundTruthCounter::new(CounterWidth::W4);
        for _ in 0..100 {
            g.increment(1);
        }
        assert_eq!(g.estimate(1), 15);
    }

    #[test]
    fn cool_halves_and_drops_zeroes() {
        let mut g = GroundTruthCounter::new(CounterWidth::W16);
        for _ in 0..7 {
            g.increment(1);
        }
        g.increment(2);
        g.cool();
        assert_eq!(g.estimate(1), 3);
        assert_eq!(g.estimate(2), 0);
        assert_eq!(g.distinct_keys(), 1, "zeroed entries are reclaimed");
    }

    #[test]
    fn metadata_grows_with_keys() {
        let mut g = GroundTruthCounter::new(CounterWidth::W4);
        assert_eq!(g.metadata_bytes(), 0);
        for key in 0..1000 {
            g.increment(key);
        }
        assert_eq!(g.metadata_bytes(), 16_000);
    }

    #[test]
    fn decision_outcome_accuracy() {
        let mut d = DecisionOutcome::default();
        assert_eq!(d.accuracy(), 1.0);
        d.record(true, true);
        d.record(false, false);
        d.record(true, false);
        d.record(false, true);
        assert_eq!(d.agree, 2);
        assert_eq!(d.disagree, 2);
        assert!((d.accuracy() - 0.5).abs() < 1e-12);
    }
}
