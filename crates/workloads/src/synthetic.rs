//! Synthetic workloads used by the motivation figures and tests.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::LayoutBuilder;
use crate::zipf::ShiftableZipf;
use crate::Region;

/// A minimal skewed workload: each op touches one page drawn from a
/// (shiftable) Zipf distribution over the page space.
///
/// This is the distilled version of the hotness-tracking problem and the
/// workhorse for unit and property tests of the policies.
#[derive(Debug)]
pub struct ZipfPageWorkload {
    zipf: ShiftableZipf,
    region: Region,
    rng: SmallRng,
    ops_remaining: u64,
    shift_at_ns: Option<u64>,
    shift_fraction: f64,
    wake_at_ns: Option<u64>,
    wake_theta: f64,
    wake_cpu_ns: u64,
    cpu_ns: u64,
    name: String,
}

impl ZipfPageWorkload {
    /// `pages` pages, Zipf exponent `theta`, `ops` operations.
    pub fn new(pages: usize, theta: f64, ops: u64, seed: u64) -> Self {
        let mut layout = LayoutBuilder::new();
        let region = layout.alloc(pages as u64 * 4096);
        Self {
            zipf: ShiftableZipf::shuffled_from_seed(pages, theta, seed ^ 0x9E37_79B9),
            region,
            rng: SmallRng::seed_from_u64(seed),
            ops_remaining: ops,
            shift_at_ns: None,
            shift_fraction: 0.0,
            wake_at_ns: None,
            wake_theta: 0.0,
            wake_cpu_ns: 0,
            cpu_ns: 50,
            name: format!("zipf-{pages}p-t{theta}"),
        }
    }

    /// Schedules a single hotness shift: at `at_ns`, `fraction` of the hot
    /// ranks are reassigned to cold items.
    #[must_use]
    pub fn with_shift(mut self, at_ns: u64, fraction: f64) -> Self {
        self.shift_at_ns = Some(at_ns);
        self.shift_fraction = fraction;
        self
    }

    /// Overrides the fixed compute time per op (default 50 ns). High values
    /// model a mostly-idle tenant whose accesses arrive slowly.
    #[must_use]
    pub fn with_cpu_ns(mut self, cpu_ns: u64) -> Self {
        self.cpu_ns = cpu_ns;
        self
    }

    /// Schedules a "wake-up": at `at_ns` the popularity distribution is
    /// rebuilt with exponent `theta` and the per-op compute time drops to
    /// `cpu_ns` — a mostly-idle tenant starting a hot, intense phase. This
    /// is the time-trigger behind the paper-§7 co-location demo.
    #[must_use]
    pub fn with_wakeup(mut self, at_ns: u64, theta: f64, cpu_ns: u64) -> Self {
        self.wake_at_ns = Some(at_ns);
        self.wake_theta = theta;
        self.wake_cpu_ns = cpu_ns;
        self
    }
}

impl Workload for ZipfPageWorkload {
    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        // Every op of a call sees `now_ns`, so the triggers are checked
        // once, before the first.
        if self.shift_at_ns.is_some_and(|at| now_ns >= at) {
            let mut shift_rng = SmallRng::seed_from_u64(0x5117F7ED);
            self.zipf.shift(self.shift_fraction, &mut shift_rng);
            self.shift_at_ns = None;
        }
        if self.wake_at_ns.is_some_and(|at| now_ns >= at) {
            let pages = self.zipf.len();
            self.zipf = ShiftableZipf::shuffled_from_seed(pages, self.wake_theta, 0x3A6E_0B17);
            self.cpu_ns = self.wake_cpu_ns;
            self.wake_at_ns = None;
        }
        let n = max_ops.min(self.ops_remaining as usize);
        self.ops_remaining -= n as u64;
        let op = Op::read(self.cpu_ns);
        for _ in 0..n {
            let page = self.zipf.sample(&mut self.rng) as u64;
            batch.push_single(op, Access::read(self.region.addr(page * 4096)));
        }
        n
    }

    fn footprint_bytes(&self) -> u64 {
        self.region.bytes()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn batchable_now(&self) -> bool {
        // Time-independent once every scheduled trigger (shift, wake-up)
        // has fired.
        self.shift_at_ns.is_none() && self.wake_at_ns.is_none()
    }
}

/// A pure sequential scan over the whole footprint, repeated for a number of
/// passes — the classic one-time-only access pattern that pollutes
/// recency-based tiers (paper §7, "One-time-only Access Patterns").
#[derive(Debug)]
pub struct SequentialScanWorkload {
    region: Region,
    stride: u64,
    passes_remaining: u64,
    cursor: u64,
}

impl SequentialScanWorkload {
    /// Scans `pages` pages `passes` times at one access per `stride` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(pages: u64, passes: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        let mut layout = LayoutBuilder::new();
        let region = layout.alloc(pages * 4096);
        Self {
            region,
            stride,
            passes_remaining: passes,
            cursor: 0,
        }
    }
}

impl Workload for SequentialScanWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.region.bytes()
    }

    fn name(&self) -> &str {
        "seq-scan"
    }

    fn batchable_now(&self) -> bool {
        true
    }

    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        let bytes = self.region.bytes();
        let op = Op::compute(20);
        let mut emitted = 0;
        while emitted < max_ops {
            if self.passes_remaining == 0 {
                break;
            }
            batch.push_single(op, Access::read(self.region.addr(self.cursor)));
            self.cursor += self.stride;
            if self.cursor >= bytes {
                self.cursor = 0;
                self.passes_remaining -= 1;
            }
            emitted += 1;
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    fn drain(w: &mut dyn Workload, max: usize) -> Vec<Access> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..max {
            buf.clear();
            if w.next_op(0, &mut buf).is_none() {
                break;
            }
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn zipf_workload_is_skewed() {
        let mut w = ZipfPageWorkload::new(1000, 0.99, 20_000, 1);
        let accesses = drain(&mut w, 30_000);
        assert_eq!(accesses.len(), 20_000);
        let mut counts = std::collections::HashMap::new();
        for a in &accesses {
            *counts.entry(a.page(PageSize::Base4K)).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 200, "hottest page only {max} accesses");
    }

    #[test]
    fn zipf_workload_deterministic() {
        let mut a = ZipfPageWorkload::new(100, 0.9, 1000, 42);
        let mut b = ZipfPageWorkload::new(100, 0.9, 1000, 42);
        assert_eq!(drain(&mut a, 2000), drain(&mut b, 2000));
    }

    #[test]
    fn zipf_shift_changes_hot_page() {
        let mut w = ZipfPageWorkload::new(500, 1.2, 100_000, 9).with_shift(1, 1.0);
        let mut buf = Vec::new();
        // First op at now=0: no shift yet.
        w.next_op(0, &mut buf).unwrap();
        let before_hot = w.zipf.item_at_rank(0);
        // Advance time past the shift point.
        buf.clear();
        w.next_op(10, &mut buf).unwrap();
        let after_hot = w.zipf.item_at_rank(0);
        assert_ne!(before_hot, after_hot, "rank-0 item should be reassigned");
    }

    #[test]
    fn scan_touches_every_page_in_order() {
        let mut w = SequentialScanWorkload::new(4, 1, 4096);
        let accesses = drain(&mut w, 100);
        let pages: Vec<u64> = accesses
            .iter()
            .map(|a| a.page(PageSize::Base4K).0)
            .collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scan_repeats_for_passes() {
        let mut w = SequentialScanWorkload::new(2, 3, 4096);
        let accesses = drain(&mut w, 100);
        assert_eq!(accesses.len(), 6);
    }
}
