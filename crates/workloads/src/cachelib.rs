//! CacheLib-style in-memory cache workloads (CDN and social-graph).
//!
//! CacheLib is Meta's caching engine (paper Table 2); its benchmark
//! distributions are characterized by a Zipf object popularity, a
//! per-workload object-size mixture, and rapidly shifting hotness (paper
//! §2.2). Each GET touches the cache index plus every page of the object;
//! SETs additionally write the object.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tiering_trace::{fill_batch_via_next_op, Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};
use crate::zipf::ShiftableZipf;

/// A scheduled hotness-distribution change (paper Figure 4: "we adjust the
/// access distribution at the 1800-second mark such that 2/3 of previously
/// hot data are no longer hot").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftEvent {
    /// Simulated time at which the shift occurs.
    pub at_ns: u64,
    /// Fraction of hot ranks reassigned to cold items.
    pub fraction: f64,
}

/// Configuration of a CacheLib-style workload.
#[derive(Debug, Clone)]
pub struct CacheLibConfig {
    /// Number of cached objects.
    pub objects: usize,
    /// Zipf exponent of object popularity.
    pub theta: f64,
    /// Size of a "small" object in bytes.
    pub small_size: u64,
    /// Size of a "large" object in bytes.
    pub large_size: u64,
    /// Fraction of objects that are large.
    pub large_frac: f64,
    /// Fraction of operations that are SETs (writes).
    pub set_fraction: f64,
    /// Scheduled distribution shifts.
    pub shifts: Vec<ShiftEvent>,
    /// Continuous churn: every `churn_interval_ops` operations, reassign
    /// `churn_fraction` of hot ranks (models production TTL expiry; §2.2).
    ///
    /// Keyed on the *operation count*, not simulated time, so every policy
    /// compared on this workload sees the identical access sequence —
    /// time-keyed churn would let slow policies experience a different
    /// (possibly cheaper) object mix, corrupting throughput comparisons.
    /// One-off [`ShiftEvent`]s remain time-keyed for adaptation studies.
    pub churn_interval_ops: Option<u64>,
    /// Fraction of hot ranks reassigned per churn event.
    pub churn_fraction: f64,
    /// Operations to run (`u64::MAX` = until the engine stops).
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
    /// Report name.
    pub name: &'static str,
}

impl CacheLibConfig {
    /// The content-delivery-network workload: fewer, larger objects (Table 2
    /// footprint 267 GB, scaled here ~512×).
    pub fn cdn() -> Self {
        Self {
            objects: 14_000,
            theta: 0.99,
            small_size: 4 << 10,
            large_size: 128 << 10,
            large_frac: 0.10,
            set_fraction: 0.05,
            shifts: Vec::new(),
            churn_interval_ops: Some(50_000), // ~100 ms at 0.5 Mop/s (paper: minutes)
            churn_fraction: 0.02,
            ops: u64::MAX,
            seed: 0xCD17,
            name: "cachelib-cdn",
        }
    }

    /// The social-graph workload: many small objects with the largest hot
    /// set of the suite (paper Figure 16: "Social-graph has the largest
    /// fraction of pages with access count >= 15").
    pub fn social_graph() -> Self {
        Self {
            objects: 220_000,
            theta: 0.90,
            small_size: 256,
            large_size: 4 << 10,
            large_frac: 0.05,
            set_fraction: 0.10,
            shifts: Vec::new(),
            churn_interval_ops: Some(50_000),
            churn_fraction: 0.015,
            ops: u64::MAX,
            seed: 0x50C1,
            name: "cachelib-social",
        }
    }

    /// Adds the Figure 4 adaptation shift: at `at_ns`, 2/3 of hot data turn
    /// cold.
    #[must_use]
    pub fn with_shift(mut self, at_ns: u64, fraction: f64) -> Self {
        self.shifts.push(ShiftEvent { at_ns, fraction });
        self.shifts.sort_by_key(|s| s.at_ns);
        self
    }

    /// Disables continuous churn (for steady-state experiments such as the
    /// Table 5 accuracy study).
    #[must_use]
    pub fn without_churn(mut self) -> Self {
        self.churn_interval_ops = None;
        self
    }

    /// Makes every object `bytes` large.
    ///
    /// Used by the adaptation experiments (Figure 4, Table 3): at paper
    /// scale the hot set spans ~millions of objects so its size mix
    /// self-averages, but at this scale a hotness shift would otherwise
    /// also shift the hot size mix — a confound unrelated to tiering.
    #[must_use]
    pub fn with_uniform_size(mut self, bytes: u64) -> Self {
        self.small_size = bytes;
        self.large_size = bytes;
        self.large_frac = 0.0;
        self
    }

    /// Caps the number of operations.
    #[must_use]
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One object's heap placement: byte offset and size packed in a single
/// 16-byte-stride record, so the per-op lookup touches one cache line
/// instead of two parallel arrays.
#[derive(Debug, Clone, Copy)]
struct ObjectSlot {
    offset: u64,
    size: u32,
}

/// The size-mixture draw and slab layout for one config. Immutable after
/// construction and fully determined by `(objects, small_size, large_size,
/// large_frac, seed)`, so sweep scenarios share one build process-wide —
/// same pattern as the Zipf CDF memo in [`crate::zipf`]. The cached slots
/// are the very values a fresh build would produce, so sharing is invisible
/// to results.
#[derive(Debug)]
struct ObjectTable {
    slots: Vec<ObjectSlot>,
    /// Total heap bytes (`Σ size`), i.e. the slab-heap allocation.
    heap_bytes: u64,
}

impl ObjectTable {
    fn build(config: &CacheLibConfig) -> Self {
        let mut size_rng = SmallRng::seed_from_u64(config.seed ^ 0x5153);
        let mut slots = Vec::with_capacity(config.objects);
        let mut cursor = 0u64;
        for _ in 0..config.objects {
            let size = if size_rng.gen::<f64>() < config.large_frac {
                config.large_size
            } else {
                config.small_size
            } as u32;
            slots.push(ObjectSlot {
                offset: cursor,
                size,
            });
            cursor += size as u64;
        }
        Self {
            slots,
            heap_bytes: cursor,
        }
    }

    fn shared(config: &CacheLibConfig) -> Arc<Self> {
        type Key = (usize, u64, u64, u64, u64);
        static CACHE: OnceLock<Mutex<HashMap<Key, Arc<ObjectTable>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (
            config.objects,
            config.small_size,
            config.large_size,
            config.large_frac.to_bits(),
            config.seed,
        );
        if let Some(t) = cache.lock().expect("object table cache poisoned").get(&key) {
            return Arc::clone(t);
        }
        // Build outside the lock (racing builds are identical; last insert
        // wins).
        let table = Arc::new(Self::build(config));
        cache
            .lock()
            .expect("object table cache poisoned")
            .entry(key)
            .or_insert(table)
            .clone()
    }
}

/// The CacheLib workload generator.
#[derive(Debug)]
pub struct CacheLibWorkload {
    config: CacheLibConfig,
    zipf: ShiftableZipf,
    rng: SmallRng,
    /// Dedicated RNG for rank shifts, so shift timing never perturbs the
    /// op-sampling stream.
    shift_rng: SmallRng,
    index: Region,
    heap: Region,
    /// Heap placement of each object (shared across same-config instances).
    table: Arc<ObjectTable>,
    footprint: u64,
    ops_done: u64,
    next_shift: usize,
    next_churn_op: u64,
}

impl CacheLibWorkload {
    /// Builds the workload: draws object sizes, lays out the slab heap and
    /// the index, and initializes popularity.
    pub fn new(config: CacheLibConfig) -> Self {
        let table = ObjectTable::shared(&config);
        let mut layout = LayoutBuilder::new();
        // Index: 16 B/object hash-table entries, like CacheLib's item table.
        let index = layout.alloc(config.objects as u64 * 16);
        let heap = layout.alloc(table.heap_bytes);
        let footprint = layout.total_bytes();
        Self {
            zipf: ShiftableZipf::shuffled_from_seed(
                config.objects,
                config.theta,
                config.seed ^ 0x9E37_79B9,
            ),
            rng: SmallRng::seed_from_u64(config.seed),
            shift_rng: SmallRng::seed_from_u64(config.seed ^ 0xC0FF_EE00),
            index,
            heap,
            table,
            footprint,
            ops_done: 0,
            next_shift: 0,
            next_churn_op: config.churn_interval_ops.unwrap_or(u64::MAX),
            config,
        }
    }

    fn maybe_shift(&mut self, now_ns: u64) {
        while let Some(ev) = self.config.shifts.get(self.next_shift) {
            if now_ns < ev.at_ns {
                break;
            }
            let f = ev.fraction;
            self.zipf.shift(f, &mut self.shift_rng);
            self.next_shift += 1;
        }
        if self.ops_done >= self.next_churn_op {
            let f = self.config.churn_fraction;
            self.zipf.shift(f, &mut self.shift_rng);
            self.next_churn_op += self.config.churn_interval_ops.expect("churn enabled");
        }
    }
}

impl Workload for CacheLibWorkload {
    fn next_op(&mut self, now_ns: u64, out: &mut Vec<Access>) -> Option<Op> {
        if self.ops_done >= self.config.ops {
            return None;
        }
        self.ops_done += 1;
        self.maybe_shift(now_ns);

        let obj = self.zipf.sample(&mut self.rng) as usize;
        let is_set = self.rng.gen::<f64>() < self.config.set_fraction;

        // Index lookup: one bucket entry.
        out.push(Access::read(self.index.elem(obj as u64, 16)));

        // Object body: one access per 4 KiB page the object spans.
        let slot = self.table.slots[obj];
        let start = slot.offset;
        let size = slot.size as u64;
        let mut off = start;
        let end = start + size;
        while off < end {
            let a = self.heap.addr(off);
            out.push(if is_set {
                Access::write(a)
            } else {
                Access::read(a)
            });
            off = (off / 4096 + 1) * 4096; // next page boundary
        }

        // Compute cost grows mildly with object size (checksum/copy).
        let cpu = 200 + size / 64;
        Some(if is_set {
            Op::write(cpu)
        } else {
            Op::read(cpu)
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        self.config.name
    }

    fn batchable_now(&self) -> bool {
        // Shift events are the only clock-driven behaviour; background churn
        // triggers on the op counter, which advances identically whether ops
        // are pulled one at a time or in batches.
        self.next_shift >= self.config.shifts.len()
    }

    fn fill_batch(&mut self, now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        // Zero-copy SoA fill: accesses go straight into the batch columns
        // (no staging `Vec<Access>` round trip). Only valid while batchable
        // — with a clock-driven shift still pending, fall back to the
        // generic per-op path so the trigger sees fresh time every op.
        // `maybe_shift` still runs per op for the op-counter-driven churn.
        if !self.batchable_now() {
            return fill_batch_via_next_op(self, now_ns, max_ops, batch);
        }
        let n = max_ops.min((self.config.ops - self.ops_done) as usize);
        for _ in 0..n {
            self.ops_done += 1;
            self.maybe_shift(now_ns);

            let obj = self.zipf.sample(&mut self.rng) as usize;
            let is_set = self.rng.gen::<f64>() < self.config.set_fraction;

            let start = batch.open_op();
            batch.push_access(Access::read(self.index.elem(obj as u64, 16)));
            let slot = self.table.slots[obj];
            let first = slot.offset;
            let size = slot.size as u64;
            let mut off = first;
            let end = first + size;
            while off < end {
                let a = self.heap.addr(off);
                batch.push_access(if is_set {
                    Access::write(a)
                } else {
                    Access::read(a)
                });
                off = (off / 4096 + 1) * 4096; // next page boundary
            }
            let cpu = 200 + size / 64;
            batch.commit_open_op(
                if is_set {
                    Op::write(cpu)
                } else {
                    Op::read(cpu)
                },
                start,
            );
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    fn small_cdn(ops: u64) -> CacheLibWorkload {
        let mut cfg = CacheLibConfig::cdn().with_ops(ops);
        cfg.objects = 2_000;
        CacheLibWorkload::new(cfg)
    }

    #[test]
    fn footprint_covers_all_objects() {
        let w = small_cdn(10);
        // 2000 objects, ~10% at 128 KiB + 90% at 4 KiB, plus index.
        let expect_min = 2_000 * 4096;
        assert!(w.footprint_bytes() > expect_min as u64);
        // Every object lies inside the heap region.
        let slot = w.table.slots[1999];
        let last = slot.offset + slot.size as u64;
        assert!(last <= w.heap.bytes());
    }

    #[test]
    fn get_touches_index_and_every_object_page() {
        let mut w = small_cdn(1000);
        let mut buf = Vec::new();
        for _ in 0..1000 {
            buf.clear();
            let op = w.next_op(0, &mut buf).unwrap();
            // First access is always the index.
            assert!(buf[0].addr < w.index.end());
            // Remaining accesses walk the object pages in order.
            let body = &buf[1..];
            assert!(!body.is_empty());
            for pair in body.windows(2) {
                assert!(pair[0].addr < pair[1].addr);
                assert!(pair[1].page(PageSize::Base4K).0 - pair[0].page(PageSize::Base4K).0 == 1);
            }
            let _ = op;
        }
    }

    #[test]
    fn large_objects_span_many_pages() {
        let mut w = small_cdn(5_000);
        let mut buf = Vec::new();
        let mut max_body = 0;
        for _ in 0..5_000 {
            buf.clear();
            w.next_op(0, &mut buf);
            max_body = max_body.max(buf.len() - 1);
        }
        assert_eq!(max_body, 32, "128 KiB objects span 32 pages");
    }

    #[test]
    fn sets_write_reads_read() {
        let mut cfg = CacheLibConfig::cdn().with_ops(2_000);
        cfg.objects = 500;
        cfg.set_fraction = 1.0;
        let mut w = CacheLibWorkload::new(cfg);
        let mut buf = Vec::new();
        buf.clear();
        let op = w.next_op(0, &mut buf).unwrap();
        assert_eq!(op.kind, tiering_trace::OpKind::Write);
        assert!(buf[1..].iter().all(|a| a.is_write));
    }

    #[test]
    fn shift_event_fires_once_at_time() {
        let mut cfg = CacheLibConfig::cdn().with_ops(u64::MAX).without_churn();
        cfg.objects = 1_000;
        let mut w = CacheLibWorkload::new(cfg.with_shift(1_000, 1.0));
        let before = w.zipf.item_at_rank(0);
        let mut buf = Vec::new();
        w.next_op(0, &mut buf); // before shift
        assert_eq!(w.zipf.item_at_rank(0), before);
        buf.clear();
        w.next_op(2_000, &mut buf); // after shift time
        assert_ne!(w.zipf.item_at_rank(0), before);
        assert_eq!(w.next_shift, 1);
    }

    #[test]
    fn churn_reassigns_over_time() {
        let mut cfg = CacheLibConfig::social_graph().with_ops(u64::MAX);
        cfg.objects = 5_000;
        cfg.churn_interval_ops = Some(5);
        cfg.churn_fraction = 0.5;
        let mut w = CacheLibWorkload::new(cfg);
        let before: Vec<u32> = (0..50).map(|r| w.zipf.item_at_rank(r)).collect();
        let mut buf = Vec::new();
        for t in 0..20u64 {
            buf.clear();
            w.next_op(t * 1_000, &mut buf);
        }
        let changed = (0..50)
            .filter(|&r| w.zipf.item_at_rank(r) != before[r])
            .count();
        assert!(changed > 10, "churn should move hot ranks, moved {changed}");
    }

    #[test]
    fn social_graph_has_more_objects_than_cdn() {
        assert!(CacheLibConfig::social_graph().objects > CacheLibConfig::cdn().objects);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = small_cdn(500);
        let mut b = small_cdn(500);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for _ in 0..500 {
            ba.clear();
            bb.clear();
            a.next_op(0, &mut ba);
            b.next_op(0, &mut bb);
            assert_eq!(ba, bb);
        }
    }
}
