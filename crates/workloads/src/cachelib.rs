//! CacheLib-style in-memory cache workloads (CDN and social-graph).
//!
//! CacheLib is Meta's caching engine (paper Table 2); its benchmark
//! distributions are characterized by a Zipf object popularity, a
//! per-workload object-size mixture, and rapidly shifting hotness (paper
//! §2.2). Each GET touches the cache index plus every page of the object;
//! SETs additionally write the object.

use std::sync::{Arc, OnceLock};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};
use crate::memo::{memoized, Memo};
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

/// The size-mixture draw and slab layout for one config: objects are laid
/// out back to back in id order, each either small or large, so one bit
/// per object is the whole layout. Object `i`'s offset is
/// `(i − b)·small + b·large`, where `b` — the large objects before it — is
/// a per-word prefix count plus a popcount (a bitmap rank query). 41 KB
/// for the 220k social-graph objects: small enough to stay cached under
/// the shuffled object ids the generator draws.
///
/// Immutable after construction and fully determined by `(objects,
/// small_size, large_size, large_frac, seed)`, so sweep scenarios share one
/// build process-wide — same pattern as the Zipf CDF memo in
/// [`crate::zipf`]. The cached table is exactly what a fresh build would
/// produce, so sharing is invisible to results.
#[derive(Debug)]
struct ObjectTable {
    /// Bit `i % 64` of word `i / 64` is set iff object `i` is large.
    large: Vec<u64>,
    /// `large_before[w]` = large objects among `0..64·w`.
    large_before: Vec<u32>,
    small_size: u64,
    large_size: u64,
    /// Total heap bytes (`Σ size`), i.e. the slab-heap allocation.
    heap_bytes: u64,
}

impl ObjectTable {
    fn build(config: &CacheLibConfig) -> Self {
        let mut size_rng = SmallRng::seed_from_u64(config.seed ^ 0x5153);
        let mut large = vec![0u64; config.objects.div_ceil(64)];
        for i in 0..config.objects {
            if size_rng.gen::<f64>() < config.large_frac {
                large[i / 64] |= 1 << (i % 64);
            }
        }
        let mut n_large = 0u32;
        let large_before = large
            .iter()
            .map(|w| {
                let before = n_large;
                n_large += w.count_ones();
                before
            })
            .collect();
        let n_large = u64::from(n_large);
        Self {
            large,
            large_before,
            small_size: config.small_size,
            large_size: config.large_size,
            heap_bytes: (config.objects as u64 - n_large) * config.small_size
                + n_large * config.large_size,
        }
    }

    /// Heap offset and size of object `i`.
    #[inline]
    fn slot(&self, i: usize) -> (u64, u64) {
        let word = self.large[i / 64];
        let bit = 1u64 << (i % 64);
        let b = u64::from(self.large_before[i / 64] + (word & (bit - 1)).count_ones());
        let offset = (i as u64 - b) * self.small_size + b * self.large_size;
        let size = if word & bit != 0 {
            self.large_size
        } else {
            self.small_size
        };
        (offset, size)
    }

    fn shared(config: &CacheLibConfig) -> Arc<Self> {
        type Key = (usize, u64, u64, u64, u64);
        static TABLES: Memo<Key, Arc<ObjectTable>> = OnceLock::new();
        let key = (
            config.objects,
            config.small_size,
            config.large_size,
            config.large_frac.to_bits(),
            config.seed,
        );
        memoized(&TABLES, key, || Arc::new(Self::build(config)))
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

    /// One GET/SET of object `obj`: the index entry, then every page of the
    /// object body, handed to `push` in order. Returns the op.
    #[inline]
    fn emit_op(&self, obj: usize, is_set: bool, mut push: impl FnMut(Access)) -> Op {
        // Index lookup: one bucket entry.
        push(Access::read(self.index.elem(obj as u64, 16)));

        // Object body: one access per 4 KiB page the object spans.
        let (start, size) = self.table.slot(obj);
        let mut off = start;
        while off < start + size {
            push(Access {
                addr: self.heap.addr(off),
                is_write: is_set,
            });
            off = (off / 4096 + 1) * 4096; // next page boundary
        }

        // Compute cost grows mildly with object size (checksum/copy).
        let cpu = 200 + size / 64;
        if is_set {
            Op::write(cpu)
        } else {
            Op::read(cpu)
        }
    }
}

/// Ops whose draws [`CacheLibWorkload::fill_batch`] takes before emitting
/// any of them (the engine's default batch).
const DRAW_CHUNK: usize = 64;

impl Workload for CacheLibWorkload {
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
        // Draw first, emit second: each op draws its rank, then whether it
        // is a SET, from `rng`. A rank never reads the rank→item
        // permutation, and shifts and churn — which only permute it — use
        // their own RNG, so drawing a chunk's `(rank, is_set)` pairs ahead
        // lets their CDF misses overlap. The permutation is read per op,
        // after that op's `maybe_shift`, so a shift or churn takes effect
        // at the op it fires on wherever that op sits in the call.
        let n = max_ops.min((self.config.ops - self.ops_done) as usize);
        let mut draws = [(0usize, false); DRAW_CHUNK];
        for chunk_start in (0..n).step_by(DRAW_CHUNK) {
            let draws = &mut draws[..DRAW_CHUNK.min(n - chunk_start)];
            let dist = self.zipf.distribution();
            for d in draws.iter_mut() {
                let rank = dist.sample_rank(&mut self.rng);
                *d = (rank, self.rng.gen::<f64>() < self.config.set_fraction);
            }
            for &(rank, is_set) in draws.iter() {
                self.ops_done += 1;
                self.maybe_shift(now_ns);
                let obj = self.zipf.item_at_rank(rank) as usize;
                let start = batch.open_op();
                let op = self.emit_op(obj, is_set, |a| batch.push_access(a));
                batch.commit_open_op(op, start);
            }
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
        let (offset, size) = w.table.slot(1999);
        assert!(offset + size <= w.heap.bytes());
    }

    /// The parent's layout, kept verbatim as the oracle for the bitmap:
    /// one heap placement per object, byte offset and size packed in a
    /// single 16-byte-stride record.
    #[derive(Debug, Clone, Copy)]
    struct ObjectSlot {
        offset: u64,
        size: u32,
    }

    /// The parent's `ObjectTable::build` body: `(slots, heap_bytes)`.
    fn slot_table(config: &CacheLibConfig) -> (Vec<ObjectSlot>, u64) {
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
        (slots, cursor)
    }

    /// The rank/select bitmap places every object exactly where the slot
    /// table did, across word boundaries and both size extremes.
    #[test]
    fn bitmap_layout_matches_slot_table() {
        let mut configs = vec![
            CacheLibConfig::cdn(),
            CacheLibConfig::social_graph(),
            CacheLibConfig::cdn().with_uniform_size(8 << 10),
        ];
        for frac in [0.0, 1.0] {
            let mut c = CacheLibConfig::social_graph();
            c.large_frac = frac;
            configs.push(c);
        }
        for objects in [1, 63, 64, 65, 220_001] {
            for mut c in [CacheLibConfig::cdn(), CacheLibConfig::social_graph()] {
                c.objects = objects;
                configs.push(c);
            }
        }
        for c in &configs {
            let (slots, heap_bytes) = slot_table(c);
            let table = ObjectTable::build(c);
            assert_eq!(table.heap_bytes, heap_bytes, "{} × {}", c.name, c.objects);
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(
                    table.slot(i),
                    (s.offset, u64::from(s.size)),
                    "{} × {}: object {i}",
                    c.name,
                    c.objects
                );
            }
        }
    }

    /// Object sizes are `u64` end to end: a ≥ 4 GiB object keeps its size
    /// and pushes every later offset (the slot table truncated it).
    #[test]
    fn objects_of_4_gib_and_more_keep_their_size() {
        let mut c = CacheLibConfig::cdn().with_uniform_size(5 << 30);
        c.objects = 3;
        let table = ObjectTable::build(&c);
        assert_eq!(table.heap_bytes, 15 << 30);
        assert_eq!(table.slot(2), (10 << 30, 5 << 30));
        assert_ne!(slot_table(&c).1, table.heap_bytes);
        assert!(CacheLibWorkload::new(c).footprint_bytes() > 15 << 30);
    }

    /// `fill_batch` ≡ `next_op` with churn firing inside batches: every op
    /// (interval 1) or at an offset that drifts across batch edges
    /// (interval 7), for batch sizes on and off the draw chunk, on both
    /// configs.
    #[test]
    fn fill_batch_equals_next_op_with_churn_inside_the_batch() {
        for base in [CacheLibConfig::cdn(), CacheLibConfig::social_graph()] {
            for interval in [1, 7] {
                for batch_ops in [1, 13, 61, 64] {
                    let mut c = base.clone().with_ops(2_000);
                    c.objects = 3_000;
                    c.churn_interval_ops = Some(interval);
                    c.churn_fraction = 0.5;
                    assert_fill_matches_next_op(c, batch_ops);
                }
            }
        }
    }

    fn assert_fill_matches_next_op(config: CacheLibConfig, batch_ops: usize) {
        let what = format!("{} churn {:?}", config.name, config.churn_interval_ops);
        let mut batched = CacheLibWorkload::new(config.clone());
        let mut scalar = CacheLibWorkload::new(config);
        let mut batch = AccessBatch::new();
        let mut buf = Vec::new();
        let mut ops = 0;
        loop {
            batch.clear();
            let n = batched.fill_batch(0, batch_ops, &mut batch);
            for i in 0..n {
                let (op, s, e) = batch.op_bounds(i);
                buf.clear();
                assert_eq!(scalar.next_op(0, &mut buf), Some(op), "{what}: op {ops}");
                let got: Vec<Access> = (s..e).map(|k| batch.access(k)).collect();
                assert_eq!(got, buf, "{what} batch {batch_ops}: op {ops}");
                ops += 1;
            }
            if n == 0 {
                assert_eq!(scalar.next_op(0, &mut buf), None, "{what}");
                break;
            }
        }
        assert_eq!(batched.ops_done, scalar.ops_done);
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
