//! Silo (in-memory database) under YCSB-C.
//!
//! Silo is an in-memory OLTP engine (paper Table 2); YCSB-C is the
//! read-only workload: point lookups with Zipf-distributed keys whose
//! popularity *never changes*. The paper notes this static distribution
//! favours Memtis's frequency histogram (§6.1) — a property this model
//! reproduces by never re-ranking keys.
//!
//! Each lookup walks a B+-tree: root → inner → leaf, then reads the record.
//! Inner nodes are few and intensely hot; records follow the key Zipf.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};
use crate::zipf::ShiftableZipf;

/// Configuration for the Silo/YCSB-C workload.
#[derive(Debug, Clone)]
pub struct SiloConfig {
    /// Number of records in the table.
    pub records: usize,
    /// Bytes per record.
    pub record_bytes: u64,
    /// B+-tree fanout (keys per inner node).
    pub fanout: usize,
    /// Zipf exponent of key popularity (YCSB default 0.99).
    pub theta: f64,
    /// Operations to run.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SiloConfig {
    fn default() -> Self {
        Self {
            records: 220_000,
            record_bytes: 512,
            fanout: 64,
            theta: 0.99,
            ops: u64::MAX,
            seed: 0x51F0,
        }
    }
}

/// The Silo/YCSB-C workload generator.
#[derive(Debug)]
pub struct SiloWorkload {
    config: SiloConfig,
    zipf: ShiftableZipf,
    rng: SmallRng,
    /// Inner levels, root first; each level is an array of 4 KiB nodes.
    levels: Vec<(Region, usize)>,
    records: Region,
    footprint: u64,
    ops_done: u64,
}

impl SiloWorkload {
    /// Builds the tree layout for the configured record count.
    pub fn new(config: SiloConfig) -> Self {
        let mut layout = LayoutBuilder::new();
        // Compute inner levels top-down: the leaf "level" is the record
        // array itself; each inner node covers `fanout` children.
        let mut node_counts = Vec::new();
        let mut nodes = config.records.div_ceil(config.fanout);
        while nodes > 1 {
            node_counts.push(nodes);
            nodes = nodes.div_ceil(config.fanout);
        }
        node_counts.push(1); // root
        node_counts.reverse(); // root first
        let levels: Vec<(Region, usize)> = node_counts
            .iter()
            .map(|&c| (layout.alloc(c as u64 * 4096), c))
            .collect();
        let records = layout.alloc(config.records as u64 * config.record_bytes);
        Self {
            zipf: ShiftableZipf::shuffled_from_seed(
                config.records,
                config.theta,
                config.seed ^ 0x9E37_79B9,
            ),
            rng: SmallRng::seed_from_u64(config.seed),
            levels,
            records,
            footprint: layout.total_bytes(),
            ops_done: 0,
            config,
        }
    }

    /// Number of B+-tree inner levels (including the root).
    #[cfg(test)]
    fn tree_depth(&self) -> usize {
        self.levels.len()
    }
}

impl Workload for SiloWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        "silo-ycsbc"
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }

    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        // Each lookup walks root → leaf: at each level, the node whose key
        // range covers `key` (keys partition evenly across a level's
        // nodes), then reads the record (single line; 512 B records start
        // line-aligned).
        let n = max_ops.min((self.config.ops - self.ops_done) as usize);
        self.ops_done += n as u64;
        let op = Op::read(150);
        for _ in 0..n {
            let key = self.zipf.sample(&mut self.rng) as usize;
            let start = batch.open_op();
            for (region, count) in &self.levels {
                let node = key * count / self.config.records;
                batch.push_access(Access::read(region.elem(node as u64, 4096)));
            }
            batch.push_access(Access::read(
                self.records.elem(key as u64, self.config.record_bytes),
            ));
            batch.commit_open_op(op, start);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    fn small() -> SiloWorkload {
        SiloWorkload::new(SiloConfig {
            records: 10_000,
            ops: 1_000,
            ..SiloConfig::default()
        })
    }

    #[test]
    fn tree_depth_matches_fanout() {
        let w = small();
        // 10_000 records / 64 = 157 leaves-level nodes; /64 = 3; /64 = 1.
        assert_eq!(w.tree_depth(), 3);
    }

    #[test]
    fn each_op_walks_depth_plus_record() {
        let mut w = small();
        let mut buf = Vec::new();
        let op = w.next_op(0, &mut buf).unwrap();
        assert_eq!(op.kind, tiering_trace::OpKind::Read);
        assert_eq!(buf.len(), w.tree_depth() + 1);
    }

    #[test]
    fn inner_levels_are_small_and_hot() {
        let mut w = small();
        let inner_end = w.levels.last().unwrap().0.end();
        let mut inner = 0u64;
        let mut total = 0u64;
        let mut buf = Vec::new();
        for _ in 0..1_000 {
            buf.clear();
            if w.next_op(0, &mut buf).is_none() {
                break;
            }
            for a in &buf {
                total += 1;
                if a.addr < inner_end {
                    inner += 1;
                }
            }
        }
        // Depth/(depth+1) of accesses land in the inner-node regions.
        assert!(inner * 4 >= total * 2, "inner {inner} of {total}");
    }

    #[test]
    fn record_popularity_is_skewed_and_static() {
        let mut w = small();
        let rec_base = w.records.base();
        let mut counts = std::collections::HashMap::new();
        let mut buf = Vec::new();
        for _ in 0..1_000 {
            buf.clear();
            if w.next_op(0, &mut buf).is_none() {
                break;
            }
            let rec = buf.last().unwrap();
            assert!(rec.addr >= rec_base);
            *counts.entry(rec.page(PageSize::Base4K)).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 20, "record pages should be skewed, max {max}");
    }

    #[test]
    fn footprint_dominated_by_records() {
        let w = small();
        let record_bytes = 10_000 * 512;
        assert!(w.footprint_bytes() >= record_bytes);
        assert!(w.footprint_bytes() < record_bytes * 2);
    }
}
