//! XGBoost gradient-boosting training proxy (Criteo click logs).
//!
//! XGBoost's CPU histogram algorithm dominates training time: per boosting
//! round it scans the gradient/hessian arrays and a *subset* of feature
//! columns to build split histograms. Which columns are scanned (and which
//! row partitions are active) changes from round to round via column
//! subsampling — producing exactly the hotness churn the paper measures for
//! XGBoost in Figure 2(b) (~50% of hot pages cold within 5 minutes).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};

/// Configuration of the XGBoost training proxy.
#[derive(Debug, Clone)]
pub struct XgboostConfig {
    /// Number of training rows.
    pub rows: u64,
    /// Number of feature columns.
    pub features: usize,
    /// Columns sampled per boosting round (`colsample_bytree`).
    pub columns_per_round: usize,
    /// Number of boosting rounds.
    pub rounds: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for XgboostConfig {
    fn default() -> Self {
        Self {
            rows: 400_000,
            features: 64,
            columns_per_round: 24,
            rounds: 20,
            seed: 0x9B00,
        }
    }
}

/// The XGBoost workload generator.
#[derive(Debug)]
pub struct XgboostWorkload {
    config: XgboostConfig,
    /// Column-major feature matrix: one region per feature column.
    columns: Vec<Region>,
    gradients: Region,
    hessians: Region,
    histogram: Region,
    /// Columns active this round.
    active: Vec<usize>,
    rng: SmallRng,
    round: u32,
    /// (active-column index, row chunk) progress within the round.
    col_idx: usize,
    chunk: u64,
    chunks_per_col: u64,
    footprint: u64,
}

/// Rows processed per op (one 4 KiB page of a 4-byte-per-row column).
const ROWS_PER_CHUNK: u64 = 1024;

impl XgboostWorkload {
    /// Lays out the training state and samples the first round's columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns_per_round > features` or any dimension is zero.
    pub fn new(config: XgboostConfig) -> Self {
        assert!(config.rows > 0 && config.features > 0 && config.rounds > 0);
        assert!(
            config.columns_per_round <= config.features,
            "cannot sample {} of {} columns",
            config.columns_per_round,
            config.features
        );
        let mut layout = LayoutBuilder::new();
        let columns: Vec<Region> = (0..config.features)
            .map(|_| layout.alloc(config.rows * 4))
            .collect();
        let gradients = layout.alloc(config.rows * 4);
        let hessians = layout.alloc(config.rows * 4);
        let histogram = layout.alloc(64 << 10); // per-node split histograms
        let rng = SmallRng::seed_from_u64(config.seed);
        let mut w = Self {
            columns,
            gradients,
            hessians,
            histogram,
            active: Vec::new(),
            rng,
            round: 0,
            col_idx: 0,
            chunk: 0,
            chunks_per_col: config.rows.div_ceil(ROWS_PER_CHUNK),
            footprint: layout.total_bytes(),
            config,
        };
        w.sample_columns();
        w
    }

    /// Draws this round's column subset (the churn source).
    fn sample_columns(&mut self) {
        let mut all: Vec<usize> = (0..self.config.features).collect();
        all.shuffle(&mut self.rng);
        all.truncate(self.config.columns_per_round);
        self.active = all;
    }

    /// Columns active in the current round.
    #[cfg(test)]
    fn active_columns(&self) -> &[usize] {
        &self.active
    }

    /// Current boosting round.
    #[cfg(test)]
    fn round(&self) -> u32 {
        self.round
    }
}

impl Workload for XgboostWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| {
            if self.round >= self.config.rounds {
                return None;
            }
            // One op: scan one row-chunk of one active column, reading the
            // matching gradient/hessian chunk and updating the histograms.
            let col = self.columns[self.active[self.col_idx]];
            let off = self.chunk * ROWS_PER_CHUNK * 4;
            batch.push_access(Access::read(col.addr(off)));
            batch.push_access(Access::read(self.gradients.addr(off)));
            batch.push_access(Access::read(self.hessians.addr(off)));
            let hist_off = (self.chunk * 64) % self.histogram.bytes();
            batch.push_access(Access::write(self.histogram.addr(hist_off)));

            self.chunk += 1;
            if self.chunk >= self.chunks_per_col {
                self.chunk = 0;
                self.col_idx += 1;
                if self.col_idx >= self.active.len() {
                    self.col_idx = 0;
                    self.round += 1;
                    self.sample_columns();
                }
            }
            Some(Op::compute(2_500))
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        "xgboost"
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> XgboostWorkload {
        XgboostWorkload::new(XgboostConfig {
            rows: 8_192,
            features: 16,
            columns_per_round: 4,
            rounds: 3,
            seed: 11,
        })
    }

    #[test]
    fn runs_exact_op_count() {
        let mut w = small();
        let chunks = 8_192 / ROWS_PER_CHUNK;
        let expect = 3 * 4 * chunks; // rounds × columns × chunks
        let mut buf = Vec::new();
        let mut ops = 0u64;
        while w.next_op(0, &mut buf).is_some() {
            buf.clear();
            ops += 1;
        }
        assert_eq!(ops, expect);
    }

    #[test]
    fn active_columns_change_between_rounds() {
        let mut w = small();
        let first: Vec<usize> = w.active_columns().to_vec();
        let mut buf = Vec::new();
        while w.round() == 0 {
            buf.clear();
            w.next_op(0, &mut buf);
        }
        let second: Vec<usize> = w.active_columns().to_vec();
        assert_ne!(first, second, "column subsample should differ per round");
    }

    #[test]
    fn only_active_columns_touched_within_round() {
        let mut w = small();
        let active: Vec<usize> = w.active_columns().to_vec();
        let regions: Vec<Region> = w.columns.clone();
        let mut buf = Vec::new();
        while w.round() == 0 {
            buf.clear();
            if w.next_op(0, &mut buf).is_none() {
                break;
            }
            let col_access = buf[0];
            let col = regions
                .iter()
                .position(|r| col_access.addr >= r.base() && col_access.addr < r.end())
                .expect("first access must hit a column region");
            assert!(active.contains(&col), "column {col} not in active set");
        }
    }

    #[test]
    fn gradient_reread_every_round() {
        let mut w = small();
        let grad = w.gradients;
        let mut grad_reads = 0u64;
        let mut buf = Vec::new();
        while w.next_op(0, &mut buf).is_some() {
            grad_reads += buf
                .iter()
                .filter(|a| a.addr >= grad.base() && a.addr < grad.end())
                .count() as u64;
            buf.clear();
        }
        // Gradients are read once per chunk per column per round.
        assert_eq!(grad_reads, 3 * 4 * (8_192 / ROWS_PER_CHUNK));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn rejects_oversampled_columns() {
        let _ = XgboostWorkload::new(XgboostConfig {
            rows: 100,
            features: 4,
            columns_per_round: 5,
            rounds: 1,
            seed: 0,
        });
    }
}
