//! SPEC CPU 2017 proxies: 603.bwaves and 654.roms.
//!
//! The paper scales both benchmarks to 150 GB resident sets (Table 2);
//! neither is open source, so these are access-pattern proxies built from
//! the benchmarks' published structure:
//!
//! * **bwaves** — a block-tridiagonal Navier-Stokes solver: repeated
//!   streaming sweeps over a handful of large state arrays with a small,
//!   intensely reused coefficient block. Low page-level skew: most pages are
//!   touched once per sweep, which is why no tiering system gains much here
//!   (paper §6.1: HybridTier beats the second best by only 3% on SPEC).
//! * **roms** — a regional ocean model: 3-D stencil sweeps with plane-wise
//!   reuse (each k-plane is touched while processing planes k−1..k+1).

use tiering_trace::{Access, AccessBatch, Op, Workload};

use crate::layout::{LayoutBuilder, Region};

/// Proxy for SPEC CPU 2017 603.bwaves.
#[derive(Debug)]
pub struct BwavesWorkload {
    state: Region,
    rhs: Region,
    coeff: Region,
    sweeps_remaining: u32,
    cursor: u64,
    footprint: u64,
}

impl BwavesWorkload {
    /// A solver over `grid_bytes` of state, swept `sweeps` times.
    ///
    /// Default experiments use ~96 MiB of state (the paper's 150 GB scaled
    /// ~1600×, keeping the state:coefficient ratio).
    pub fn new(grid_bytes: u64, sweeps: u32) -> Self {
        let mut layout = LayoutBuilder::new();
        let state = layout.alloc(grid_bytes);
        let rhs = layout.alloc(grid_bytes / 4);
        let coeff = layout.alloc(256 << 10); // hot coefficient block
        Self {
            state,
            rhs,
            coeff,
            sweeps_remaining: sweeps,
            cursor: 0,
            footprint: layout.total_bytes(),
        }
    }
}

impl Workload for BwavesWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| {
            if self.sweeps_remaining == 0 {
                return None;
            }
            // One op = one 4 KiB block of the sweep: stream the state page,
            // the matching RHS page, and bang on the coefficient block.
            batch.push_access(Access::read(self.state.addr(self.cursor)));
            batch.push_access(Access::write(self.state.addr(self.cursor)));
            let rhs_off = self.cursor / 4;
            batch.push_access(Access::read(self.rhs.addr(rhs_off & !4095)));
            let coeff_off = (self.cursor / 4096 * 64) % self.coeff.bytes();
            batch.push_access(Access::read(self.coeff.addr(coeff_off)));

            self.cursor += 4096;
            if self.cursor >= self.state.bytes() {
                self.cursor = 0;
                self.sweeps_remaining -= 1;
            }
            Some(Op::compute(900))
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        "spec-bwaves"
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

/// Proxy for SPEC CPU 2017 654.roms (3-D stencil ocean model).
#[derive(Debug)]
pub struct RomsWorkload {
    /// Four state fields (u, v, w, rho), each `plane_bytes * nz`.
    fields: [Region; 4],
    plane_bytes: u64,
    nz: u64,
    /// (timestep, k-plane, byte within plane) progress.
    steps_remaining: u32,
    k: u64,
    cursor: u64,
    footprint: u64,
}

impl RomsWorkload {
    /// An `nz`-plane grid with `plane_bytes` per field plane, stepped
    /// `steps` times.
    ///
    /// # Panics
    ///
    /// Panics if `nz < 3` (the stencil needs k−1 and k+1 planes).
    pub fn new(plane_bytes: u64, nz: u64, steps: u32) -> Self {
        assert!(nz >= 3, "stencil needs at least 3 planes");
        let mut layout = LayoutBuilder::new();
        let fields = [
            layout.alloc(plane_bytes * nz),
            layout.alloc(plane_bytes * nz),
            layout.alloc(plane_bytes * nz),
            layout.alloc(plane_bytes * nz),
        ];
        Self {
            fields,
            plane_bytes,
            nz,
            steps_remaining: steps,
            k: 1,
            cursor: 0,
            footprint: layout.total_bytes(),
        }
    }
}

impl Workload for RomsWorkload {
    fn fill_batch(&mut self, _now_ns: u64, max_ops: usize, batch: &mut AccessBatch) -> usize {
        batch.fill_ops(max_ops, |batch| {
            if self.steps_remaining == 0 {
                return None;
            }
            // One op = one 4 KiB tile of the current k-plane across all fields,
            // reading the k−1/k/k+1 planes (vertical stencil) and writing k.
            for field in &self.fields {
                let base_k = self.k * self.plane_bytes + self.cursor;
                batch.push_access(Access::read(field.addr(base_k - self.plane_bytes)));
                batch.push_access(Access::read(field.addr(base_k)));
                batch.push_access(Access::read(field.addr(base_k + self.plane_bytes)));
                batch.push_access(Access::write(field.addr(base_k)));
            }
            self.cursor += 4096;
            if self.cursor >= self.plane_bytes {
                self.cursor = 0;
                self.k += 1;
                if self.k >= self.nz - 1 {
                    self.k = 1;
                    self.steps_remaining -= 1;
                }
            }
            Some(Op::compute(1_200))
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn name(&self) -> &str {
        "spec-roms"
    }

    fn batchable_now(&self) -> bool {
        true // never consults simulated time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageSize;

    #[test]
    fn bwaves_sweeps_whole_state() {
        let mut w = BwavesWorkload::new(64 * 4096, 2);
        let mut pages = std::collections::HashSet::new();
        let mut buf = Vec::new();
        let mut ops = 0;
        while w.next_op(0, &mut buf).is_some() {
            for a in &buf {
                pages.insert(a.page(PageSize::Base4K));
            }
            buf.clear();
            ops += 1;
        }
        assert_eq!(ops, 128, "2 sweeps x 64 state pages");
        // All 64 state pages visited.
        let state_pages = (0..64u64)
            .filter(|p| pages.contains(&tiering_mem::PageId(*p)))
            .count();
        assert_eq!(state_pages, 64);
    }

    #[test]
    fn bwaves_coefficient_block_is_hot() {
        let mut w = BwavesWorkload::new(256 * 4096, 4);
        let coeff_base = w.coeff.base();
        let coeff_end = w.coeff.end();
        let mut coeff_hits = 0u64;
        let mut total = 0u64;
        let mut buf = Vec::new();
        while w.next_op(0, &mut buf).is_some() {
            for a in &buf {
                total += 1;
                if a.addr >= coeff_base && a.addr < coeff_end {
                    coeff_hits += 1;
                }
            }
            buf.clear();
        }
        // Coefficient region is tiny but sees 1/4 of all accesses.
        assert!(coeff_hits * 3 > total / 2, "coeff {coeff_hits} of {total}");
    }

    #[test]
    fn roms_stencil_reads_adjacent_planes() {
        let mut w = RomsWorkload::new(4096, 4, 1);
        let mut buf = Vec::new();
        w.next_op(0, &mut buf).unwrap();
        // 4 fields × (3 reads + 1 write).
        assert_eq!(buf.len(), 16);
        let writes = buf.iter().filter(|a| a.is_write).count();
        assert_eq!(writes, 4);
    }

    #[test]
    fn roms_terminates() {
        let mut w = RomsWorkload::new(2 * 4096, 5, 3);
        let mut buf = Vec::new();
        let mut ops = 0;
        while w.next_op(0, &mut buf).is_some() {
            buf.clear();
            ops += 1;
            assert!(ops < 10_000);
        }
        // 3 steps × 3 interior planes × 2 tiles per plane.
        assert_eq!(ops, 18);
    }

    #[test]
    #[should_panic(expected = "at least 3 planes")]
    fn roms_rejects_thin_grid() {
        let _ = RomsWorkload::new(4096, 2, 1);
    }
}
