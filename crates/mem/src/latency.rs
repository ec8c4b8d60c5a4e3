//! Access and migration latency model.

use crate::page::PageSize;

/// Latency parameters of the simulated memory system, in nanoseconds.
///
/// Defaults follow the paper's emulated testbed (§5.1): local DRAM ≈ 100 ns,
/// emulated CXL 124 ns idle but 2–5× under load (Figure 1); we default the
/// slow tier to 250 ns, the middle of the commercial-device band. Migration
/// cost covers the kernel page-copy plus bookkeeping (≈ 2 µs per 4 KiB page,
/// consistent with `move_pages` microbenchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Load serviced from the fast tier (local DRAM).
    pub fast_ns: u64,
    /// Load serviced from the slow tier (CXL memory).
    pub slow_ns: u64,
    /// Effective cost of a *streamed* (prefetched sequential) fast-tier
    /// line: bandwidth-bound, far below the random-access latency.
    pub fast_stream_ns: u64,
    /// Effective cost of a streamed slow-tier line. CXL sequential
    /// bandwidth is 20–70% of local DRAM (paper Figure 1), so the stream
    /// cost ratio sits in that band rather than at the latency ratio.
    pub slow_stream_ns: u64,
    /// Load serviced from L1 (used only when cache simulation is enabled).
    pub l1_hit_ns: u64,
    /// Load serviced from LLC (used only when cache simulation is enabled).
    pub llc_hit_ns: u64,
    /// Cost to migrate one 4 KiB base page between tiers.
    pub migrate_base_page_ns: u64,
    /// Fixed overhead per migration system call (HybridTier batches 100 000
    /// samples per call precisely to amortize this, §4.3).
    pub syscall_ns: u64,
    /// Extra cost charged to an access that triggers a NUMA hint fault
    /// (recency-based systems sample through these faults).
    pub hint_fault_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::emulated_cxl()
    }
}

impl LatencyModel {
    /// The paper's emulated-CXL testbed parameters.
    fn emulated_cxl() -> Self {
        Self {
            fast_ns: 100,
            slow_ns: 250,
            fast_stream_ns: 30,
            slow_stream_ns: 80,
            l1_hit_ns: 2,
            llc_hit_ns: 14,
            migrate_base_page_ns: 2_000,
            syscall_ns: 1_500,
            hint_fault_ns: 1_200,
        }
    }

    /// A pessimistic CXL device at the top of Figure 1's band (5× local
    /// latency), for sensitivity studies.
    #[cfg(test)]
    fn far_cxl() -> Self {
        Self {
            slow_ns: 500,
            ..Self::emulated_cxl()
        }
    }

    /// Cost of migrating one page of the given size (linear in page bytes;
    /// a 2 MiB THP costs 512× a base page, matching kernel measurements of
    /// ~1 ms per huge-page move).
    #[inline]
    pub fn migrate_page_ns(&self, size: PageSize) -> u64 {
        self.migrate_base_page_ns * size.base_pages()
    }
}

/// One row of a per-tier latency table: the access/stream/migration costs
/// of a single rung of a [`crate::TierTopology`] ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierLatency {
    /// Random (DRAM-row) access latency of this rung.
    pub access_ns: u64,
    /// Effective cost of a streamed (hardware-prefetched) line.
    pub stream_ns: u64,
    /// Cost of migrating one 4 KiB base page into or out of this rung.
    pub migrate_base_page_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_emulated_cxl() {
        let m = LatencyModel::default();
        assert_eq!(m.fast_ns, 100);
        assert!(m.slow_ns > m.fast_ns, "slow tier must be slower");
        assert!(
            m.slow_ns >= 2 * m.fast_ns && m.slow_ns <= 5 * m.fast_ns,
            "slow tier within the paper's 2-5x band"
        );
    }

    #[test]
    fn huge_page_migration_is_512x() {
        let m = LatencyModel::emulated_cxl();
        assert_eq!(
            m.migrate_page_ns(PageSize::Huge2M),
            512 * m.migrate_page_ns(PageSize::Base4K)
        );
    }

    #[test]
    fn far_cxl_is_5x() {
        let m = LatencyModel::far_cxl();
        assert_eq!(m.slow_ns, 5 * m.fast_ns);
    }
}
