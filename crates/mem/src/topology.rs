//! N-tier ladder topologies: ordered stacks of memory tiers with per-rung
//! capacity, latency, bandwidth, and migration-cost parameters.
//!
//! The paper's testbed is the binary DRAM/CXL split ([`TierConfig`] +
//! [`LatencyModel`]); production hierarchies add more rungs below it —
//! TPP-style multi-node CXL, NVMe, archival media. [`TierTopology`]
//! describes such a ladder (index 0 = fastest), [`LadderKind`] names the
//! built-in presets, and [`TieredMemory`](crate::TieredMemory) runs any of
//! them with the same promote/demote API: the 2-tier preset built from a
//! [`TierConfig`] reproduces the classic behavior bit-for-bit.

use std::fmt;

use crate::latency::{LatencyModel, TierLatency};
use crate::page::PageSize;
use crate::tiered::TierConfig;

/// One rung of an N-tier memory ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierParams {
    /// Short human label ("dram", "cxl", "nvme", "archive").
    pub label: &'static str,
    /// Pages this rung can hold.
    pub capacity_pages: u64,
    /// Random-access load latency from this rung (ns).
    pub access_ns: u64,
    /// Effective cost of a streamed (hardware-prefetched sequential) line
    /// from this rung (ns) — bandwidth-bound, below the random latency.
    pub stream_ns: u64,
    /// Cost to move one 4 KiB base page across the hop that ends (or
    /// starts) at this rung; a hop between adjacent rungs is charged at the
    /// slower rung's rate.
    pub migrate_base_page_ns: u64,
}

/// An ordered ladder of memory tiers, index 0 = fastest, last = coldest.
///
/// The bottom rung must be able to hold the whole footprint (the classic
/// "slow tier sized to the footprint" rule, generalized), which
/// [`TierTopology::new`] asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierTopology {
    tiers: Vec<TierParams>,
    page_size: PageSize,
    address_space_pages: u64,
}

/// Ladders may not exceed this many rungs (placement indices are stored in
/// one byte per page, and no modeled hierarchy is deeper).
pub const MAX_TIERS: usize = 8;

impl TierTopology {
    /// Builds a ladder from explicit per-rung parameters.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 or more than [`MAX_TIERS`] rungs are given,
    /// if any rung has zero capacity, or if the bottom rung cannot hold
    /// `address_space_pages`.
    pub fn new(tiers: Vec<TierParams>, page_size: PageSize, address_space_pages: u64) -> Self {
        assert!(
            (2..=MAX_TIERS).contains(&tiers.len()),
            "a ladder needs 2..={MAX_TIERS} tiers, got {}",
            tiers.len()
        );
        assert!(
            tiers.iter().all(|t| t.capacity_pages > 0),
            "every tier needs positive capacity"
        );
        assert!(
            tiers.last().expect("non-empty").capacity_pages >= address_space_pages,
            "the bottom tier must be sized to the footprint"
        );
        Self {
            tiers,
            page_size,
            address_space_pages,
        }
    }

    /// The classic 2-tier emulated-CXL testbed as a ladder: capacities from
    /// `config`, latencies from `latency`. A
    /// [`TieredMemory`](crate::TieredMemory) built on this topology behaves
    /// identically to one built with
    /// [`TieredMemory::new`](crate::TieredMemory::new).
    pub fn two_tier(config: TierConfig, latency: &LatencyModel) -> Self {
        Self {
            tiers: vec![
                TierParams {
                    label: "fast",
                    capacity_pages: config.fast_capacity_pages,
                    access_ns: latency.fast_ns,
                    stream_ns: latency.fast_stream_ns,
                    migrate_base_page_ns: latency.migrate_base_page_ns,
                },
                TierParams {
                    label: "slow",
                    capacity_pages: config.slow_capacity_pages,
                    access_ns: latency.slow_ns,
                    stream_ns: latency.slow_stream_ns,
                    migrate_base_page_ns: latency.migrate_base_page_ns,
                },
            ],
            page_size: config.page_size,
            address_space_pages: config.address_space_pages,
        }
    }

    /// 3-tier DRAM → CXL → NVMe ladder sized for `footprint_pages`:
    /// DRAM holds 1/8 of the footprint, CXL 1/2, NVMe all of it. NVMe
    /// numbers model a fast block device behind a DAX-style load path
    /// (~10 µs random loads, ~1 µs streamed, ~20 µs per page moved).
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages == 0`.
    pub fn three_tier_dram_cxl_nvme(footprint_pages: u64, page_size: PageSize) -> Self {
        assert!(footprint_pages > 0, "footprint must be non-empty");
        Self::new(
            vec![
                TierParams {
                    label: "dram",
                    capacity_pages: (footprint_pages / 8).max(1),
                    access_ns: 100,
                    stream_ns: 30,
                    migrate_base_page_ns: 2_000,
                },
                TierParams {
                    label: "cxl",
                    capacity_pages: (footprint_pages / 2).max(1),
                    access_ns: 250,
                    stream_ns: 80,
                    migrate_base_page_ns: 2_000,
                },
                TierParams {
                    label: "nvme",
                    capacity_pages: footprint_pages,
                    access_ns: 10_000,
                    stream_ns: 1_000,
                    migrate_base_page_ns: 20_000,
                },
            ],
            page_size,
            footprint_pages,
        )
    }

    /// 4-tier archive ladder sized for `footprint_pages`: DRAM at a 1:64
    /// capacity ratio against the footprint, then CXL (1/8), NVMe (1/2),
    /// and an archival bottom rung holding everything (~80 µs random,
    /// ~8 µs streamed, ~160 µs per page moved).
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages == 0`.
    pub fn four_tier_archive(footprint_pages: u64, page_size: PageSize) -> Self {
        assert!(footprint_pages > 0, "footprint must be non-empty");
        Self::new(
            vec![
                TierParams {
                    label: "dram",
                    capacity_pages: (footprint_pages / 64).max(1),
                    access_ns: 100,
                    stream_ns: 30,
                    migrate_base_page_ns: 2_000,
                },
                TierParams {
                    label: "cxl",
                    capacity_pages: (footprint_pages / 8).max(1),
                    access_ns: 250,
                    stream_ns: 80,
                    migrate_base_page_ns: 2_000,
                },
                TierParams {
                    label: "nvme",
                    capacity_pages: (footprint_pages / 2).max(1),
                    access_ns: 10_000,
                    stream_ns: 1_000,
                    migrate_base_page_ns: 20_000,
                },
                TierParams {
                    label: "archive",
                    capacity_pages: footprint_pages,
                    access_ns: 80_000,
                    stream_ns: 8_000,
                    migrate_base_page_ns: 160_000,
                },
            ],
            page_size,
            footprint_pages,
        )
    }

    /// Number of rungs.
    #[inline]
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Index of the coldest rung.
    #[inline]
    pub fn bottom(&self) -> usize {
        self.tiers.len() - 1
    }

    /// One rung's parameters.
    #[inline]
    pub fn tier(&self, idx: usize) -> &TierParams {
        &self.tiers[idx]
    }

    /// All rungs, fastest first.
    #[inline]
    pub fn tiers(&self) -> &[TierParams] {
        &self.tiers
    }

    /// Page granularity.
    #[inline]
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Pages in the application's address space.
    #[inline]
    pub fn address_space_pages(&self) -> u64 {
        self.address_space_pages
    }

    /// Re-sizes one rung (quota control on ladders, mirroring
    /// [`TieredMemory::set_fast_capacity`](crate::TieredMemory::set_fast_capacity)).
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or when shrinking the bottom rung below the
    /// footprint.
    pub fn set_tier_capacity(&mut self, idx: usize, pages: u64) {
        assert!(pages > 0, "tier capacity must be positive");
        assert!(
            idx != self.bottom() || pages >= self.address_space_pages,
            "the bottom tier must be sized to the footprint"
        );
        self.tiers[idx].capacity_pages = pages;
    }

    /// The per-tier latency table of this ladder, fastest row first.
    pub fn latency_table(&self) -> Vec<TierLatency> {
        self.tiers
            .iter()
            .map(|t| TierLatency {
                access_ns: t.access_ns,
                stream_ns: t.stream_ns,
                migrate_base_page_ns: t.migrate_base_page_ns,
            })
            .collect()
    }

    /// This ladder's 2-tier facade: tier 0 is the "fast" tier, everything
    /// below it pools into "slow". Policies written against the binary
    /// API read capacities through this.
    pub fn as_tier_config(&self) -> TierConfig {
        TierConfig {
            fast_capacity_pages: self.tiers[0].capacity_pages,
            slow_capacity_pages: self.tiers[1..].iter().map(|t| t.capacity_pages).sum(),
            page_size: self.page_size,
            address_space_pages: self.address_space_pages,
        }
    }
}

impl fmt::Display for TierTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                write!(f, "->")?;
            }
            write!(f, "{}", t.label)?;
        }
        Ok(())
    }
}

/// The built-in ladder presets, as a `Copy` scenario axis (sweep recipes
/// must stay `Copy + Eq`, so they carry this tag instead of a full
/// [`TierTopology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LadderKind {
    /// [`TierTopology::three_tier_dram_cxl_nvme`].
    DramCxlNvme,
    /// [`TierTopology::four_tier_archive`].
    Archive,
}

impl LadderKind {
    /// Both presets, shallowest first.
    pub const ALL: [LadderKind; 2] = [LadderKind::DramCxlNvme, LadderKind::Archive];

    /// Builds the preset's topology for a footprint.
    pub fn topology(self, footprint_pages: u64, page_size: PageSize) -> TierTopology {
        match self {
            LadderKind::DramCxlNvme => {
                TierTopology::three_tier_dram_cxl_nvme(footprint_pages, page_size)
            }
            LadderKind::Archive => TierTopology::four_tier_archive(footprint_pages, page_size),
        }
    }

    /// Stable scenario-label fragment (joins sweep labels like the
    /// `TierRatio` "1:8" form does).
    pub fn label(self) -> &'static str {
        match self {
            LadderKind::DramCxlNvme => "dram-cxl-nvme",
            LadderKind::Archive => "archive-1to64",
        }
    }

    /// Rung count of the preset.
    pub fn n_tiers(self) -> usize {
        match self {
            LadderKind::DramCxlNvme => 3,
            LadderKind::Archive => 4,
        }
    }
}

impl fmt::Display for LadderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_mirrors_config() {
        let cfg = TierConfig::for_footprint(1600, crate::TierRatio::OneTo8, PageSize::Base4K);
        let topo = TierTopology::two_tier(cfg, &LatencyModel::default());
        assert_eq!(topo.n_tiers(), 2);
        assert_eq!(topo.tier(0).capacity_pages, 200);
        assert_eq!(topo.tier(1).capacity_pages, 1600);
        assert_eq!(topo.tier(0).access_ns, 100);
        assert_eq!(topo.tier(1).access_ns, 250);
        assert_eq!(topo.as_tier_config(), cfg);
    }

    #[test]
    fn presets_are_monotonic_ladders() {
        for kind in LadderKind::ALL {
            let topo = kind.topology(10_000, PageSize::Base4K);
            assert_eq!(topo.n_tiers(), kind.n_tiers());
            for w in topo.tiers().windows(2) {
                assert!(
                    w[0].capacity_pages <= w[1].capacity_pages,
                    "{kind}: capacity grows down"
                );
                assert!(
                    w[0].access_ns < w[1].access_ns,
                    "{kind}: latency grows down"
                );
                assert!(
                    w[0].stream_ns < w[1].stream_ns,
                    "{kind}: stream cost grows down"
                );
                assert!(
                    w[0].migrate_base_page_ns <= w[1].migrate_base_page_ns,
                    "{kind}: migration cost grows down"
                );
            }
            assert_eq!(topo.tier(topo.bottom()).capacity_pages, 10_000);
        }
    }

    #[test]
    fn archive_ladder_is_at_least_1_to_64() {
        let topo = LadderKind::Archive.topology(64_000, PageSize::Base4K);
        assert!(topo.tier(topo.bottom()).capacity_pages / topo.tier(0).capacity_pages >= 64);
    }

    #[test]
    fn latency_table_rows_match_rungs() {
        let topo = LadderKind::DramCxlNvme.topology(800, PageSize::Base4K);
        let table = topo.latency_table();
        assert_eq!(table.len(), 3);
        assert_eq!(table[0].access_ns, 100);
        assert_eq!(table[2].access_ns, 10_000);
        assert_eq!(table[2].migrate_base_page_ns, 20_000);
    }

    #[test]
    fn display_and_labels() {
        let topo = LadderKind::DramCxlNvme.topology(80, PageSize::Base4K);
        assert_eq!(topo.to_string(), "dram->cxl->nvme");
        assert_eq!(LadderKind::Archive.to_string(), "archive-1to64");
    }

    #[test]
    #[should_panic(expected = "bottom tier must be sized")]
    fn undersized_bottom_rejected() {
        let mut tiers = TierTopology::three_tier_dram_cxl_nvme(100, PageSize::Base4K)
            .tiers()
            .to_vec();
        tiers[2].capacity_pages = 50;
        TierTopology::new(tiers, PageSize::Base4K, 100);
    }
}
