//! Virtual address-space layout for workload data structures.

/// A contiguous region of the workload's virtual address space assigned to
/// one logical data structure (an array, a slab, a tree level…).
///
/// Workloads lay out their structures with [`LayoutBuilder`] bump
/// allocation so that every emitted [`Access`](tiering_trace::Access) carries
/// a realistic address: structures occupy disjoint page ranges, sequential
/// elements share pages, and the footprint is the exact sum of the regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
}

impl Region {
    /// Creates a region (normally done through [`LayoutBuilder`]).
    pub fn new(base: u64, bytes: u64) -> Self {
        Self { base, bytes }
    }

    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Address of byte `offset` within the region.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset` is out of range.
    #[inline]
    pub fn addr(&self, offset: u64) -> u64 {
        debug_assert!(
            offset < self.bytes,
            "offset {offset} beyond region {}",
            self.bytes
        );
        self.base + offset
    }

    /// Address of element `idx` in an array of `elem_bytes`-sized elements.
    #[inline]
    pub fn elem(&self, idx: u64, elem_bytes: u64) -> u64 {
        self.addr(idx * elem_bytes)
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }
}

/// Bump allocator for laying out [`Region`]s page-aligned in a workload's
/// address space.
#[derive(Debug, Clone, Default)]
pub struct LayoutBuilder {
    next: u64,
}

impl LayoutBuilder {
    /// Starts a fresh layout at address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `bytes` (rounded up to a 4 KiB boundary so distinct
    /// structures never share a page).
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = self.next;
        let size = bytes.max(1).div_ceil(4096) * 4096;
        self.next += size;
        Region::new(base, size)
    }

    /// Total bytes laid out so far (the workload footprint).
    pub fn total_bytes(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_page_aligned() {
        let mut l = LayoutBuilder::new();
        let a = l.alloc(100);
        let b = l.alloc(5000);
        let c = l.alloc(4096);
        assert_eq!(a.base() % 4096, 0);
        assert_eq!(b.base() % 4096, 0);
        assert!(a.end() <= b.base());
        assert!(b.end() <= c.base());
        assert_eq!(l.total_bytes(), 4096 + 8192 + 4096);
    }

    #[test]
    fn element_addressing() {
        let mut l = LayoutBuilder::new();
        let _pad = l.alloc(4096);
        let arr = l.alloc(1024 * 8);
        assert_eq!(arr.elem(0, 8), arr.base());
        assert_eq!(arr.elem(10, 8), arr.base() + 80);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond region")]
    fn out_of_range_offset_panics_in_debug() {
        let r = Region::new(0, 4096);
        let _ = r.addr(4096);
    }
}
