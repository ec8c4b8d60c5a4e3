//! Fixed-size operation/access batches, stored structure-of-arrays.
//!
//! [`Workload::fill_batch`](crate::Workload::fill_batch) is the one way a
//! generator emits operations: it writes up to a whole batch of them — each
//! with its burst of accesses — straight into an [`AccessBatch`] per call,
//! so the engine makes one virtual call per batch, not per operation.
//!
//! Storage is **SoA**: flat [`addrs`](AccessBatch::addrs) /
//! [`writes`](AccessBatch::writes) columns plus a derived
//! [`pages`](AccessBatch::pages) column filled once per batch by
//! [`compute_pages`](AccessBatch::compute_pages). The engine's access stage
//! iterates plain `u64` slices — no 16-byte `Access` structs in the inner
//! loop, and no per-access `addr >> page_shift` recomputation.
//!
//! Batching never changes simulation results: a workload is batch-pulled
//! only while it reports [`batchable_now`](crate::Workload::batchable_now)
//! (its output does not depend on simulated time), so the operation stream
//! is byte-identical to one-op pulls.

use tiering_mem::PageSize;

use crate::access::{Access, Op};

/// One operation's slot in a batch: its metadata plus the range of its
/// accesses within the batch's flat columns.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Operation metadata (kind + compute time).
    pub op: Op,
    /// Start index of this op's accesses in the flat columns.
    start: u32,
    /// Number of accesses.
    len: u32,
}

/// A batch of operations with their accesses stored as flat columns.
///
/// Workloads write an operation with [`open_op`](AccessBatch::open_op) /
/// [`push_access`](AccessBatch::push_access) /
/// [`commit_open_op`](AccessBatch::commit_open_op) — or one per call of a
/// per-op body through [`fill_ops`](AccessBatch::fill_ops) — and whole
/// operations with [`push_single`](AccessBatch::push_single) and
/// [`append_ops`](AccessBatch::append_ops); the engine drains it by op
/// index via [`op_bounds`](AccessBatch::op_bounds)
/// over the [`addrs`](AccessBatch::addrs)/[`pages`](AccessBatch::pages)/
/// [`writes`](AccessBatch::writes) columns. Buffers are reused across
/// batches — a cleared batch keeps its capacity, so steady-state operation
/// emits no allocations.
#[derive(Debug, Default, Clone)]
pub struct AccessBatch {
    addrs: Vec<u64>,
    writes: Vec<bool>,
    /// Page number per access (`addr >> page_shift`); filled by
    /// [`compute_pages`](Self::compute_pages), empty until then.
    pages: Vec<u64>,
    ops: Vec<OpRecord>,
}

impl AccessBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with pre-sized buffers.
    pub fn with_capacity(ops: usize, accesses: usize) -> Self {
        Self {
            addrs: Vec::with_capacity(accesses),
            writes: Vec::with_capacity(accesses),
            pages: Vec::with_capacity(accesses),
            ops: Vec::with_capacity(ops),
        }
    }

    /// Clears the batch, keeping allocations.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.writes.clear();
        self.pages.clear();
        self.ops.clear();
    }

    /// Pushes a complete single-access operation (the common case for
    /// pointer-chasing workloads; no open/commit round trip).
    #[inline]
    pub fn push_single(&mut self, op: Op, access: Access) {
        let start = self.addrs.len() as u32;
        self.addrs.push(access.addr);
        self.writes.push(access.is_write);
        self.ops.push(OpRecord { op, start, len: 1 });
    }

    /// Opens an operation that writes directly into the flat columns,
    /// returning its start cursor. Push the op's accesses with
    /// [`push_access`](Self::push_access), then seal with
    /// [`commit_open_op`](Self::commit_open_op) passing the cursor back.
    #[inline]
    pub fn open_op(&mut self) -> usize {
        self.addrs.len()
    }

    /// Appends one access of the operation opened by
    /// [`open_op`](Self::open_op) directly to the columns.
    #[inline]
    pub fn push_access(&mut self, access: Access) {
        self.addrs.push(access.addr);
        self.writes.push(access.is_write);
    }

    /// Seals an operation opened by [`open_op`](Self::open_op): records it
    /// as spanning every access pushed since `start`.
    #[inline]
    pub fn commit_open_op(&mut self, op: Op, start: usize) {
        self.ops.push(OpRecord {
            op,
            start: start as u32,
            len: (self.addrs.len() - start) as u32,
        });
    }

    /// Appends up to `max_ops` operations, one per call of `op`: each call
    /// pushes its operation's accesses with [`push_access`](Self::push_access)
    /// and returns the operation, or returns `None` when the generator is
    /// exhausted, which ends the fill and discards anything that call
    /// pushed. Returns how many operations were appended.
    ///
    /// This is the fill loop of every generator written as a per-op body.
    #[inline]
    pub fn fill_ops(
        &mut self,
        max_ops: usize,
        mut op: impl FnMut(&mut Self) -> Option<Op>,
    ) -> usize {
        for filled in 0..max_ops {
            let start = self.open_op();
            match op(self) {
                Some(done) => self.commit_open_op(done, start),
                None => {
                    self.addrs.truncate(start);
                    self.writes.truncate(start);
                    return filled;
                }
            }
        }
        max_ops
    }

    /// Appends whole operations whose accesses already sit in columns (a
    /// decoded trace chunk): one copy per column for all of them, then one
    /// record per op. `ops` yields each operation with its access count,
    /// in column order.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length or the counts do not add up
    /// to it.
    pub fn append_ops(
        &mut self,
        addrs: &[u64],
        writes: &[bool],
        ops: impl IntoIterator<Item = (Op, usize)>,
    ) {
        assert_eq!(addrs.len(), writes.len(), "access columns differ in length");
        let mut start = self.addrs.len();
        self.addrs.extend_from_slice(addrs);
        self.writes.extend_from_slice(writes);
        self.ops.extend(ops.into_iter().map(|(op, len)| {
            let record = OpRecord {
                op,
                start: start as u32,
                len: len as u32,
            };
            start += len;
            record
        }));
        assert_eq!(
            start,
            self.addrs.len(),
            "op counts disagree with the columns"
        );
    }

    /// Replaces the batch with whole operations given column by column (a
    /// checked trace frame): `ops` yields each operation with its access
    /// count, in column order. Reserves exactly the given sizes, so a
    /// reused batch's capacity is the largest chunk it held, not that
    /// chunk's next power of two.
    pub(crate) fn refill(
        &mut self,
        ops: impl ExactSizeIterator<Item = (Op, u32)>,
        addrs: impl ExactSizeIterator<Item = u64>,
        writes: impl ExactSizeIterator<Item = bool>,
    ) {
        self.clear();
        self.ops.reserve_exact(ops.len());
        self.addrs.reserve_exact(addrs.len());
        self.writes.reserve_exact(writes.len());
        let mut start = 0;
        self.ops.extend(ops.map(|(op, len)| {
            let record = OpRecord { op, start, len };
            start += len;
            record
        }));
        self.addrs.extend(addrs);
        self.writes.extend(writes);
        debug_assert_eq!(start as usize, self.addrs.len());
    }

    /// Bytes held by the columns (capacity, not length — what stays
    /// resident while the batch is reused).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<OpRecord>()
            + (self.addrs.capacity() + self.pages.capacity()) * 8
            + self.writes.capacity()
    }

    /// Fills the [`pages`](Self::pages) column from the address column —
    /// one sequential pass per batch, so the engine's access stage never
    /// recomputes `addr >> shift` per access.
    pub fn compute_pages(&mut self, size: PageSize) {
        let shift = size.shift();
        self.pages.clear();
        self.pages.extend(self.addrs.iter().map(|&a| a >> shift));
    }

    /// Number of committed operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total accesses across all committed operations.
    pub fn total_accesses(&self) -> usize {
        self.addrs.len()
    }

    /// The flat byte-address column.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The flat is-write column (parallel to [`addrs`](Self::addrs)).
    #[inline]
    pub fn writes(&self) -> &[bool] {
        &self.writes
    }

    /// The derived page-number column (parallel to
    /// [`addrs`](Self::addrs)); empty until
    /// [`compute_pages`](Self::compute_pages) ran for this fill.
    #[inline]
    pub fn pages(&self) -> &[u64] {
        &self.pages
    }

    /// The `idx`-th committed operation and the `[start, end)` range of its
    /// accesses within the flat columns.
    ///
    /// Consumers that pause mid-batch (the multi-tenant engine suspends a
    /// tenant at rebalance boundaries with ops still buffered) resume by
    /// index instead of holding an iterator across the pause.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn op_bounds(&self, idx: usize) -> (Op, usize, usize) {
        let r = &self.ops[idx];
        let s = r.start as usize;
        (r.op, s, s + r.len as usize)
    }

    /// Reconstructs the `i`-th access of the batch from the columns
    /// (convenience for tests and diagnostics; the hot path reads the
    /// columns directly).
    ///
    /// # Panics
    ///
    /// Panics if `i >= total_accesses()`.
    #[inline]
    pub fn access(&self, i: usize) -> Access {
        Access {
            addr: self.addrs[i],
            is_write: self.writes[i],
        }
    }

    /// Iterates `(op, accesses)` pairs in emission order, materializing
    /// each op's accesses from the columns (test/diagnostic convenience).
    pub fn iter(&self) -> impl Iterator<Item = (Op, Vec<Access>)> + '_ {
        self.ops.iter().map(|r| {
            let s = r.start as usize;
            let e = s + r.len as usize;
            (r.op, (s..e).map(|i| self.access(i)).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiering_mem::PageId;

    #[test]
    fn fill_and_iterate() {
        let mut b = AccessBatch::with_capacity(4, 8);
        let start = b.open_op();
        b.push_access(Access::read(0x1000));
        b.push_access(Access::write(0x2000));
        b.commit_open_op(Op::read(50), start);
        b.push_single(Op::compute(10), Access::read(0x3000));

        assert_eq!(b.len(), 2);
        assert_eq!(b.total_accesses(), 3);
        let ops: Vec<(Op, Vec<Access>)> = b.iter().collect();
        assert_eq!(ops[0].1.len(), 2);
        assert_eq!(ops[0].1[1], Access::write(0x2000));
        assert_eq!(ops[1].0, Op::compute(10));
        assert_eq!(ops[1].1, vec![Access::read(0x3000)]);
        let (op, s, e) = b.op_bounds(0);
        assert_eq!(op, Op::read(50));
        assert_eq!((s, e), (0, 2));
        assert_eq!(&b.addrs()[s..e], &[0x1000, 0x2000]);
        assert_eq!(&b.writes()[s..e], &[false, true]);
    }

    #[test]
    fn append_ops_matches_direct_fill() {
        let mut direct = AccessBatch::new();
        let mut bulk = AccessBatch::new();
        for b in [&mut direct, &mut bulk] {
            b.push_single(Op::compute(1), Access::read(0x8));
        }
        let ops = [(Op::read(7), 2), (Op::compute(9), 0), (Op::write(3), 1)];
        let accesses = [Access::read(0x10), Access::write(0x20), Access::write(0x30)];
        let mut next = accesses.iter();
        for &(op, len) in &ops {
            let start = direct.open_op();
            for &a in next.by_ref().take(len) {
                direct.push_access(a);
            }
            direct.commit_open_op(op, start);
        }
        bulk.append_ops(&[0x10, 0x20, 0x30], &[false, true, true], ops);

        assert_eq!(bulk.addrs(), direct.addrs());
        assert_eq!(bulk.writes(), direct.writes());
        assert_eq!(bulk.len(), 4);
        for i in 0..4 {
            assert_eq!(bulk.op_bounds(i), direct.op_bounds(i), "op {i}");
        }
    }

    #[test]
    #[should_panic(expected = "op counts disagree")]
    fn append_ops_rejects_counts_that_do_not_cover_the_columns() {
        AccessBatch::new().append_ops(&[1, 2], &[false, false], [(Op::read(1), 1)]);
    }

    /// `fill_ops` commits one op per call until the body returns `None`,
    /// and drops whatever that last call pushed.
    #[test]
    fn fill_ops_stops_at_none_and_discards_its_accesses() {
        let mut b = AccessBatch::new();
        b.push_single(Op::read(1), Access::read(0));
        let mut left = 2u64;
        let n = b.fill_ops(5, |b| {
            b.push_access(Access::write(0x5000 + left));
            left = left.checked_sub(1)?;
            b.push_access(Access::read(0x6000));
            Some(Op::compute(left))
        });
        assert_eq!(n, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.addrs(), &[0, 0x5002, 0x6000, 0x5001, 0x6000]);
        assert_eq!(b.writes(), &[false, true, false, true, false]);
        assert_eq!(b.op_bounds(2), (Op::compute(0), 3, 5));
        assert_eq!(b.fill_ops(3, |_| Some(Op::read(9))), 3, "a full fill");
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = AccessBatch::with_capacity(2, 2);
        for i in 0..100u64 {
            b.push_single(Op::read(1), Access::read(i));
        }
        let cap = b.addrs.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.total_accesses(), 0);
        assert_eq!(b.addrs.capacity(), cap);
    }

    #[test]
    fn pages_column_matches_per_access_mapping() {
        let mut b = AccessBatch::new();
        for addr in [0u64, 0xFFF, 0x1000, 0x5123, 0xDEAD_BEEF] {
            b.push_single(Op::read(1), Access::read(addr));
        }
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            b.compute_pages(size);
            assert_eq!(b.pages().len(), b.total_accesses());
            for i in 0..b.total_accesses() {
                assert_eq!(
                    PageId(b.pages()[i]),
                    b.access(i).page(size),
                    "page column diverges from Access::page at {i} ({size})"
                );
            }
        }
        // Refilling after a clear recomputes from the new addresses.
        b.clear();
        b.push_single(Op::read(1), Access::read(0x2000));
        b.compute_pages(PageSize::Base4K);
        assert_eq!(b.pages(), &[2]);
    }
}
