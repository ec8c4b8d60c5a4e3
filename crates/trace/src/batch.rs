//! Fixed-size operation/access batches, stored structure-of-arrays.
//!
//! The simulation engine's hot loop used to make one virtual call into the
//! workload generator per operation. [`AccessBatch`] lets a workload emit up
//! to a whole batch of operations — each with its burst of accesses — per
//! virtual call.
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
//! is byte-identical to per-op pulls.

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
/// Workloads fill a batch through [`begin_op`](AccessBatch::begin_op) /
/// [`commit_op`](AccessBatch::commit_op) (or
/// [`push_single`](AccessBatch::push_single) for one-access ops); the
/// engine drains it by op index via [`op_bounds`](AccessBatch::op_bounds)
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
    /// Staging buffer for [`begin_op`](Self::begin_op)-style fills (the
    /// generic `next_op` adapter); drained into the columns on commit.
    scratch: Vec<Access>,
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
            scratch: Vec::new(),
        }
    }

    /// Clears the batch, keeping allocations.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.writes.clear();
        self.pages.clear();
        self.ops.clear();
        self.scratch.clear();
    }

    /// Opens a new operation and returns the staging buffer its accesses
    /// should be pushed into.
    ///
    /// Follow with [`commit_op`](Self::commit_op) to record the operation or
    /// [`abort_op`](Self::abort_op) to discard any pushed accesses (used
    /// when the workload turns out to be exhausted).
    #[inline]
    pub fn begin_op(&mut self) -> &mut Vec<Access> {
        self.scratch.clear();
        &mut self.scratch
    }

    /// Seals the currently open operation, draining the staging buffer into
    /// the flat columns.
    #[inline]
    pub fn commit_op(&mut self, op: Op) {
        let start = self.addrs.len() as u32;
        self.addrs.extend(self.scratch.iter().map(|a| a.addr));
        self.writes.extend(self.scratch.iter().map(|a| a.is_write));
        let len = self.scratch.len() as u32;
        self.scratch.clear();
        self.ops.push(OpRecord { op, start, len });
    }

    /// Discards accesses pushed since the last [`begin_op`](Self::begin_op).
    #[inline]
    pub fn abort_op(&mut self) {
        self.scratch.clear();
    }

    /// Pushes a complete single-access operation (the common case for
    /// pointer-chasing workloads; avoids the begin/commit round trip and
    /// the staging copy).
    #[inline]
    pub fn push_single(&mut self, op: Op, access: Access) {
        let start = self.addrs.len() as u32;
        self.addrs.push(access.addr);
        self.writes.push(access.is_write);
        self.ops.push(OpRecord { op, start, len: 1 });
    }

    /// Opens an operation that writes **directly** into the flat columns
    /// (no staging copy), returning its start cursor. Push the op's
    /// accesses with [`push_access`](Self::push_access), then seal with
    /// [`commit_open_op`](Self::commit_open_op) passing the cursor back.
    ///
    /// This is the zero-copy fill path for workloads with specialized
    /// [`fill_batch`](crate::Workload::fill_batch) overrides; the
    /// [`begin_op`](Self::begin_op) staging path remains for the generic
    /// `next_op` adapter. Do not interleave with `begin_op`/`commit_op`
    /// for the same operation.
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
        let buf = b.begin_op();
        buf.push(Access::read(0x1000));
        buf.push(Access::write(0x2000));
        b.commit_op(Op::read(50));
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
    fn direct_fill_matches_staged_fill() {
        let mut staged = AccessBatch::new();
        let buf = staged.begin_op();
        buf.push(Access::read(0x10));
        buf.push(Access::write(0x20));
        staged.commit_op(Op::read(7));

        let mut direct = AccessBatch::new();
        let start = direct.open_op();
        direct.push_access(Access::read(0x10));
        direct.push_access(Access::write(0x20));
        direct.commit_open_op(Op::read(7), start);

        assert_eq!(staged.addrs(), direct.addrs());
        assert_eq!(staged.writes(), direct.writes());
        assert_eq!(staged.len(), direct.len());
        let (op_s, s0, s1) = staged.op_bounds(0);
        let (op_d, d0, d1) = direct.op_bounds(0);
        assert_eq!((op_s, s0, s1), (op_d, d0, d1));
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

    #[test]
    fn abort_discards_partial_op() {
        let mut b = AccessBatch::new();
        b.push_single(Op::read(1), Access::read(0));
        let buf = b.begin_op();
        buf.push(Access::read(0x5000));
        b.abort_op();
        assert_eq!(b.len(), 1);
        assert_eq!(b.total_accesses(), 1);
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
