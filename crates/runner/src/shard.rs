//! Deterministic sharding of sweeps across hosts.
//!
//! Once a matrix spans fleets × objectives × budgets × churn schedules, a
//! single host's work-stealing pool is the bottleneck. This module makes
//! *sharding* a first-class sweep dimension with one hard guarantee:
//!
//! > **Union-of-shards ≡ unsharded.** Running a matrix as `N` shards and
//! > merging the shard reports yields exactly the results (same scenarios,
//! > same seeds, same reports, same order) as running the whole matrix on
//! > one host.
//!
//! The guarantee holds because a [`ShardSpec`] partitions the *canonical
//! scenario order* — the list the matrix's `build()` produces — by
//! round-robin (`global_index % total == index`), **after** per-scenario
//! seeds were derived from the full-matrix index. Sharding therefore never
//! changes any scenario's seed, label, or config; it only changes which
//! host runs it. `crates/runner/tests/shard_equivalence.rs` locks the
//! guarantee for every [`ScenarioKind`](crate::ScenarioKind).
//!
//! The pieces:
//!
//! * [`ShardSpec`] — `index`/`total` with the round-robin ownership rule;
//!   parses from the CLI form `i/N` (`bench --shard i/N`).
//! * [`ShardedSweep`] — runs one shard of a full matrix through the
//!   ordinary [`SweepRunner`] and tags the output with its shard identity.
//! * [`reassemble`] — the merge side of the rule, over any per-shard
//!   slices: canonical order back, and every overlapping, missing or
//!   mismatched union rejected as a [`MergeError`]. It is order-invariant:
//!   hand the shards over in any order.
//! * [`ShardReport`] + [`SweepReport::merge`] — [`reassemble`] over scenario
//!   results, plus the merged wall and thread count.
//!
//! `hybridtier-bench::merge` (`bench --merge` over `BENCH_*.json` files
//! written by `bench --shard` on different hosts) is the other caller of
//! [`reassemble`]; the schema is documented in `docs/BENCH_FORMAT.md`.

use std::fmt;
use std::str::FromStr;

use crate::scenario::{Scenario, ScenarioError};
use crate::sweep::{SweepReport, SweepRunner};

/// Which slice of a sweep one host runs: shard `index` of `total`.
///
/// Ownership is round-robin over the canonical scenario order: shard `i`
/// of `N` owns global indices `i, i+N, i+2N, …`. Round-robin (rather than
/// contiguous chunks) keeps per-shard wall time balanced when cost varies
/// monotonically along the matrix (e.g. ratios ordered small → large).
///
/// # Examples
///
/// ```
/// use tiering_runner::ShardSpec;
///
/// let shard: ShardSpec = "1/3".parse().unwrap();
/// assert_eq!((shard.index(), shard.total()), (1, 3));
/// assert!(shard.owns(1) && shard.owns(4));
/// assert!(!shard.owns(0) && !shard.owns(2));
/// // Shard-local position j maps back to global index j*total + index.
/// assert_eq!(shard.global_index(2), 7);
/// // 10 scenarios split 3 ways: shard 1 owns {1,4,7}.
/// assert_eq!(shard.count_of(10), 3);
/// ```
///
/// Invalid specs do not construct:
///
/// ```
/// use tiering_runner::ShardSpec;
/// assert!(ShardSpec::new(3, 3).is_err()); // index out of range
/// assert!(ShardSpec::new(0, 0).is_err()); // zero shards
/// assert!("2".parse::<ShardSpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    total: usize,
}

impl ShardSpec {
    /// Shard `index` of `total`; `index` must be in `0..total`.
    pub fn new(index: usize, total: usize) -> Result<Self, ShardError> {
        if total == 0 {
            return Err(ShardError::ZeroTotal);
        }
        if index >= total {
            return Err(ShardError::IndexOutOfRange { index, total });
        }
        Ok(Self { index, total })
    }

    /// The whole sweep as one shard (`0/1`) — sharding disabled.
    pub fn solo() -> Self {
        Self { index: 0, total: 1 }
    }

    /// All `total` shards, in index order — the in-process stand-in for a
    /// host fleet (see `examples/sharded_sweep.rs`).
    pub fn all(total: usize) -> impl Iterator<Item = ShardSpec> {
        (0..total).map(move |index| ShardSpec { index, total })
    }

    /// This shard's index, in `0..total`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// How many shards the sweep is split into.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether this shard owns the scenario at `global_index` of the
    /// canonical matrix order.
    pub fn owns(&self, global_index: usize) -> bool {
        global_index % self.total == self.index
    }

    /// The canonical (full-matrix) index of this shard's `local`-th
    /// scenario.
    pub fn global_index(&self, local: usize) -> usize {
        local * self.total + self.index
    }

    /// How many of `matrix_len` scenarios this shard owns.
    pub fn count_of(&self, matrix_len: usize) -> usize {
        (matrix_len + self.total - 1 - self.index) / self.total
    }

    /// Keeps exactly the items this shard owns, preserving canonical
    /// relative order. Works on any built scenario list (or anything else
    /// ordered like one).
    pub fn select<T>(&self, items: Vec<T>) -> Vec<T> {
        items
            .into_iter()
            .enumerate()
            .filter(|(i, _)| self.owns(*i))
            .map(|(_, item)| item)
            .collect()
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

impl FromStr for ShardSpec {
    type Err = ShardError;

    /// Parses the CLI form `i/N` (0-based: `0/3`, `1/3`, `2/3`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| ShardError::Parse(s.to_string()))?;
        let index = i
            .trim()
            .parse()
            .map_err(|_| ShardError::Parse(s.to_string()))?;
        let total = n
            .trim()
            .parse()
            .map_err(|_| ShardError::Parse(s.to_string()))?;
        Self::new(index, total)
    }
}

/// Why a [`ShardSpec`] failed to construct or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `total` was zero.
    ZeroTotal,
    /// `index` was not below `total`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The shard count it had to be below.
        total: usize,
    },
    /// The string was not of the form `i/N`.
    Parse(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroTotal => write!(f, "shard total must be at least 1"),
            ShardError::IndexOutOfRange { index, total } => {
                write!(f, "shard index {index} out of range for {total} shards")
            }
            ShardError::Parse(s) => {
                write!(
                    f,
                    "cannot parse '{s}' as a shard spec (expected i/N, 0-based)"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Runs one shard of a full matrix through an ordinary [`SweepRunner`].
///
/// The input to [`run`](ShardedSweep::run) is always the **full** canonical
/// scenario list — every host builds the same matrix (cheap: scenarios are
/// recipes, nothing executes at build time) and the sharded sweep selects
/// its own slice. That is what makes shard assignment a pure function of
/// `(matrix, shard)` with no coordination between hosts.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSweep {
    spec: ShardSpec,
    runner: SweepRunner,
}

impl ShardedSweep {
    /// A sharded sweep for `spec`, executing on `runner`'s pool.
    pub fn new(spec: ShardSpec, runner: SweepRunner) -> Self {
        Self { spec, runner }
    }

    /// [`try_run`](ShardedSweep::try_run) for matrices whose scenarios
    /// cannot fail to build (everything but trace replay).
    ///
    /// # Panics
    ///
    /// With the [`ScenarioError`]'s message if a workload cannot be built.
    pub fn run(&self, matrix: Vec<Scenario>) -> ShardReport {
        self.try_run(matrix).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs this shard's slice of the full `matrix` (the complete canonical
    /// scenario list) and returns the slice's results tagged with the shard
    /// identity needed to merge them back.
    pub fn try_run(&self, matrix: Vec<Scenario>) -> Result<ShardReport, ScenarioError> {
        let matrix_len = matrix.len();
        let sweep = self.runner.try_run(self.spec.select(matrix))?;
        Ok(ShardReport {
            spec: self.spec,
            matrix_len,
            sweep,
        })
    }
}

/// One shard's output: an ordinary [`SweepReport`] over the shard's
/// scenarios (in canonical relative order) plus the identity needed to
/// reassemble the full sweep.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Which shard this is.
    pub spec: ShardSpec,
    /// Scenario count of the **full** matrix the shard was cut from (merge
    /// validation: all sibling shards must agree).
    pub matrix_len: usize,
    /// The shard's results, `spec.count_of(matrix_len)` of them.
    pub sweep: SweepReport,
}

/// Why [`SweepReport::merge`] rejected a set of shard reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard reports were supplied.
    Empty,
    /// Two shards disagreed on the shard count.
    MismatchedTotal {
        /// Shard count of the first report.
        expected: usize,
        /// The disagreeing count.
        found: usize,
    },
    /// Two shards disagreed on the full-matrix scenario count.
    MismatchedMatrixLen {
        /// Matrix length of the first report.
        expected: usize,
        /// The disagreeing length.
        found: usize,
    },
    /// The same shard index appeared twice (overlapping shards).
    DuplicateShard {
        /// The repeated index.
        index: usize,
    },
    /// A shard index was never supplied (incomplete union).
    MissingShard {
        /// The absent index.
        index: usize,
    },
    /// A shard carried the wrong number of results for its slice.
    WrongShardLen {
        /// The offending shard index.
        index: usize,
        /// Results its slice of the matrix demands.
        expected: usize,
        /// Results it actually carried.
        found: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::MismatchedTotal { expected, found } => {
                write!(f, "shards disagree on shard count: {expected} vs {found}")
            }
            MergeError::MismatchedMatrixLen { expected, found } => {
                write!(f, "shards disagree on matrix length: {expected} vs {found}")
            }
            MergeError::DuplicateShard { index } => {
                write!(f, "shard {index} supplied more than once (overlap)")
            }
            MergeError::MissingShard { index } => write!(f, "shard {index} missing"),
            MergeError::WrongShardLen {
                index,
                expected,
                found,
            } => write!(
                f,
                "shard {index} carries {found} results, its slice demands {expected}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// The round-robin shard rule, the one place it is enforced: reassembles
/// per-shard slices — `(spec, matrix_len, items)`, `items` being the
/// shard's [`select`](ShardSpec::select)ion of a `matrix_len`-item
/// matrix — into the matrix's canonical order. Item `g` of the result is
/// item `g / total` of shard `g % total`, whatever order the shards come
/// in.
///
/// Each shard is checked as it is drawn, in this order: its shard count
/// and matrix length against the first shard's, its slice length against
/// [`count_of`](ShardSpec::count_of), and its index against the shards
/// already drawn. An index never drawn is checked last. An empty union is
/// [`MergeError::Empty`].
///
/// # Examples
///
/// ```
/// use tiering_runner::{reassemble, MergeError, ShardSpec};
///
/// let matrix: Vec<u32> = (0..7).collect();
/// let mut shards: Vec<_> = ShardSpec::all(3)
///     .map(|spec| (spec, matrix.len(), spec.select(matrix.clone())))
///     .collect();
/// shards.reverse();
/// assert_eq!(reassemble(shards.clone()), Ok(matrix));
/// shards.pop();
/// assert_eq!(reassemble(shards), Err(MergeError::MissingShard { index: 0 }));
/// ```
pub fn reassemble<T>(
    shards: impl IntoIterator<Item = (ShardSpec, usize, Vec<T>)>,
) -> Result<Vec<T>, MergeError> {
    let mut shards = shards.into_iter();
    let first = shards.next().ok_or(MergeError::Empty)?;
    let (total, matrix_len) = (first.0.total(), first.1);

    let mut by_index: Vec<Option<std::vec::IntoIter<T>>> = (0..total).map(|_| None).collect();
    for (spec, len, items) in std::iter::once(first).chain(shards) {
        if spec.total() != total {
            return Err(MergeError::MismatchedTotal {
                expected: total,
                found: spec.total(),
            });
        }
        if len != matrix_len {
            return Err(MergeError::MismatchedMatrixLen {
                expected: matrix_len,
                found: len,
            });
        }
        let index = spec.index();
        let expected = spec.count_of(matrix_len);
        if items.len() != expected {
            return Err(MergeError::WrongShardLen {
                index,
                expected,
                found: items.len(),
            });
        }
        let slot = &mut by_index[index];
        if slot.is_some() {
            return Err(MergeError::DuplicateShard { index });
        }
        *slot = Some(items.into_iter());
    }
    if let Some(index) = by_index.iter().position(Option::is_none) {
        return Err(MergeError::MissingShard { index });
    }

    let mut slices: Vec<_> = by_index.into_iter().flatten().collect();
    Ok((0..matrix_len)
        .map(|g| {
            slices[g % total]
                .next()
                .expect("slice lengths validated above")
        })
        .collect())
}

impl SweepReport {
    /// Reassembles shard reports into the full sweep, **identical in
    /// results to the unsharded run**: the results go through
    /// [`reassemble`], so they land in canonical matrix order whatever
    /// order (or on whatever hosts) the shards ran, and an incomplete or
    /// inconsistent union is the [`MergeError`] it names.
    ///
    /// The merged `wall` is the **maximum** shard wall (the wall-clock of a
    /// distributed run is its slowest host) and `threads` is the sum of
    /// shard thread counts (total workers across hosts). Both are excluded
    /// from outcome comparisons, as everywhere else in this crate.
    pub fn merge(shards: Vec<ShardReport>) -> Result<SweepReport, MergeError> {
        let mut wall = std::time::Duration::ZERO;
        let mut threads = 0;
        let results = reassemble(shards.into_iter().map(|s| {
            wall = wall.max(s.sweep.wall);
            threads += s.sweep.threads;
            (s.spec, s.matrix_len, s.sweep.results)
        }))?;
        Ok(SweepReport {
            results,
            wall,
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::solo());
        assert_eq!("2/5".parse::<ShardSpec>().unwrap().to_string(), "2/5");
        for bad in ["", "3", "/", "1/", "/2", "a/b", "3/3", "1/0", "-1/2"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn round_robin_partition_is_exact() {
        for total in 1..=7usize {
            for matrix_len in 0..=20usize {
                let mut seen = vec![0u32; matrix_len];
                let mut count_sum = 0;
                for spec in ShardSpec::all(total) {
                    let mine = spec.select((0..matrix_len).collect::<Vec<_>>());
                    assert_eq!(mine.len(), spec.count_of(matrix_len));
                    count_sum += mine.len();
                    for (local, g) in mine.iter().enumerate() {
                        assert_eq!(spec.global_index(local), *g);
                        assert!(spec.owns(*g));
                        seen[*g] += 1;
                    }
                }
                assert_eq!(count_sum, matrix_len);
                assert!(seen.iter().all(|&c| c == 1), "partition not exact");
            }
        }
    }

    type Slice = (ShardSpec, usize, Vec<usize>);

    /// The union checks of `SweepReport::merge` before they moved into
    /// [`reassemble`], over `(spec, matrix_len, slice)` triples: the
    /// oracle for which error a malformed union gets.
    fn merge_checks_oracle(shards: &[Slice]) -> Result<(), MergeError> {
        let first = shards.first().ok_or(MergeError::Empty)?;
        let (total, matrix_len) = (first.0.total(), first.1);
        let mut seen = vec![false; total];
        for (spec, len, items) in shards {
            if spec.total() != total {
                return Err(MergeError::MismatchedTotal {
                    expected: total,
                    found: spec.total(),
                });
            }
            if *len != matrix_len {
                return Err(MergeError::MismatchedMatrixLen {
                    expected: matrix_len,
                    found: *len,
                });
            }
            let index = spec.index();
            let expected = spec.count_of(matrix_len);
            if items.len() != expected {
                return Err(MergeError::WrongShardLen {
                    index,
                    expected,
                    found: items.len(),
                });
            }
            if seen[index] {
                return Err(MergeError::DuplicateShard { index });
            }
            seen[index] = true;
        }
        match seen.iter().position(|s| !s) {
            Some(index) => Err(MergeError::MissingShard { index }),
            None => Ok(()),
        }
    }

    /// Shard `spec`'s slice of a `matrix_len`-item matrix of global indices.
    fn cut(spec: ShardSpec, matrix_len: usize) -> Slice {
        (spec, matrix_len, spec.select((0..matrix_len).collect()))
    }

    /// A seeded Fisher–Yates shuffle.
    fn scramble<T>(items: &mut [T], seed: u64) {
        for i in (1..items.len()).rev() {
            let j = crate::derive_seed(seed, i as u64) % (i as u64 + 1);
            items.swap(i, j as usize);
        }
    }

    /// Fault kinds [`fault`] can inject.
    const FAULTS: usize = 6;

    /// Injects fault `kind` at the `k`-th shard of `union` (drawn from a
    /// `matrix_len`-item matrix): drop it, repeat it further on, recut it
    /// for one more shard or from a longer matrix, or lengthen or shorten
    /// its slice.
    fn fault(union: &mut Vec<Slice>, kind: usize, k: usize, matrix_len: usize) {
        let spec = union[k].0;
        match kind {
            0 => drop(union.remove(k)),
            1 => union.insert((k * 7 + 3) % (union.len() + 1), union[k].clone()),
            2 => {
                union[k] = cut(
                    ShardSpec::new(spec.index(), spec.total() + 1).unwrap(),
                    matrix_len,
                )
            }
            3 => union[k] = cut(spec, matrix_len + spec.total()),
            4 => union[k].2.push(matrix_len),
            _ => drop(union[k].2.pop()),
        }
    }

    #[test]
    fn reassemble_restores_canonical_order_and_rejects_like_merge() {
        let mut rejections = 0;
        for total in 1..=6usize {
            for matrix_len in 0..=13usize {
                let seed = (total * 100 + matrix_len) as u64;
                let mut union: Vec<Slice> =
                    ShardSpec::all(total).map(|s| cut(s, matrix_len)).collect();
                scramble(&mut union, seed);
                let canonical: Vec<usize> = (0..matrix_len).collect();
                assert_eq!(
                    reassemble(union.clone()),
                    Ok(canonical),
                    "{total}/{matrix_len}"
                );

                // The empty union and every one- and two-fault variant of
                // the scrambled one: the error must be the oracle's, so two
                // faults also pin which check comes first.
                let mut variants: Vec<Vec<Slice>> = vec![Vec::new()];
                for (kind, k) in (0..FAULTS).flat_map(|f| (0..total).map(move |k| (f, k))) {
                    let mut once = union.clone();
                    fault(&mut once, kind, k, matrix_len);
                    for (kind2, k2) in
                        (0..FAULTS).flat_map(|f| (0..once.len()).map(move |k| (f, k)))
                    {
                        let mut twice = once.clone();
                        fault(&mut twice, kind2, k2, matrix_len);
                        variants.push(twice);
                    }
                    variants.push(once);
                }
                for v in variants {
                    let want = merge_checks_oracle(&v);
                    let got = reassemble(v.clone());
                    assert_eq!(got.as_ref().err(), want.as_ref().err(), "{v:?}");
                    rejections += usize::from(want.is_err());
                }
            }
        }
        assert!(rejections > 40_000, "{rejections} rejections");
    }

    #[test]
    fn display_roundtrips() {
        for spec in ShardSpec::all(4) {
            assert_eq!(spec.to_string().parse::<ShardSpec>().unwrap(), spec);
        }
    }
}
