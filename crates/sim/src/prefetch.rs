//! Hardware stream-prefetcher model.
//!
//! Modern cores detect sequential line streams and prefetch ahead, so a
//! streamed access costs memory *bandwidth* rather than full latency. This
//! matters for tiering fidelity: a slow-tier sequential sweep (GAP edge
//! arrays, SPEC grids) pays the CXL bandwidth penalty (20–70% of local,
//! paper Figure 1), not the 2–5× latency penalty — whereas random accesses
//! (graph property arrays, cache objects) eat the full latency. Without
//! this, streaming bytes dominate simulated runtimes and page placement
//! stops mattering, which is not how the paper's testbed behaves.
//!
//! # The covered-group index
//!
//! The model is "16 stream heads, first matching head wins, otherwise
//! install round-robin". Every simulated access goes through it, and most
//! accesses continue no stream — measured share of observed addresses
//! that do: `batch` 13.4 %, `cachesim` 15.0 %, `fleet` 13.1 %, `cachelib`
//! 2.7 %, `ladder` 2.7 %, `trace` 2.6 % (the `benchmark/` workloads). So
//! the detector pays for a head comparison only when a match is possible.
//!
//! A head `h` matches line `L` iff `L ∈ {h−1, h, h+1, h+2}` (mod 2⁶⁴):
//! four cyclically consecutive lines, which fall in at most two aligned
//! 4-line groups, `(h−1) >> 2` and `(h+2) >> 2`. (The wrap point 2⁶⁴ is a
//! group boundary, so this also holds for the `u64::MAX` empty heads.)
//! `cover[bucket(g)]` has bit `i` set iff head `i` covers a group hashing
//! to that bucket, so the only heads that can match `L` are the set bits
//! of `cover[bucket(L >> 2)]`: 78–84 % of addresses find that bucket empty
//! and compare against nothing, 10–14 % pay one rejected candidate.
//!
//! *Why it is exact.* Candidates are checked with the same predicate the
//! full scan used, so a hash collision only adds a candidate that the
//! predicate rejects; no result depends on the hash. Every head write goes
//! through [`StreamPrefetcher::retarget`], which keeps the bitmap equal to
//! what the heads imply.
//!
//! *Why the tie-break matters.* More than one head can match (two streams
//! that converge: 1 488 times in 103 M observations on `batch`, non-zero
//! on every workload), and which head advances changes later results. The
//! scan updated the lowest-numbered matching head; walking the bucket's
//! set bits in ascending order is the same choice, because every matching
//! head has its bit in that bucket.
//!
//! The 16-head scan survives as the test oracle (`tests::Scan` here, and a
//! copy under the root `tests/`), compared step by step.

/// Number of concurrent streams tracked (typical L2 prefetchers track
/// 8–32). One bit per head in a `u16` bucket.
const STREAMS: usize = 16;

/// Buckets in the covered-group index. At most 32 groups are covered, so
/// a random line finds its bucket empty ~7 times in 8.
const BUCKETS: usize = 256;

/// Detects ascending or descending unit-line streams over up to 16
/// concurrent address sequences.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    /// Last line seen per tracked stream.
    heads: [u64; STREAMS],
    /// Round-robin replacement cursor.
    cursor: usize,
    /// Bit `i` of `cover[bucket(g)]` is set iff `g` is one of the two
    /// groups `heads[i]` covers.
    cover: [u16; BUCKETS],
    /// Work meter: head comparisons made by `observe`.
    #[cfg(test)]
    compares: u64,
}

impl Default for StreamPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether a stream whose last line was `head` continues at `line`: same
/// line, the next line, or a one-line skip (stride-2 within a page), or
/// one line back (descending).
#[inline(always)]
fn continues(head: u64, line: u64) -> bool {
    line.wrapping_sub(head) <= 2 || head.wrapping_sub(line) == 1
}

/// The two aligned 4-line groups that contain every line `head` matches.
#[inline(always)]
fn groups(head: u64) -> [u64; 2] {
    [head.wrapping_sub(1) >> 2, head.wrapping_add(2) >> 2]
}

/// Bucket of a group: the top byte of a Fibonacci multiply, so streams
/// whose bases differ by a power of two still spread out.
#[inline(always)]
fn bucket(group: u64) -> usize {
    (group.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

impl StreamPrefetcher {
    /// An empty prefetcher.
    ///
    /// Empty heads hold `u64::MAX`, and matching wraps, so a fresh
    /// prefetcher reports lines 0 and 1 (addresses 0–127) as streamed
    /// without having seen them (line `u64::MAX − 1` would be too, but
    /// `addr >> 6` never produces it). Layouts start at address 0, so this
    /// is reachable; it is part of every pinned digest and golden.
    pub fn new() -> Self {
        let mut cover = [0u16; BUCKETS];
        for g in groups(u64::MAX) {
            cover[bucket(g)] = u16::MAX;
        }
        Self {
            heads: [u64::MAX; STREAMS],
            cursor: 0,
            cover,
            #[cfg(test)]
            compares: 0,
        }
    }

    /// Observes an access; returns `true` if it continues a tracked stream
    /// (i.e. the hardware would have prefetched it).
    ///
    /// The lowest-numbered matching head advances to the access's line; if
    /// none matches, the line replaces the head at the round-robin cursor.
    /// Only heads indexed under the line's group are compared (module
    /// docs), which yields the same answer and the same head state as
    /// comparing all 16.
    #[inline]
    pub fn observe(&mut self, addr: u64) -> bool {
        self.observe_line(addr >> 6)
    }

    #[inline(always)]
    fn observe_line(&mut self, line: u64) -> bool {
        let mut candidates = self.cover[bucket(line >> 2)];
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            #[cfg(test)]
            {
                self.compares += 1;
            }
            if continues(self.heads[i], line) {
                self.retarget(i, line);
                return true;
            }
            candidates &= candidates - 1;
        }
        // New potential stream: install.
        self.retarget(self.cursor, line);
        self.cursor = (self.cursor + 1) % STREAMS;
        false
    }

    /// The one place a head is written: moves head `i` to `line` and its
    /// bit from the old head's buckets to the new one's. Clears come
    /// before sets because an old and a new group may share a bucket.
    #[inline(always)]
    fn retarget(&mut self, i: usize, line: u64) {
        let old = groups(self.heads[i]);
        let new = groups(line);
        self.heads[i] = line;
        if old != new {
            let bit = 1u16 << i;
            self.cover[bucket(old[0])] &= !bit;
            self.cover[bucket(old[1])] &= !bit;
            self.cover[bucket(new[0])] |= bit;
            self.cover[bucket(new[1])] |= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the index must equal: compare against all 16 heads,
    /// lowest-numbered match wins, else install at the cursor. This is the
    /// detector as it was before the index, kept line for line.
    struct Scan {
        heads: [u64; STREAMS],
        cursor: usize,
        /// Observations that more than one head matched.
        ties: usize,
    }

    impl Scan {
        fn new() -> Self {
            Self {
                heads: [u64::MAX; STREAMS],
                cursor: 0,
                ties: 0,
            }
        }

        fn observe_line(&mut self, line: u64) -> bool {
            let mut mask = 0u32;
            for (i, &head) in self.heads.iter().enumerate() {
                let matched = line.wrapping_sub(head) <= 2 || head.wrapping_sub(line) == 1;
                mask |= (matched as u32) << i;
            }
            self.ties += (mask.count_ones() > 1) as usize;
            if mask != 0 {
                self.heads[mask.trailing_zeros() as usize] = line;
                return true;
            }
            self.heads[self.cursor] = line;
            self.cursor = (self.cursor + 1) % STREAMS;
            false
        }
    }

    /// SplitMix64: seeded, dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Bit `i` is set in exactly the buckets of `heads[i]`'s two groups.
    fn assert_cover_matches_heads(p: &StreamPrefetcher, step: usize) {
        let mut want = [0u16; BUCKETS];
        for (i, &head) in p.heads.iter().enumerate() {
            for g in groups(head) {
                want[bucket(g)] |= 1 << i;
            }
        }
        assert!(p.cover == want, "step {step}: cover drifted from heads");
    }

    /// A stream of lines that advances by a fixed signed step.
    struct Stream {
        line: u64,
        step: i64,
    }

    /// Picks a start line: anywhere, next to zero, next to the wrap, or
    /// next to the largest line an address can produce.
    fn start_line(rng: &mut Rng) -> u64 {
        match rng.below(8) {
            0 => rng.below(256),
            1 => u64::MAX - rng.below(1 << 15),
            2 => (u64::MAX >> 6) - rng.below(1 << 9),
            _ => rng.next() >> rng.below(40),
        }
    }

    #[test]
    fn index_equals_scan_at_every_step() {
        const STEPS: usize = 2_000_000;
        const STEP_KINDS: [i64; 4] = [1, -1, 2, 0];
        let mut rng = Rng(0x5EED_0001);
        let mut index = StreamPrefetcher::new();
        let mut scan = Scan::new();
        // More live streams than heads, so heads are evicted and re-won.
        let mut streams: Vec<Stream> = (0..24)
            .map(|i| Stream {
                line: start_line(&mut rng),
                step: STEP_KINDS[i % 4],
            })
            .collect();
        let mut streamed = 0usize;
        for step in 0..STEPS {
            let line = match rng.below(10) {
                // Uniform random over the whole line space.
                0 => rng.next(),
                // Next to zero and next to the wrap, where empty heads match.
                1 => rng.below(256),
                2 => u64::MAX - rng.below(1 << 15),
                // Advance one of the interleaved streams, the low-numbered
                // ones most often so some stay tracked while the rest are
                // evicted and re-won; now and then restart it elsewhere or
                // jump it beside another stream so two heads come to cover
                // the same lines.
                _ => {
                    let n = streams.len() as u64;
                    let k = rng.below(n).min(rng.below(n)).min(rng.below(n)) as usize;
                    match rng.below(200) {
                        0 => streams[k].line = start_line(&mut rng),
                        1 => {
                            let other = rng.below(n) as usize;
                            streams[k].line = streams[other]
                                .line
                                .wrapping_add(rng.below(5))
                                .wrapping_sub(2);
                        }
                        _ => {}
                    }
                    let s = &mut streams[k];
                    s.line = s.line.wrapping_add(s.step as u64);
                    s.line
                }
            };
            let got = index.observe_line(line);
            let want = scan.observe_line(line);
            assert_eq!(got, want, "step {step}: line {line:#x}");
            assert_eq!(index.heads, scan.heads, "step {step}: line {line:#x}");
            assert_eq!(index.cursor, scan.cursor, "step {step}: line {line:#x}");
            assert_cover_matches_heads(&index, step);
            streamed += got as usize;
        }
        // The mix must exercise both outcomes, and the tie-break, heavily.
        assert!(
            streamed > STEPS / 4 && streamed < 3 * STEPS / 4,
            "{streamed}"
        );
        assert!(scan.ties > 1_000, "{} multi-head matches", scan.ties);
    }

    #[test]
    fn lowest_numbered_matching_head_wins() {
        let line = 0x4_0000u64;
        let mut p = StreamPrefetcher::new();
        assert!(!p.observe((line + 2) << 6), "install in slot 0");
        assert!(!p.observe(line << 6), "install in slot 1");
        assert_eq!((p.heads[0], p.heads[1], p.cursor), (line + 2, line, 2));
        // `line + 1` is one back from slot 0 and one ahead of slot 1.
        assert!(p.observe((line + 1) << 6));
        assert_eq!(p.heads[0], line + 1, "slot 0 advances");
        assert_eq!(p.heads[1], line, "slot 1 is left alone");
        assert_eq!(p.cursor, 2);
    }

    /// Known quirk, pinned rather than fixed (ROADMAP Known defects):
    /// empty heads are `u64::MAX` and matching wraps, so the lines next to
    /// the wrap count as streamed on a prefetcher that has seen nothing.
    #[test]
    fn empty_heads_match_lines_beside_the_wrap() {
        for addr in [0u64, 63, 64, 127] {
            let mut p = StreamPrefetcher::new();
            assert!(p.observe(addr), "address {addr} on a fresh prefetcher");
            assert_eq!(p.heads[0], addr >> 6, "slot 0 takes it");
            assert_eq!(p.cursor, 0, "and nothing was installed");
        }
        assert!(
            !StreamPrefetcher::new().observe(128),
            "line 2 is out of reach"
        );
        // Unreachable through `observe` (`addr >> 6` < 2⁵⁸) but part of the
        // same wrap: one line below the empty head.
        assert!(StreamPrefetcher::new().observe_line(u64::MAX - 1));
        assert!(StreamPrefetcher::new().observe_line(u64::MAX));
        assert!(!StreamPrefetcher::new().observe_line(u64::MAX - 2));
    }

    /// Work meter: head comparisons per observe. Guards the hash — with a
    /// bucket function that keeps only low group bits, the lockstep
    /// streams below all land in one bucket and cost 16 compares each.
    #[test]
    fn compares_per_observe_stay_bounded() {
        const N: u64 = 200_000;
        let mut rng = Rng(0x5EED_0002);
        let mut p = StreamPrefetcher::new();
        for _ in 0..N {
            p.observe(rng.next());
        }
        let per_observe = p.compares as f64 / N as f64;
        assert!(per_observe <= 0.5, "uniform random: {per_observe}");

        let mut p = StreamPrefetcher::new();
        let mut hits = 0u64;
        for i in 0..N / 16 {
            for s in 0..16u64 {
                // Page-aligned bases 1 GiB apart, advancing in lockstep.
                hits += p.observe((s + 1) << 30 | i << 6) as u64;
            }
        }
        assert_eq!(hits, N - 16, "every access after the first continues");
        let per_observe = p.compares as f64 / N as f64;
        assert!(per_observe <= 2.0, "16 sequential streams: {per_observe}");
    }

    #[test]
    fn sequential_lines_stream_after_first() {
        let mut p = StreamPrefetcher::new();
        assert!(!p.observe(0x1000), "first touch trains the stream");
        assert!(p.observe(0x1040));
        assert!(p.observe(0x1080));
        assert!(p.observe(0x10C0));
    }

    #[test]
    fn random_accesses_do_not_stream() {
        let mut p = StreamPrefetcher::new();
        let mut x = 12345u64;
        let mut hits = 0;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            if p.observe((x >> 16) << 12) {
                hits += 1;
            }
        }
        assert!(hits < 50, "{hits} spurious stream hits on random addresses");
    }

    #[test]
    fn interleaved_streams_are_tracked() {
        let mut p = StreamPrefetcher::new();
        p.observe(0x10000);
        p.observe(0x90000);
        // Interleave two streams; both should hit after training.
        let mut hits = 0;
        for i in 1..20u64 {
            if p.observe(0x10000 + i * 64) {
                hits += 1;
            }
            if p.observe(0x90000 + i * 64) {
                hits += 1;
            }
        }
        assert_eq!(hits, 38, "both streams should continue hitting");
    }

    #[test]
    fn same_line_counts_as_hit_once_trained() {
        let mut p = StreamPrefetcher::new();
        p.observe(0x2000);
        assert!(p.observe(0x2010), "same line re-touch is covered");
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = StreamPrefetcher::new();
        p.observe(0x8000);
        assert!(p.observe(0x8000 - 64));
        assert!(p.observe(0x8000 - 128));
    }
}
