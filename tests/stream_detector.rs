//! The stream detector's indexed `observe` against the 16-head scan it
//! replaced, through the public API only. The step-by-step proof (heads,
//! cursor, index invariant, work meter) lives in `tiering_sim`'s unit
//! tests; this copy of the oracle keeps the equivalence inside the root
//! package's `cargo test`.

use hybridtier::sim::StreamPrefetcher;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The detector as it was before the index: compare against every head,
/// the lowest-numbered match advances, otherwise install round-robin.
struct Scan {
    heads: [u64; 16],
    cursor: usize,
}

impl Scan {
    fn observe(&mut self, addr: u64) -> bool {
        let line = addr >> 6;
        let matched = self
            .heads
            .iter()
            .position(|&head| line.wrapping_sub(head) <= 2 || head.wrapping_sub(line) == 1);
        match matched {
            Some(i) => self.heads[i] = line,
            None => {
                self.heads[self.cursor] = line;
                self.cursor = (self.cursor + 1) % 16;
            }
        }
        matched.is_some()
    }
}

#[test]
fn indexed_observe_equals_the_head_scan() {
    const STEPS: usize = 300_000;
    const STRIDES: [i64; 4] = [64, -64, 128, 8];
    let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
    let mut index = StreamPrefetcher::new();
    let mut scan = Scan {
        heads: [u64::MAX; 16],
        cursor: 0,
    };
    // More streams than heads; bases include the bottom and the top of the
    // address space, where the empty heads' wrap-around match is reachable.
    let mut streams: Vec<(u64, i64)> = (0..24)
        .map(|i| {
            let base = match i % 6 {
                0 => rng.gen_range(0..1u64 << 14),
                1 => u64::MAX - rng.gen_range(0..1u64 << 15),
                _ => rng.gen::<u64>() >> rng.gen_range(0..40u32),
            };
            (base, STRIDES[i % 4])
        })
        .collect();
    let mut streamed = 0usize;
    for step in 0..STEPS {
        let addr = match rng.gen_range(0..10u32) {
            0 => rng.gen::<u64>(),
            1 => rng.gen_range(0..256u64),
            2 => u64::MAX - rng.gen_range(0..1u64 << 15),
            _ => {
                // Low-numbered streams run hot and stay tracked; the rest
                // are evicted between touches. Now and then one stream
                // jumps beside another, so two heads cover the same lines.
                let k = rng.gen_range(0..24usize).min(rng.gen_range(0..24usize));
                if rng.gen_range(0..200u32) == 0 {
                    let other = streams[rng.gen_range(0..24usize)].0;
                    streams[k].0 = other.wrapping_add(rng.gen_range(0..256u64));
                }
                let (addr, stride) = &mut streams[k];
                *addr = addr.wrapping_add(*stride as u64);
                *addr
            }
        };
        let want = scan.observe(addr);
        assert_eq!(index.observe(addr), want, "step {step}: address {addr:#x}");
        streamed += want as usize;
    }
    assert!(
        streamed > STEPS / 4 && streamed < 3 * STEPS / 4,
        "{streamed} of {STEPS} streamed: the mix must exercise both outcomes"
    );
}
