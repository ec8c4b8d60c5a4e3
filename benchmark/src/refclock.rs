//! A reference clock for a host whose speed drifts.
//!
//! The reference box is a 2-vCPU VM whose effective speed wanders by ±20 %
//! over tens of seconds (co-tenants, frequency): back-to-back passes of the
//! same fixed work differ by that much, and a fixed ALU loop, an L1-resident
//! pointer chase and an L2-resident one all slow down *together* with the
//! simulator. So each timed pass is bracketed by readings of a small fixed
//! kernel owned by this package — nothing in it is product code, so no
//! product change can move it — and the pass's wall time is divided by how
//! much slower than nominal the kernel ran around it. On the reference box
//! that turns a 10 % run-to-run spread of `host_ns_per_access` into 3–4 %.
//! The raw wall figures stay in the result file beside the calibrated ones.

use std::time::Instant;

/// Nominal nanoseconds per iteration of each kernel on the reference box
/// (medians over several minutes). They only fix the scale: a host twice as
/// fast reads a slowdown of 0.5 and reports the same calibrated time.
const NOMINAL_NS: [f64; 3] = [1.80, 1.49, 4.50];
/// Iterations of each kernel per reading (≈ 10 ms each on the reference box).
const ITERS: [u32; 3] = [6_000_000, 8_000_000, 2_000_000];

/// The kernel's state: two single-cycle permutations to chase through
/// (16 KiB fits L1, 256 KiB fits L2) and the running values that keep the
/// optimizer from deleting the loops.
#[derive(Debug)]
pub struct Reference {
    l1: Vec<u32>,
    l2: Vec<u32>,
    x: u64,
    at: [usize; 2],
}

/// A permutation of `0..n` that is one cycle of length `n` (Sattolo's
/// shuffle on a fixed xorshift stream), so a chase visits every slot.
fn single_cycle(n: usize, mut s: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v.swap(i, (s % i as u64) as usize);
    }
    v
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the kernel's tables.
    pub fn new() -> Self {
        Self {
            l1: single_cycle(4 << 10, 0x9E37_79B9_7F4A_7C15),
            l2: single_cycle(64 << 10, 0xD1B5_4A32_D192_ED03),
            x: 1,
            at: [0, 0],
        }
    }

    /// Runs the kernel once (≈ 30 ms) and returns how much slower than
    /// nominal the host is right now: the mean over the three loops of
    /// measured ÷ nominal time.
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..ITERS[0] {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
        }
        let alu = start.elapsed();
        let start = Instant::now();
        for _ in 0..ITERS[1] {
            self.at[0] = self.l1[self.at[0]] as usize;
        }
        let l1 = start.elapsed();
        let start = Instant::now();
        for _ in 0..ITERS[2] {
            self.at[1] = self.l2[self.at[1]] as usize;
        }
        let l2 = start.elapsed();
        std::hint::black_box((self.x, self.at));
        [alu, l1, l2]
            .iter()
            .zip(ITERS.iter().zip(NOMINAL_NS))
            .map(|(t, (&n, nominal))| t.as_nanos() as f64 / (f64::from(n) * nominal))
            .sum::<f64>()
            / 3.0
    }
}
