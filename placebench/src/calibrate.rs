//! A fixed, dependency-free CPU kernel timed inside every run, so that a
//! change in host speed between runs can be told apart from a change in
//! the program.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;
use crate::stats;

/// The kernel's usual time on the 2-vCPU VM whose numbers README.md
/// reports. Times scaled by `REFERENCE_MS / kernel_ms()` read as if
/// measured at that VM's usual speed.
pub const REFERENCE_MS: f64 = 0.8;

/// Repetitions per calibration; the median is kept.
const REPS: usize = 21;

/// Times the kernel: sorting and hashing 16,384 pseudo-random words, the
/// same mix of branches, allocation and hashing the placer's hot loops
/// do. Returns the median over [`REPS`] repetitions, in milliseconds.
pub fn kernel_ms() -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut rng = Rng::new(rep as u64, 0xca1b);
        let start = Instant::now();
        let mut words: Vec<u64> = (0..16_384).map(|_| rng.next_u64() % 100_000).collect();
        words.sort_unstable();
        let set: HashSet<u64> = words.iter().copied().collect();
        let hits = words.iter().filter(|&&w| set.contains(&(w + 1))).count();
        black_box(hits);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times)
}
