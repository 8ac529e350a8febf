//! Seeded input generation shared by the workloads: a small PRNG, qubit
//! relabellings and a skewed popularity draw. Everything here runs
//! before timing starts.

use qcp_circuit::{Circuit, Qubit};
use qcp_env::topologies::{Delays, TopologySpec};
use qcp_env::Environment;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from generators for nearby
    /// seeds and other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `circuit` with its qubits renamed by a random permutation.
pub fn relabel(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let n = circuit.qubit_count();
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    circuit.map_qubits(n, |q| Qubit::new(perm[q.index()]))
}

/// Builds a device from its spec with the uniform delays `qcp place
/// --topology` and `qcp serve` use.
///
/// # Panics
///
/// Panics on a malformed spec; the benchmark only passes literals.
pub fn device(spec: &str) -> Environment {
    spec.parse::<TopologySpec>()
        .unwrap_or_else(|e| panic!("bad topology spec {spec}: {e}"))
        .build(Delays::uniform(10.0))
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`, for
/// [`draw_cdf`].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative distribution.
pub fn draw_cdf(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zipf_is_skewed_and_complete() {
        let cdf = zipf_cdf(100, 1.0);
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[draw_cdf(&cdf, &mut rng)] += 1;
        }
        assert!(counts[0] > 5 * counts[50]);
    }
}
