//! The benchmark's own arithmetic: percentiles, geometric means,
//! open-loop lateness, deadline misses, span self time and outcome
//! fingerprints. Kept free of any placement code so it can be tested on
//! synthetic samples.

/// The nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the
/// smallest sample with at least `p`% of all samples at or below it.
/// Returns `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`. A percentile is reported as supported when this is at
/// least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean, `0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The geometric mean of strictly positive values (`NaN` if any value is
/// not positive or the slice is empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Open-loop latency of one request, timed from when it was *due* rather
/// than when the generator got round to sending it, so a stall that
/// delays later sends is charged to those requests too.
pub fn open_loop_latency(due_s: f64, done_s: f64) -> f64 {
    done_s - due_s
}

/// How late the generator sent a request (never negative: an early
/// thread sleeps until the due time).
pub fn generator_lag(due_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s).max(0.0)
}

/// The factor by which a request's wall time may exceed its deadline
/// before it counts as a miss.
pub const MISS_FACTOR: f64 = 1.1;

/// The share of `(wall, deadline)` pairs whose wall time exceeds
/// [`MISS_FACTOR`] × deadline. `0` for no pairs.
pub fn miss_ratio(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let missed = pairs
        .iter()
        .filter(|(wall, deadline)| *wall > MISS_FACTOR * *deadline)
        .count();
    missed as f64 / pairs.len() as f64
}

/// A closed interval of time, in any unit.
pub type Interval = (f64, f64);

/// Self time of a span: its duration minus the part of it that its
/// children cover. Overlapping children count once, and child time that
/// falls outside the parent is ignored.
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let (start, end) = span;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// FNV-1a over a stream of 64-bit words: the outcome fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word into the fingerprint.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fingerprint as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&ramp(5)), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        // p90 needs 100 samples for ten to lie beyond it, p99 needs 1000.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        // The samples beyond the percentile are exactly the larger ones.
        let s = ramp(100);
        let p = percentile(&s, 90.0);
        assert_eq!(s.iter().filter(|&&v| v > p).count(), 10);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn open_loop_lateness_counts_from_the_due_time() {
        // Due at 10 ms, sent late at 15 ms, answered at 18 ms: the
        // request waited 8 ms, of which 5 ms was the generator's stall.
        assert!((open_loop_latency(0.010, 0.018) - 0.008).abs() < 1e-12);
        assert!((generator_lag(0.010, 0.015) - 0.005).abs() < 1e-12);
        // A thread that was early sleeps; no negative lag.
        assert_eq!(generator_lag(0.010, 0.009), 0.0);
    }

    #[test]
    fn deadline_miss_ratio_uses_the_slack_factor() {
        let pairs = [
            (50.0, 50.0),  // on time
            (55.0, 50.0),  // exactly 1.1x: not a miss
            (55.1, 50.0),  // miss
            (200.0, 50.0), // miss
        ];
        assert_eq!(miss_ratio(&pairs), 0.5);
        assert_eq!(miss_ratio(&[]), 0.0);
    }

    #[test]
    fn span_self_time() {
        // No children: the whole span.
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Nested children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]), 2.0);
        // Child time outside the parent is ignored.
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 2.0), (8.0, 20.0)]), 6.0);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::default();
        a.push(1);
        a.push(2);
        let mut b = Fingerprint::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
