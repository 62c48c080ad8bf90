//! Order statistics for the benchmark's latency samples.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of n
//! sorted samples is the sample at 1-based rank ⌈p/100 · n⌉. It always
//! returns an observed value, so a reported percentile is a real op.

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Ladder percentiles have one decimal, so p·n/100 is a multiple of
    // 0.001; the epsilon only keeps float error on an exact product (such
    // as 99.9 × 10000 / 100 = 9990) from rounding it up to the next rank.
    let r = (p * n as f64 / 100.0 - 1e-6).ceil() as usize;
    r.clamp(1, n)
}

/// The nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail percentile for `n` samples: the highest percentile of
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it, and
/// how many samples lie beyond it. `None` when even the median has fewer
/// than that many samples above it.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let beyond = n - nearest_rank(p, n);
        (beyond >= TAIL_MIN_BEYOND).then_some((p, beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(50.0, 4), 2);
        assert_eq!(nearest_rank(50.0, 5), 3);
        assert_eq!(nearest_rank(95.0, 200), 190);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(0.1, 7), 1);
    }

    #[test]
    fn percentile_returns_an_observed_sample() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 91.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 20 samples: p50 is rank 10 with 10 beyond; p75 (rank 15) has 5.
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(40), Some((75.0, 10)));
        assert_eq!(tail_percentile(100), Some((90.0, 10)));
        assert_eq!(tail_percentile(199), Some((90.0, 19)));
        assert_eq!(tail_percentile(200), Some((95.0, 10)));
        assert_eq!(tail_percentile(1000), Some((99.0, 10)));
        assert_eq!(tail_percentile(10_000), Some((99.9, 10)));
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
    }
}
