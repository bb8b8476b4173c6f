//! Order statistics over timing samples.

/// Nearest-rank quantile of `samples` (sorted in place). `q` in `[0, 1]`;
/// an empty sample set reads as 0.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(q, samples.len()).clamp(1, samples.len()) - 1]
}

/// Nearest rank of quantile `q` among `n` samples (1-based), immune to
/// `0.9 * 100.0` landing a hair above 90.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentile reported for `n` samples: p90, or the highest
/// below it that still leaves at least ten samples beyond it; the median
/// when even p75 is out of reach. (p99 and p95 move with every stall of
/// a shared host far more than with the code.)
pub fn tail_quantile(n: usize) -> f64 {
    [0.9, 0.8, 0.75]
        .into_iter()
        .find(|&q| n >= rank(q, n) + 10)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.8);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
    }
}
