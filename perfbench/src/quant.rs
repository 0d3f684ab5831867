//! Percentiles with the "at least ten samples beyond" rule.

/// Percentiles tried for a tail figure, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted`; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q)])
}

/// Median of an unsorted sample: the nearest-rank p50, so it agrees
/// with [`tail`] when that falls back to the median.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// The highest percentile of the ladder (p99, p95, p90, p75, p50)
/// with at least [`MIN_BEYOND`] samples strictly after its rank, as
/// `(q, value)`. With too few samples for even the median, the median
/// itself is returned; callers report which `q` they got and `n`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let q = TAIL_LADDER
        .into_iter()
        .find(|&q| n - 1 - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5);
    Some((q, sorted[rank(n, q)]))
}

/// Sort a sample in place and return it (for chaining).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is the 990th, with exactly ten after it.
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        // 999 samples: p99 has only nine beyond, so p95 is reported.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(0.95));
    }

    #[test]
    fn tail_falls_down_the_ladder_as_samples_shrink() {
        assert_eq!(tail(&ramp(200)).map(|t| t.0), Some(0.95)); // 10 beyond p95
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some(0.90));
        assert_eq!(tail(&ramp(40)).map(|t| t.0), Some(0.75));
        assert_eq!(tail(&ramp(20)).map(|t| t.0), Some(0.50));
        // Too few for any rung: the median stands in.
        assert_eq!(tail(&ramp(5)), Some((0.5, 3.0)));
        assert_eq!(tail(&ramp(4)), Some((0.5, 2.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 1..3000 {
            let xs = ramp(n);
            let (q, v) = tail(&xs).expect("non-empty");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(
                beyond >= MIN_BEYOND || q == 0.5,
                "n={n} q={q} beyond={beyond}"
            );
        }
    }
}
