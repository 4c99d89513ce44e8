//! Order statistics for timings: nearest-rank quantiles and the
//! highest percentile a sample supports.

/// Sorts a copy of `xs` (NaN last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of an ascending sample (`q` in `[0, 1]`); 0
/// for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail of a sample: the highest percentile that still has
/// `min_beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub pct: f64,
}

/// Nearest-rank tail with at least `min_beyond` samples beyond it:
/// rank `n - min_beyond` of `n` ascending samples, or `None` when the
/// sample is too small to have one.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = n - min_beyond;
    Some(Tail {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);

        // 37 samples: rank 27 of 37, the 72.97th percentile.
        let s: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&s, 10).unwrap();
        assert_eq!(t.value, 27.0);
        assert!((t.pct - 100.0 * 27.0 / 37.0).abs() < 1e-12);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&s, 10), None);
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&s, 10).unwrap().value, 1.0);
    }
}
