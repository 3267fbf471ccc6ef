//! Summary statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values with the standard library.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, by Python's exclusive method. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    if s.len() < 2 {
        return None;
    }
    Some((exclusive_cut(&s, 1, 4), exclusive_cut(&s, 3, 4)))
}

/// Interquartile range as a share of the median (the benchmark's
/// steadiness figure). `None` when undefined.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The `i`-th of `n` cut points of sorted data, exactly as CPython's
/// `statistics.quantiles(method="exclusive")` computes it.
fn exclusive_cut(s: &[f64], i: usize, n: usize) -> f64 {
    let ld = s.len();
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
}

/// Percentiles a tail figure may be reported at, in tenths, highest first.
const TAIL_CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest of the standard percentiles that still has at least ten
/// samples beyond it (above its nearest rank) out of `n`, or `None` when
/// even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - (n * p).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100) of already sorted samples.
pub fn percentile_sorted(s: &[u64], p: f64) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let rank = (s.len() as f64 * p / 100.0).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), Some(50));
        assert_eq!(percentile_sorted(&s, 99.0), Some(99));
        assert_eq!(percentile_sorted(&s, 100.0), Some(100));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }
}
