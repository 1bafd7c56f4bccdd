//! Order statistics over host-time samples.
//!
//! Percentiles use the nearest-rank definition on integer percents, so
//! a rank never depends on floating-point rounding of `q * n`. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond it: p90 needs 100 samples, p99 needs 1000.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of the samples (total order, so NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `pct` percentile among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// How many samples lie strictly beyond the `pct` percentile of `n`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct).min(n)
}

/// The nearest-rank `pct` percentile of already sorted samples, with
/// no sample-count requirement (`None` only when there are no samples).
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct).min(sorted.len()) - 1])
}

/// A tail percentile: `None` unless [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], pct: u32) -> Option<f64> {
    if beyond(sorted.len(), pct) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, pct)
}

/// Rates over consecutive windows of `k` steps of a cumulative series
/// of `(host seconds, quantity)` points that starts from `(0, 0)`: one
/// `Δquantity / Δhost` per whole window; a trailing partial window is
/// dropped.
pub fn windowed_rates(points: &[(f64, f64)], k: usize) -> Vec<f64> {
    let mut prev = (0.0, 0.0);
    points
        .chunks_exact(k.max(1))
        .map(|w| {
            let end = w[w.len() - 1];
            let rate = (end.1 - prev.1) / (end.0 - prev.0);
            prev = end;
            rate
        })
        .collect()
}

/// [`windowed_rates`] in reference time: each window's rate is scaled
/// by the median yardstick slice of its `k` steps (`slices[i]` follows
/// step `i`) over `slice_ref`, the reference seconds one slice stands
/// for. A window the host ran at half speed has twice the host seconds
/// and twice the slice time, so its rate is unchanged.
pub fn windowed_ref_rates(
    points: &[(f64, f64)],
    slices: &[f64],
    k: usize,
    slice_ref: f64,
) -> Vec<f64> {
    let k = k.max(1);
    windowed_rates(points, k)
        .into_iter()
        .zip(slices.chunks_exact(k))
        .map(|(rate, ys)| rate * median(ys).unwrap_or(f64::NAN) / slice_ref)
        .collect()
}

/// The median (mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s, 100), Some(100.0));
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(tail(&one_to(100), 90), Some(90.0));
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(tail(&one_to(99), 90), None);
        assert_eq!(tail(&one_to(1000), 99), Some(990.0));
        assert_eq!(tail(&one_to(999), 99), None);
    }

    #[test]
    fn small_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(tail(&[7.0], 90), None);
    }

    #[test]
    fn windowed_rates_drop_the_partial_window() {
        // One op per 0.5 s, then a 10 s stall on the fifth op.
        let pts = [(0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (12.0, 5.0)];
        assert_eq!(windowed_rates(&pts, 2), vec![2.0, 2.0]);
        assert_eq!(windowed_rates(&pts, 1), vec![2.0, 2.0, 2.0, 2.0, 0.1]);
        assert_eq!(median(&windowed_rates(&pts, 1)), Some(2.0));
        assert!(windowed_rates(&pts[..1], 2).is_empty());
    }

    #[test]
    fn reference_rates_cancel_host_speed() {
        // Two windows of two steps: the second runs at half speed, and
        // its yardstick slices take twice as long.
        let pts = [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (9.0, 5.0)];
        let ys = [0.001, 0.001, 0.002, 0.002, 0.002];
        assert_eq!(windowed_rates(&pts, 2), vec![2.0, 1.0]);
        assert_eq!(windowed_ref_rates(&pts, &ys, 2, 0.001), vec![2.0, 2.0]);
        assert!(windowed_ref_rates(&pts[..1], &ys[..1], 2, 0.001).is_empty());
    }

    #[test]
    fn sorting_is_total() {
        assert_eq!(sorted(&[3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    }
}
