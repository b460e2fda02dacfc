//! Order statistics over latency samples.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are ≤ it (rank `⌈p·n/100⌉`, 1-based). `None`
/// for an empty sample set.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts a sample set in place and returns it, for [`nearest_rank`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 95.0), Some(19.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(20.0));
        // rank rounds up: 5% of 20 = 1 → the smallest sample
        assert_eq!(nearest_rank(&v, 5.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_is_always_a_sample() {
        let v = sorted(vec![3.5, 1.25, 9.0]);
        assert_eq!(nearest_rank(&v, 50.0), Some(3.5));
        assert_eq!(nearest_rank(&v, 34.0), Some(3.5));
        assert_eq!(nearest_rank(&v, 33.0), Some(1.25));
        assert_eq!(nearest_rank(&v, 99.0), Some(9.0));
        assert_eq!(nearest_rank(&[7.0], 95.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = nearest_rank(&v, 95.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
