//! Order statistics the benchmark reports: medians, quartiles with the
//! spread between them, and the slow-tail percentile rule.

/// Percentile levels the slow tail is reported at, mildest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// `exclusive` method); `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Python clamps `j` to 1..len−1 and keeps the same formula, so a
        // clamped end extrapolates (the weight leaves [0, 4]).
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(q3 − q1) / median`.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The slow tail of a sample: the highest ladder percentile that still
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank.
///
/// `higher_is_better` orients "beyond": for a throughput the slow side
/// is the low values, for a duration the high ones. Returns the
/// percentile level with its value, or `None` when even the median has
/// fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn slow_tail(values: &[f64], higher_is_better: bool) -> Option<(f64, f64)> {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let n = v.len();
    let mut best = None;
    for &level in &TAIL_LADDER {
        let rank = (level / 100.0 * n as f64).ceil() as usize;
        if rank == 0 || n - rank < TAIL_MIN_BEYOND {
            break;
        }
        best = Some((level, v[rank - 1]));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has 9 beyond it, so no level qualifies.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(slow_tail(&v, false), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 beyond; p75 leaves 5.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(slow_tail(&v, false), Some((50.0, 10.0)));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(slow_tail(&v, false), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(slow_tail(&v, false), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_of_a_throughput_is_on_the_low_side() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // The 90th-percentile slowest of 100 rates is the 11th lowest.
        assert_eq!(slow_tail(&v, true), Some((90.0, 11.0)));
    }
}
