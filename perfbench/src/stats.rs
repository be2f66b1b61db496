//! Sample statistics with honest percentiles: a percentile is only reported when at
//! least ten samples lie beyond it, otherwise the run fails instead of printing the max.

/// Samples needed beyond a reported percentile.
const BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples` (any order).
///
/// # Errors
/// When fewer than ten samples lie beyond the requested rank.
pub fn percentile(what: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + BEYOND {
        return Err(format!(
            "{what}: {n} samples cannot support p{}: it needs {BEYOND} samples beyond rank {rank}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (midpoint of the two middle values for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile("x", &hundred, 0.5).unwrap(), 50.0);
        assert_eq!(percentile("x", &hundred, 0.9).unwrap(), 90.0);
        assert!(percentile("x", &hundred, 0.99).is_err());
        for (q, needed) in [(0.5, 20), (0.9, 100), (0.99, 1000)] {
            assert!(percentile("x", &vec![0.0; needed], q).is_ok());
            assert!(percentile("x", &vec![0.0; needed - 1], q).is_err());
        }
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
