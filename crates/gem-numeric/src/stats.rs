//! Descriptive statistics of a numeric column.
//!
//! §3.2 of the paper augments the GMM-derived mean responsibilities with a set of
//! statistical features selected from the Pythagoras feature set: unique count, mean,
//! coefficient of variation, entropy, range and the 10th/90th percentiles. This module
//! implements those features (plus a few extra moments used by the Sherlock/Sato baselines)
//! on raw `&[f64]` slices.
//!
//! Two paths compute them:
//!
//! * [`gem_feature_row`] is the Gem pipeline's path. It computes only the seven features,
//!   reading the distinct count and both percentiles from one sorted copy of the column
//!   kept in a caller-owned buffer, so a block of columns allocates nothing per column.
//! * [`ColumnStats::compute`] computes every statistic from the standalone functions
//!   below, each taking its own pass (and its own sorted copy per percentile). The
//!   Sherlock/Sato baselines read its [`ColumnStats::extended_features`], and it is the
//!   reference [`gem_feature_row`] is tested against bit for bit.

use crate::error::{NumericError, NumericResult};
use std::cmp::Ordering;

/// Arithmetic mean.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn mean(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "mean" });
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn variance(values: &[f64]) -> NumericResult<f64> {
    let m = mean(values)?;
    Ok(variance_about(values, m))
}

/// Population variance around an already computed mean `m` of a non-empty slice.
fn variance_about(values: &[f64], m: f64) -> f64 {
    values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64
}

/// Sample variance (divides by `n - 1`); falls back to 0 for a single observation.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn sample_variance(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput {
            operation: "sample_variance",
        });
    }
    if values.len() == 1 {
        return Ok(0.0);
    }
    let m = mean(values)?;
    Ok(values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Population standard deviation.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn std_dev(values: &[f64]) -> NumericResult<f64> {
    Ok(variance(values)?.sqrt())
}

/// Minimum value.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn min(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "min" });
    }
    Ok(values.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum value.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn max(values: &[f64]) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput { operation: "max" });
    }
    Ok(values.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// Range (`max - min`), one of the Gem statistical features.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn range(values: &[f64]) -> NumericResult<f64> {
    Ok(max(values)? - min(values)?)
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
///
/// Matches the common "linear" (type-7) definition used by NumPy's default `percentile`.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice and
/// [`NumericError::InvalidParameter`] when `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput {
            operation: "percentile",
        });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(NumericError::InvalidParameter {
            name: "p",
            reason: format!("percentile must be in [0, 100], got {p}"),
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(nan_last);
    Ok(sorted_percentile(&sorted, p))
}

/// The sort order of every percentile: numbers by value, NaNs equal to each other and
/// after every number. `partial_cmp` alone is not a total order once a NaN is present,
/// and the standard sort panics on such comparators. On NaN-free input this is exactly
/// `partial_cmp`, so `-0.0` and `0.0` still compare equal and a stable sort keeps their
/// input order.
fn nan_last(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Type-7 percentile of a non-empty slice already sorted by [`nan_last`].
fn sorted_percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median (50th percentile).
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn median(values: &[f64]) -> NumericResult<f64> {
    percentile(values, 50.0)
}

/// Number of distinct values. Values are compared via their bit pattern after canonicalising
/// `-0.0` to `0.0`; NaNs all compare equal to each other.
pub fn unique_count(values: &[f64]) -> usize {
    use std::collections::HashSet;
    let mut set = HashSet::with_capacity(values.len());
    for &v in values {
        let canonical = if v == 0.0 {
            0.0f64
        } else if v.is_nan() {
            f64::NAN
        } else {
            v
        };
        set.insert(canonical.to_bits());
    }
    set.len()
}

/// Coefficient of variation: `std / |mean|`. Returns 0 when the mean is (numerically) zero,
/// mirroring the "relative dispersion is undefined around zero" convention used in the
/// Pythagoras feature set the paper borrows from.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn coefficient_of_variation(values: &[f64]) -> NumericResult<f64> {
    Ok(relative_dispersion(mean(values)?, std_dev(values)?))
}

/// `s / |m|`, or 0 when the mean `m` is (numerically) zero.
fn relative_dispersion(m: f64, s: f64) -> f64 {
    if m.abs() < 1e-12 {
        return 0.0;
    }
    s / m.abs()
}

/// Shannon entropy (in nats) of the empirical distribution obtained by binning the values
/// into `bins` equal-width bins. Columns whose values are all identical have zero entropy.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice and
/// [`NumericError::InvalidParameter`] when `bins == 0`.
pub fn entropy(values: &[f64], bins: usize) -> NumericResult<f64> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput {
            operation: "entropy",
        });
    }
    if bins == 0 {
        return Err(NumericError::InvalidParameter {
            name: "bins",
            reason: "entropy requires at least one bin".into(),
        });
    }
    Ok(binned_entropy(
        values,
        min(values)?,
        max(values)?,
        &mut vec![0; bins],
    ))
}

/// Entropy of a non-empty slice whose minimum and maximum are `lo` and `hi`, binned into
/// `counts.len()` equal-width bins. `counts` must arrive zeroed.
fn binned_entropy(values: &[f64], lo: f64, hi: f64, counts: &mut [usize]) -> f64 {
    if (hi - lo).abs() < f64::EPSILON {
        return 0.0;
    }
    let bins = counts.len();
    let width = (hi - lo) / bins as f64;
    for &v in values {
        let mut idx = ((v - lo) / width) as usize;
        if idx >= bins {
            idx = bins - 1;
        }
        counts[idx] += 1;
    }
    let n = values.len() as f64;
    let mut h = 0.0;
    for &c in counts.iter() {
        if c == 0 {
            continue;
        }
        let p = c as f64 / n;
        h -= p * p.ln();
    }
    h
}

/// Sample skewness (Fisher–Pearson, biased). Zero for constant columns.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn skewness(values: &[f64]) -> NumericResult<f64> {
    let m = mean(values)?;
    let s = std_dev(values)?;
    if s < 1e-12 {
        return Ok(0.0);
    }
    let n = values.len() as f64;
    Ok(values.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n)
}

/// Excess kurtosis (biased). Zero for constant columns.
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn kurtosis(values: &[f64]) -> NumericResult<f64> {
    let m = mean(values)?;
    let s = std_dev(values)?;
    if s < 1e-12 {
        return Ok(0.0);
    }
    let n = values.len() as f64;
    Ok(values.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n - 3.0)
}

/// Summary of a numeric column, bundling the statistics the Gem pipeline and the baselines
/// need. Computed once per column and reused.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of values.
    pub count: usize,
    /// Number of distinct values.
    pub unique_count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (`std / |mean|`, zero when the mean is zero).
    pub coefficient_of_variation: f64,
    /// Histogram-based Shannon entropy (nats, 32 bins).
    pub entropy: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Range (`max - min`).
    pub range: f64,
    /// 10th percentile.
    pub percentile_10: f64,
    /// 90th percentile.
    pub percentile_90: f64,
    /// Median.
    pub median: f64,
    /// Skewness.
    pub skewness: f64,
    /// Excess kurtosis.
    pub kurtosis: f64,
}

impl ColumnStats {
    /// Number of bins used for the entropy estimate.
    pub const ENTROPY_BINS: usize = 32;

    /// Compute the full statistics bundle for a column.
    ///
    /// # Errors
    /// Returns [`NumericError::EmptyInput`] for an empty column.
    pub fn compute(values: &[f64]) -> NumericResult<Self> {
        if values.is_empty() {
            return Err(NumericError::EmptyInput {
                operation: "ColumnStats::compute",
            });
        }
        Ok(ColumnStats {
            count: values.len(),
            unique_count: unique_count(values),
            mean: mean(values)?,
            std_dev: std_dev(values)?,
            coefficient_of_variation: coefficient_of_variation(values)?,
            entropy: entropy(values, Self::ENTROPY_BINS)?,
            min: min(values)?,
            max: max(values)?,
            range: range(values)?,
            percentile_10: percentile(values, 10.0)?,
            percentile_90: percentile(values, 90.0)?,
            median: median(values)?,
            skewness: skewness(values)?,
            kurtosis: kurtosis(values)?,
        })
    }

    /// The seven Gem statistical features of §3.2, in a fixed order:
    /// `[unique_count, mean, cv, entropy, range, p10, p90]`.
    pub fn gem_features(&self) -> Vec<f64> {
        vec![
            self.unique_count as f64,
            self.mean,
            self.coefficient_of_variation,
            self.entropy,
            self.range,
            self.percentile_10,
            self.percentile_90,
        ]
    }

    /// The extended feature vector used by the Sherlock_SC / Sato_SC baselines
    /// (`gem_features` plus std-dev, skewness, kurtosis, median and count).
    pub fn extended_features(&self) -> Vec<f64> {
        let mut f = self.gem_features();
        f.extend_from_slice(&[
            self.std_dev,
            self.skewness,
            self.kurtosis,
            self.median,
            self.count as f64,
        ]);
        f
    }
}

/// The seven Gem statistical features of §3.2, bit-identical to
/// [`ColumnStats::gem_features`] (same order, same values), from one sorted copy of the
/// column.
///
/// The mean is taken once and the population std from it. Min and max come from the same
/// `f64::min`/`f64::max` folds as [`min`]/[`max`], never from the ends of the sorted copy,
/// where `-0.0` and `0.0` keep their input order. The column is copied once into `sorted`
/// (a caller-owned buffer, so its capacity carries over from column to column) and
/// stably sorted; the distinct count is read off adjacent elements, and p10 and p90 with
/// the type-7 interpolation of [`percentile`].
///
/// # Errors
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn gem_feature_row(values: &[f64], sorted: &mut Vec<f64>) -> NumericResult<[f64; 7]> {
    if values.is_empty() {
        return Err(NumericError::EmptyInput {
            operation: "gem_feature_row",
        });
    }
    let m = mean(values)?;
    let s = variance_about(values, m).sqrt();
    let (lo, hi) = (min(values)?, max(values)?);
    let h = binned_entropy(values, lo, hi, &mut [0; ColumnStats::ENTROPY_BINS]);
    sorted.clear();
    sorted.extend_from_slice(values);
    sorted.sort_by(nan_last);
    Ok([
        sorted_unique_count(sorted) as f64,
        m,
        relative_dispersion(m, s),
        h,
        hi - lo,
        sorted_percentile(sorted, 10.0),
        sorted_percentile(sorted, 90.0),
    ])
}

/// [`unique_count`] of a slice sorted by [`nan_last`]: equal numbers (`-0.0 == 0.0`
/// included) sit next to each other, and all NaNs count as one value at the end.
fn sorted_unique_count(sorted: &[f64]) -> usize {
    let numbers = &sorted[..sorted.partition_point(|v| !v.is_nan())];
    let changes = numbers.windows(2).filter(|w| w[0] != w[1]).count();
    usize::from(!numbers.is_empty()) + changes + usize::from(numbers.len() < sorted.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_variance_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v).unwrap() - 5.0).abs() < EPS);
        assert!((variance(&v).unwrap() - 4.0).abs() < EPS);
        assert!((std_dev(&v).unwrap() - 2.0).abs() < EPS);
    }

    #[test]
    fn sample_variance_divides_by_n_minus_1() {
        let v = [1.0, 2.0, 3.0];
        assert!((sample_variance(&v).unwrap() - 1.0).abs() < EPS);
        assert_eq!(sample_variance(&[5.0]).unwrap(), 0.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(entropy(&[], 10).is_err());
        assert!(ColumnStats::compute(&[]).is_err());
    }

    #[test]
    fn min_max_range() {
        let v = [3.0, -1.0, 7.5, 2.0];
        assert_eq!(min(&v).unwrap(), -1.0);
        assert_eq!(max(&v).unwrap(), 7.5);
        assert_eq!(range(&v).unwrap(), 8.5);
    }

    #[test]
    fn percentile_linear_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&v, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((percentile(&v, 100.0).unwrap() - 4.0).abs() < EPS);
        assert!((percentile(&v, 50.0).unwrap() - 2.5).abs() < EPS);
        assert!((percentile(&v, 25.0).unwrap() - 1.75).abs() < EPS);
        assert!(percentile(&v, 150.0).is_err());
        assert!(percentile(&v, -1.0).is_err());
    }

    #[test]
    fn percentile_is_order_independent() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        let shuffled = [4.0, 1.0, 5.0, 2.0, 3.0];
        for p in [10.0, 50.0, 90.0] {
            assert!(
                (percentile(&sorted, p).unwrap() - percentile(&shuffled, p).unwrap()).abs() < EPS
            );
        }
    }

    #[test]
    fn nan_columns_sort_nans_last_instead_of_panicking() {
        // `partial_cmp(..).unwrap_or(Equal)` is not a total order once a NaN is present,
        // and the standard sort panicked on this column every time.
        let col: Vec<f64> = (0..21)
            .map(|i| {
                if i % 3 == 0 {
                    f64::NAN
                } else {
                    (21 - i) as f64
                }
            })
            .collect();
        let stats = ColumnStats::compute(&col).unwrap();
        assert_eq!(stats.unique_count, 15);
        assert_eq!(percentile(&col, 0.0).unwrap(), 1.0);
        // 14 numbers, then the 7 NaNs: rank 10 is the 11th number, rank 20 a NaN.
        assert_eq!(median(&col).unwrap(), 16.0);
        assert!(percentile(&col, 100.0).unwrap().is_nan());
        let row = gem_feature_row(&col, &mut Vec::new()).unwrap();
        assert_eq!(row[0], 15.0);
    }

    /// A splitmix64 stream, so the reference test needs no RNG crate.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One value of a seeded reference column: mostly few distinct values (so columns
    /// carry duplicates), with signed zeros, infinities, subnormals and NaNs mixed in.
    fn reference_value(rng: &mut SplitMix, scale: f64) -> f64 {
        match rng.below(20) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::from_bits(1 + rng.below(1 << 20)),
            5 => -f64::MIN_POSITIVE / 4.0,
            6 => f64::NAN,
            7..=12 => rng.below(6) as f64 - 2.0,
            _ => (rng.next() as f64 / u64::MAX as f64 - 0.3) * scale,
        }
    }

    #[test]
    fn gem_feature_row_matches_column_stats_bit_for_bit() {
        let mut rng = SplitMix(0x5EED);
        let mut sorted = Vec::new();
        let mut columns: Vec<Vec<f64>> = vec![
            vec![-0.0],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![f64::NEG_INFINITY, f64::INFINITY],
            vec![f64::from_bits(1), -f64::from_bits(1)],
            vec![f64::NAN, 3.0],
        ];
        for c in 0..3000 {
            let len = 1 + rng.below(if c % 10 == 0 { 700 } else { 40 }) as usize;
            // Every fourth column stays finite, so the features themselves are finite.
            let specials = c % 4 != 0;
            let scale = [1e-300, 1.0, 1e3, 1e300][rng.below(4) as usize];
            let value = |rng: &mut SplitMix| match c % 5 {
                // Mostly signed zeros: p10 and p90 land inside the zero run, where only
                // a stable sort reproduces the reference's sign.
                0 => [0.0, -0.0, 0.0, -0.0, 1.0, -1.0][rng.below(6) as usize],
                _ => loop {
                    let v = reference_value(rng, scale);
                    if specials || v.is_finite() {
                        break v;
                    }
                },
            };
            columns.push((0..len).map(|_| value(&mut rng)).collect());
        }
        for col in &columns {
            let want = ColumnStats::compute(col).unwrap().gem_features();
            let got = gem_feature_row(col, &mut sorted).unwrap();
            let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "column {col:?}");
        }
        assert!(gem_feature_row(&[], &mut sorted).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn unique_count_handles_duplicates_zero_and_nan() {
        assert_eq!(unique_count(&[1.0, 1.0, 2.0]), 2);
        assert_eq!(unique_count(&[0.0, -0.0]), 1);
        assert_eq!(unique_count(&[f64::NAN, f64::NAN, 1.0]), 2);
        assert_eq!(unique_count(&[]), 0);
    }

    #[test]
    fn cv_zero_mean_is_zero() {
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]).unwrap(), 0.0);
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&v).unwrap() - 0.4).abs() < EPS);
    }

    #[test]
    fn entropy_constant_column_is_zero() {
        assert_eq!(entropy(&[5.0; 100], 10).unwrap(), 0.0);
    }

    #[test]
    fn entropy_uniform_higher_than_concentrated() {
        let uniform: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let concentrated: Vec<f64> = (0..1000)
            .map(|i| if i < 990 { 0.0 } else { i as f64 })
            .collect();
        let hu = entropy(&uniform, 20).unwrap();
        let hc = entropy(&concentrated, 20).unwrap();
        assert!(hu > hc);
        assert!(hu <= (20.0f64).ln() + EPS);
    }

    #[test]
    fn entropy_zero_bins_is_error() {
        assert!(entropy(&[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn skewness_symmetric_is_zero() {
        let v = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&v).unwrap().abs() < EPS);
        assert_eq!(skewness(&[3.0, 3.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn skewness_right_tail_is_positive() {
        let v = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&v).unwrap() > 0.0);
    }

    #[test]
    fn kurtosis_constant_is_zero() {
        assert_eq!(kurtosis(&[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn column_stats_bundle() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = ColumnStats::compute(&v).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.unique_count, 100);
        assert!((s.mean - 50.5).abs() < EPS);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.range, 99.0);
        assert!((s.percentile_10 - 10.9).abs() < EPS);
        assert!((s.percentile_90 - 90.1).abs() < EPS);
        assert_eq!(s.gem_features().len(), 7);
        assert_eq!(s.extended_features().len(), 12);
    }

    #[test]
    fn gem_features_order_is_stable() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let s = ColumnStats::compute(&v).unwrap();
        let f = s.gem_features();
        assert_eq!(f[0], s.unique_count as f64);
        assert_eq!(f[1], s.mean);
        assert_eq!(f[2], s.coefficient_of_variation);
        assert_eq!(f[3], s.entropy);
        assert_eq!(f[4], s.range);
        assert_eq!(f[5], s.percentile_10);
        assert_eq!(f[6], s.percentile_90);
    }
}
