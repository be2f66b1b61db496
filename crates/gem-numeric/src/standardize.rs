//! Feature standardisation and vector normalisation.
//!
//! Implements the three normalisation steps of §3.2 / §3.3 of the paper:
//!
//! * Equation 7 — z-score standardisation of the statistical feature vectors (computed
//!   *across columns*, so each feature has zero mean and unit variance over the corpus),
//! * Equation 9 — L1 normalisation of the augmented per-column vector,
//! * Equation 10 — L1 normalisation of header embeddings.

use crate::error::{NumericError, NumericResult};
use crate::matrix::Matrix;
use crate::vector::{norm_l1, norm_l2};

/// Standardise a single vector to zero mean / unit variance (Equation 7 applied to one
/// feature vector). Constant vectors are returned as all zeros.
pub fn standardize_vector(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-12 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|x| (x - mean) / std).collect()
}

/// Standardise every column of a feature matrix (rows = table columns, cols = features) to
/// zero mean / unit variance across rows. Constant feature columns become zero.
///
/// This is how Gem applies Equation 7 in practice: the statistical features of all table
/// columns are standardised jointly so the features are comparable across columns.
pub fn standardize_columns(features: &Matrix) -> Matrix {
    let (rows, cols) = features.shape();
    if rows == 0 || cols == 0 {
        return features.clone();
    }
    let mut out = Matrix::zeros(rows, cols);
    for c in 0..cols {
        let col = features.column(c);
        let std_col = standardize_vector(&col);
        for (r, v) in std_col.into_iter().enumerate() {
            out.set(r, c, v);
        }
    }
    out
}

/// L1-normalise a vector (Equations 9 and 10). Vectors with zero L1 norm are returned
/// unchanged (all zeros stay all zeros).
pub fn l1_normalize(values: &[f64]) -> Vec<f64> {
    let norm = norm_l1(values);
    if norm < 1e-300 {
        return values.to_vec();
    }
    values.iter().map(|x| x / norm).collect()
}

/// L2-normalise a vector. Vectors with zero norm are returned unchanged.
pub fn l2_normalize(values: &[f64]) -> Vec<f64> {
    let norm = norm_l2(values);
    if norm < 1e-300 {
        return values.to_vec();
    }
    values.iter().map(|x| x / norm).collect()
}

/// Min–max scale a vector into `[0, 1]`. Constant vectors map to all `0.5`.
pub fn min_max_scale(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-300 {
        return vec![0.5; values.len()];
    }
    values.iter().map(|x| (x - lo) / (hi - lo)).collect()
}

/// L1-normalise every row of a matrix (used for embedding matrices).
pub fn l1_normalize_rows(matrix: &Matrix) -> Matrix {
    let mut out = matrix.clone();
    l1_normalize_rows_in_place(&mut out);
    out
}

/// [`l1_normalize_rows`] without the copy: each row is divided by its own L1 norm where
/// it lives, bit-identical to [`l1_normalize`] on that row (a row with a norm below
/// `1e-300` stays as it is).
pub fn l1_normalize_rows_in_place(matrix: &mut Matrix) {
    let cols = matrix.cols();
    if cols == 0 {
        return;
    }
    for row in matrix.as_mut_slice().chunks_mut(cols) {
        let norm = norm_l1(row);
        if norm < 1e-300 {
            continue;
        }
        for x in row.iter_mut() {
            *x /= norm;
        }
    }
}

/// L2-normalise every row of a matrix.
pub fn l2_normalize_rows(matrix: &Matrix) -> Matrix {
    let rows: Vec<Vec<f64>> = matrix.iter_rows().map(l2_normalize).collect();
    Matrix::from_rows(&rows).unwrap_or_else(|_| matrix.clone())
}

/// Standardise rows of a feature matrix using per-feature statistics fitted on a reference
/// matrix (used when applying a trained pipeline to new columns).
///
/// # Errors
/// Returns [`NumericError::DimensionMismatch`] when the column counts differ.
pub fn standardize_with_reference(target: &Matrix, reference: &Matrix) -> NumericResult<Matrix> {
    if target.cols() != reference.cols() {
        return Err(NumericError::DimensionMismatch {
            operation: "standardize_with_reference",
            left: target.shape(),
            right: reference.shape(),
        });
    }
    let cols = target.cols();
    let mut means = vec![0.0; cols];
    let mut stds = vec![0.0; cols];
    for c in 0..cols {
        let col = reference.column(c);
        let n = col.len() as f64;
        let mean = col.iter().sum::<f64>() / n;
        let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        means[c] = mean;
        stds[c] = var.sqrt();
    }
    let mut out = Matrix::zeros(target.rows(), cols);
    for r in 0..target.rows() {
        for c in 0..cols {
            let v = if stds[c] < 1e-12 {
                0.0
            } else {
                (target.get(r, c) - means[c]) / stds[c]
            };
            out.set(r, c, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn standardize_vector_zero_mean_unit_var() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = standardize_vector(&v);
        let mean: f64 = s.iter().sum::<f64>() / s.len() as f64;
        let var: f64 = s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < EPS);
        assert!((var - 1.0).abs() < EPS);
    }

    #[test]
    fn standardize_constant_vector_is_zero() {
        assert_eq!(standardize_vector(&[7.0, 7.0, 7.0]), vec![0.0, 0.0, 0.0]);
        assert!(standardize_vector(&[]).is_empty());
    }

    #[test]
    fn standardize_columns_per_feature() {
        let m = Matrix::from_rows(&[vec![1.0, 100.0], vec![2.0, 200.0], vec![3.0, 300.0]]).unwrap();
        let s = standardize_columns(&m);
        for c in 0..2 {
            let col = s.column(c);
            let mean: f64 = col.iter().sum::<f64>() / 3.0;
            assert!(mean.abs() < EPS);
        }
        // both features end up on the same scale
        assert!((s.get(0, 0) - s.get(0, 1)).abs() < EPS);
    }

    #[test]
    fn l1_normalize_sums_to_one() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let n = l1_normalize(&v);
        assert!((n.iter().sum::<f64>() - 1.0).abs() < EPS);
        // zero vector stays zero
        assert_eq!(l1_normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn l1_normalize_with_negative_entries() {
        let v = [-1.0, 1.0, 2.0];
        let n = l1_normalize(&v);
        let abs_sum: f64 = n.iter().map(|x| x.abs()).sum();
        assert!((abs_sum - 1.0).abs() < EPS);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let v = [3.0, 4.0];
        let n = l2_normalize(&v);
        assert!((n[0] - 0.6).abs() < EPS);
        assert!((n[1] - 0.8).abs() < EPS);
        assert_eq!(l2_normalize(&[0.0]), vec![0.0]);
    }

    #[test]
    fn min_max_scale_bounds() {
        let v = [10.0, 20.0, 15.0];
        let s = min_max_scale(&v);
        assert_eq!(s, vec![0.0, 1.0, 0.5]);
        assert_eq!(min_max_scale(&[4.0, 4.0]), vec![0.5, 0.5]);
        assert!(min_max_scale(&[]).is_empty());
    }

    #[test]
    fn normalize_rows_of_matrix() {
        let m = Matrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 2.0]]).unwrap();
        let l1 = l1_normalize_rows(&m);
        for r in 0..2 {
            assert!((l1.row(r).iter().sum::<f64>() - 1.0).abs() < EPS);
        }
        let l2 = l2_normalize_rows(&m);
        for r in 0..2 {
            let n: f64 = l2.row(r).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn in_place_l1_rows_match_the_per_row_normaliser_bit_for_bit() {
        let rows = [
            vec![0.0, 0.0, 0.0],
            vec![1e-301, -2e-302, 0.0],
            vec![-1.5, 2.25, -0.125],
            vec![f64::INFINITY, 1.0, -2.0],
            vec![f64::NEG_INFINITY, f64::INFINITY, 3.0],
            vec![f64::NAN, 1.0, 2.0],
            vec![-0.0, 5e-324, -7.0],
        ];
        let m = Matrix::from_rows(&rows).unwrap();
        let mut in_place = m.clone();
        l1_normalize_rows_in_place(&mut in_place);
        let copied = l1_normalize_rows(&m);
        for (r, row) in rows.iter().enumerate() {
            let expected: Vec<u64> = l1_normalize(row).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = in_place.row(r).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected, "row {r}");
            let via_copy: Vec<u64> = copied.row(r).iter().map(|x| x.to_bits()).collect();
            assert_eq!(via_copy, expected, "row {r}");
        }
        // Zero-width and zero-row matrices pass through untouched.
        let mut empty = Matrix::zeros(3, 0);
        l1_normalize_rows_in_place(&mut empty);
        assert_eq!(empty.shape(), (3, 0));
        assert_eq!(l1_normalize_rows(&Matrix::zeros(0, 4)).shape(), (0, 4));
    }

    #[test]
    fn standardize_with_reference_uses_reference_statistics() {
        let reference = Matrix::from_rows(&[vec![0.0], vec![10.0]]).unwrap(); // mean 5, std 5
        let target = Matrix::from_rows(&[vec![5.0], vec![15.0]]).unwrap();
        let s = standardize_with_reference(&target, &reference).unwrap();
        assert!((s.get(0, 0)).abs() < EPS);
        assert!((s.get(1, 0) - 2.0).abs() < EPS);
        let bad = Matrix::zeros(2, 3);
        assert!(standardize_with_reference(&bad, &reference).is_err());
    }
}
