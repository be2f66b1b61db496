//! A dense, row-major `f64` matrix.
//!
//! The matrix type is intentionally small: the Gem pipeline manipulates embedding matrices
//! whose rows are columns of a table (a few thousand rows × a few hundred features), and the
//! neural-network substrate needs matrix products, transposes and element-wise maps. A
//! hand-rolled dense type keeps the workspace free of heavyweight linear-algebra
//! dependencies while remaining easy to audit.

use crate::error::{NumericError, NumericResult};

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> NumericResult<Self> {
        if data.len() != rows * cols {
            return Err(NumericError::DimensionMismatch {
                operation: "Matrix::from_vec",
                left: (rows, cols),
                right: (1, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create a matrix from a slice of rows.
    ///
    /// # Errors
    /// Returns [`NumericError::EmptyInput`] for an empty slice and
    /// [`NumericError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> NumericResult<Self> {
        if rows.is_empty() {
            return Err(NumericError::EmptyInput {
                operation: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NumericError::DimensionMismatch {
                    operation: "Matrix::from_rows",
                    left: (1, cols),
                    right: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Get the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds (bounds are asserted in debug and release).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Set the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into an owned vector.
    ///
    /// # Panics
    /// Panics when `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterator over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the classic i-k-j loop order so that the innermost loop walks both operands
    /// contiguously (see the perf-book guidance on cache-friendly traversal).
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> NumericResult<Matrix> {
        if self.cols != other.rows {
            return Err(NumericError::DimensionMismatch {
                operation: "matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when `self.cols != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> NumericResult<Vec<f64>> {
        if self.cols != v.len() {
            return Err(NumericError::DimensionMismatch {
                operation: "matvec",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when the shapes differ.
    pub fn add(&self, other: &Matrix) -> NumericResult<Matrix> {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Matrix) -> NumericResult<Matrix> {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> NumericResult<Matrix> {
        self.zip_with(other, "Matrix::hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        operation: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> NumericResult<Matrix> {
        if self.shape() != other.shape() {
            return Err(NumericError::DimensionMismatch {
                operation,
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Apply a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Scale all elements by a scalar.
    pub fn scale(&self, factor: f64) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Broadcast-add a row vector to every row.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> NumericResult<Matrix> {
        if bias.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                operation: "add_row_broadcast",
                left: (self.rows, self.cols),
                right: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Sum of each column (returns a vector of length `cols`).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (s, &x) in sums.iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
        sums
    }

    /// Mean of each column.
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let n = self.rows as f64;
        self.column_sums().into_iter().map(|s| s / n).collect()
    }

    /// Sum of each row (returns a vector of length `rows`).
    pub fn row_sums(&self) -> Vec<f64> {
        self.iter_rows().map(|r| r.iter().sum()).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Horizontally concatenate two matrices with the same number of rows.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> NumericResult<Matrix> {
        if self.rows != other.rows {
            return Err(NumericError::DimensionMismatch {
                operation: "hconcat",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Split the columns at `at` into a left `rows × at` and a right `rows × (cols − at)`
    /// matrix: the inverse of [`Matrix::hconcat`].
    ///
    /// # Panics
    /// Panics when `at > cols`.
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(
            at <= self.cols,
            "split column {at} beyond width {}",
            self.cols
        );
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            let (l, rt) = self.row(r).split_at(at);
            left.row_mut(r).copy_from_slice(l);
            right.row_mut(r).copy_from_slice(rt);
        }
        (left, right)
    }

    /// Vertically concatenate two matrices with the same number of columns.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] when column counts differ.
    pub fn vconcat(&self, other: &Matrix) -> NumericResult<Matrix> {
        if self.cols != other.cols {
            return Err(NumericError::DimensionMismatch {
                operation: "vconcat",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Consume the matrix and return its rows as owned vectors.
    pub fn into_rows(self) -> Vec<Vec<f64>> {
        self.data
            .chunks(self.cols.max(1))
            .map(|c| c.to_vec())
            .collect()
    }
}

/// Bit-exact JSON persistence: the buffer is encoded with [`gem_json::bits_array`]
/// (IEEE-754 bit patterns, not decimal), so `from_json(to_json(m))` reproduces every
/// element bit-for-bit — including NaN payloads and signed zeros. This is the encoding
/// model persistence uses for trained weights.
impl gem_json::ToJson for Matrix {
    fn to_json(&self) -> gem_json::Json {
        gem_json::object(vec![
            ("rows", gem_json::number(self.rows as f64)),
            ("cols", gem_json::number(self.cols as f64)),
            ("data", gem_json::bits_array(&self.data)),
        ])
    }
}

impl gem_json::FromJson for Matrix {
    fn from_json(value: &gem_json::Json) -> Result<Self, gem_json::JsonError> {
        let rows = value.num_field("rows")? as usize;
        let cols = value.num_field("cols")? as usize;
        let data = gem_json::as_bits_array(value.field("data")?)?;
        Matrix::from_vec(rows, cols, data)
            .map_err(|_| gem_json::JsonError::conversion("matrix data length != rows * cols"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_and_matmul() {
        let m = sample();
        let id = Matrix::identity(3);
        let prod = m.matmul(&id).unwrap();
        assert_eq!(prod, m);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_basic() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let m = sample();
        let s = m.add(&m).unwrap();
        assert_eq!(s.get(1, 2), 12.0);
        let d = m.sub(&m).unwrap();
        assert_eq!(d.frobenius_norm(), 0.0);
        let h = m.hadamard(&m).unwrap();
        assert_eq!(h.get(0, 2), 9.0);
    }

    #[test]
    fn broadcast_and_reductions() {
        let m = sample();
        let b = m.add_row_broadcast(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(b.get(0, 0), 2.0);
        assert_eq!(m.column_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.column_means(), vec![2.5, 3.5, 4.5]);
    }

    #[test]
    fn concatenation() {
        let m = sample();
        let h = m.hconcat(&m).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let v = m.vconcat(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert!(m.hconcat(&Matrix::zeros(3, 3)).is_err());
        assert!(m.vconcat(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn hsplit_inverts_hconcat() {
        let m = sample();
        let wide = m.hconcat(&m.scale(2.0)).unwrap();
        assert_eq!(wide.hsplit(3), (m.clone(), m.scale(2.0)));
        let (none, all) = m.hsplit(0);
        assert_eq!(none.shape(), (2, 0));
        assert_eq!(all, m);
        assert_eq!(m.hsplit(3).1.shape(), (2, 0));
    }

    #[test]
    fn map_and_scale() {
        let m = sample();
        assert_eq!(m.scale(2.0).get(1, 1), 10.0);
        assert_eq!(m.map(|x| x - 1.0).get(0, 0), 0.0);
        let mut m2 = m.clone();
        m2.map_inplace(|x| x * 0.0);
        assert_eq!(m2, Matrix::zeros(2, 3));
    }

    #[test]
    fn finite_detection() {
        let mut m = sample();
        assert!(m.all_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn into_rows_round_trip() {
        let m = sample();
        let rows = m.clone().into_rows();
        assert_eq!(Matrix::from_rows(&rows).unwrap(), m);
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        use gem_json::{FromJson, Json, ToJson};
        let mut m = sample();
        m.set(0, 0, -0.0);
        m.set(1, 2, 1.0 / 3.0);
        let text = m.to_json().to_pretty_string();
        let back = Matrix::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Zero-width matrices (empty blocks) survive too.
        let empty = Matrix::zeros(3, 0);
        let back = Matrix::from_json(&empty.to_json()).unwrap();
        assert_eq!(back.shape(), (3, 0));
    }

    #[test]
    fn json_decoding_rejects_inconsistent_shapes() {
        use gem_json::{FromJson, ToJson};
        let m = sample();
        let mut pairs = match m.to_json() {
            gem_json::Json::Object(pairs) => pairs,
            _ => unreachable!(),
        };
        pairs[0].1 = gem_json::number(5.0); // rows = 5 but data has 6 values
        assert!(Matrix::from_json(&gem_json::Json::Object(pairs)).is_err());
    }
}
