//! The Gem signature mechanism (§3.2): per-column mean responsibilities under a GMM fitted
//! to the stacked values of the whole corpus.

use gem_gmm::UnivariateGmm;
use gem_numeric::Matrix;

/// Stack all values of all columns into one flat array — the paper treats the corpus as a
/// single one-dimensional sample when fitting the GMM ("Gem treats all numerical values from
/// the columns as a single stack", §3.2). Non-finite values are dropped; the output is
/// allocated at exactly the surviving size in a single allocation.
///
/// Generic over the column representation (`Vec<f64>`, `&[f64]`, ...) so callers can pass
/// borrowed slices without cloning the corpus.
pub fn stack_values<S: AsRef<[f64]>>(columns: &[S]) -> Vec<f64> {
    let total: usize = columns
        .iter()
        .map(|c| c.as_ref().iter().filter(|v| v.is_finite()).count())
        .sum();
    let mut out = Vec::with_capacity(total);
    for c in columns {
        out.extend(c.as_ref().iter().copied().filter(|v| v.is_finite()));
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// The work gate of [`signature_matrix`]: a batch whose cell count (Σ column lengths ×
/// components) is at most this runs on the calling thread even when `parallel` is set,
/// because spawning and joining a worker costs more than the per-cell kernel work it
/// would take over. Measured on a 2-vCPU VM, where a cell costs ~18 ns serially and the
/// two-thread fan-out ~37 µs of spawn and join: with 60-value columns and k = 10 the
/// fan-out lost at 2 columns (1,200 cells, 2.6× slower) through 12 columns (7,200 cells,
/// 1.15–1.2× slower), was mixed at 9,600 cells and won from 19,200 cells up (0.76–0.88×);
/// 128,000 cells ran in 0.56–0.58× the serial time. The gate sits inside that
/// break-even band, so a few 60-value query columns never spawn, while a 32-column ×
/// 1000-value stream batch (512,000 cells) still fans out.
pub const SIGNATURE_FANOUT_CELLS: usize = 16_384;

/// Compute the signature matrix: one row per column, one column per Gaussian component,
/// entry `(i, j)` the mean responsibility of component `j` for the values of column `i`.
/// Rows sum to one (they are averages of probability vectors).
///
/// When `parallel` is true and the batch holds more than [`SIGNATURE_FANOUT_CELLS`]
/// cells, the columns are fanned out across threads with
/// [`gem_parallel::par_fill_rows_with_scratch`]; the GMM is immutable during this phase
/// so sharing it by reference is free. Each worker writes its rows straight into the
/// output matrix (no intermediate row vectors) and reuses one scratch buffer (hoisted
/// log tables plus a responsibility row) for every column of its block, so the fan-out
/// never touches the allocator per column. Rows are assigned by column index and the
/// kernel is scratch-state-free, so the parallel and serial paths produce bit-identical
/// matrices.
///
/// This is the per-value form: every value pays `k` `exp`s. [`crate::GemModel`]
/// transforms with statistical features selected compute the same rows from each
/// column's sorted copy, once per distinct number where the column has few of them.
pub fn signature_matrix<S: AsRef<[f64]> + Sync>(
    gmm: &UnivariateGmm,
    columns: &[S],
    parallel: bool,
) -> Matrix {
    let k = gmm.n_components();
    let n = columns.len();
    let cells = columns.iter().map(|c| c.as_ref().len()).sum::<usize>() * k;
    let mut out = Matrix::zeros(n, k);
    gem_parallel::par_fill_rows_with_scratch(
        columns,
        out.as_mut_slice(),
        k,
        parallel && cells > SIGNATURE_FANOUT_CELLS,
        Vec::new,
        |col, row, scratch| {
            gmm.mean_responsibilities_scratch(col.as_ref(), row, scratch);
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_gmm::GmmConfig;

    fn columns() -> Vec<Vec<f64>> {
        let low: Vec<f64> = (0..50).map(|i| (i % 10) as f64 * 0.1).collect();
        let high: Vec<f64> = (0..50).map(|i| 100.0 + (i % 10) as f64 * 0.1).collect();
        let mixed: Vec<f64> = low.iter().chain(high.iter()).cloned().collect();
        vec![low, high, mixed]
    }

    fn fitted_gmm(cols: &[Vec<f64>]) -> UnivariateGmm {
        let stacked = stack_values(cols);
        UnivariateGmm::fit(
            &stacked,
            &GmmConfig::with_components(2).restarts(3).with_seed(1),
        )
        .unwrap()
    }

    #[test]
    fn stack_concatenates_and_drops_non_finite() {
        let cols = vec![vec![1.0, f64::NAN, 2.0], vec![3.0, f64::INFINITY]];
        let stacked = stack_values(&cols);
        assert_eq!(stacked, vec![1.0, 2.0, 3.0]);
        assert!(stack_values::<Vec<f64>>(&[]).is_empty());
        // Borrowed slices work without cloning.
        let slices: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        assert_eq!(stack_values(&slices), stacked);
    }

    #[test]
    fn signature_rows_are_probability_vectors() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix(&gmm, &cols, false);
        assert_eq!(sig.shape(), (3, 2));
        for r in 0..3 {
            let s: f64 = sig.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(sig.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn signatures_separate_low_and_high_columns() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix(&gmm, &cols, false);
        // The low column and the high column should put their mass on different components,
        // while the mixed column sits in between.
        let low = sig.row(0);
        let high = sig.row(1);
        let mixed = sig.row(2);
        let low_argmax = if low[0] > low[1] { 0 } else { 1 };
        let high_argmax = if high[0] > high[1] { 0 } else { 1 };
        assert_ne!(low_argmax, high_argmax);
        assert!(low[low_argmax] > 0.9);
        assert!(high[high_argmax] > 0.9);
        assert!((mixed[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn parallel_and_serial_signatures_agree() {
        // Enough columns and cells to clear the work gate and trigger the parallel path.
        let base = columns();
        let mut cols = Vec::new();
        for i in 0..40 {
            let mut c = base[i % 3].repeat(8);
            c.push(i as f64);
            cols.push(c);
        }
        let gmm = fitted_gmm(&cols);
        let cells: usize = cols.iter().map(Vec::len).sum::<usize>() * gmm.n_components();
        assert!(cells > SIGNATURE_FANOUT_CELLS);
        let serial = signature_matrix(&gmm, &cols, false);
        let parallel = signature_matrix(&gmm, &cols, true);
        assert_eq!(serial.shape(), parallel.shape());
        for r in 0..serial.rows() {
            for c in 0..serial.cols() {
                assert!((serial.get(r, c) - parallel.get(r, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_column_list_gives_empty_matrix() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let sig = signature_matrix::<Vec<f64>>(&gmm, &[], false);
        assert_eq!(sig.rows(), 0);
    }

    #[test]
    fn empty_column_signature_is_the_prior() {
        let cols = columns();
        let gmm = fitted_gmm(&cols);
        let with_empty = vec![vec![], cols[0].clone()];
        let sig = signature_matrix(&gmm, &with_empty, false);
        for (a, b) in sig.row(0).iter().zip(gmm.weights()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
