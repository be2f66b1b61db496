//! Statistical feature extraction (§3.2), and the per-column pass that computes a
//! column's signature row and statistical row together.
//!
//! The seven features read their distinct count and percentiles from one sorted copy of
//! the column. [`value_rows`] hands that same copy to the GMM, which then evaluates one
//! responsibility row per distinct number of a low-cardinality column instead of one per
//! value ([`UnivariateGmm::mean_responsibilities_sorted`]).

use crate::signature::SIGNATURE_FANOUT_CELLS;
use gem_gmm::UnivariateGmm;
use gem_numeric::stats::gem_feature_row;
use gem_numeric::Matrix;

/// The names of the seven Gem statistical features, in matrix-column order.
pub const STATISTICAL_FEATURE_NAMES: [&str; 7] = [
    "unique_count",
    "mean",
    "coefficient_of_variation",
    "entropy",
    "range",
    "percentile_10",
    "percentile_90",
];

/// The work gate of the statistical block: a batch holding at most this many values
/// (Σ column lengths) runs on the calling thread even when `parallel` is set, because
/// spawning and joining a worker costs more than the sorting it would take over. Measured
/// on a 2-vCPU VM, where a value costs ~40 ns in [`gem_feature_row`] and the two-thread
/// fan-out ~40 µs of spawn and join: with 60-, 250- and 1000-value columns the fan-out
/// lost up to 1,440 values (1.3–9.5× slower), was mixed around 2,000 (0.93–1.14×), and
/// won from 2,880 values up (0.73–0.93× at 2,880–4,000, ~0.55× from 8,000). The gate
/// sits just above the mixed band, so a few query columns never spawn, while a bulk
/// embed's 256-column × 1000-value batch (256,000 values; a served embed transforms up to
/// 512 columns per batch) uses every thread.
pub(crate) const STATISTICAL_FANOUT_VALUES: usize = 4_096;

/// Compute the raw (un-standardised) statistical feature matrix: one row per column, one
/// column per feature in [`STATISTICAL_FEATURE_NAMES`] order. Runs on the calling thread;
/// [`crate::GemModel`] fits and transforms fan the same rows out across threads, together
/// with the signature rows when distributional features are selected.
///
/// Scale-carrying features (mean, range, percentiles, unique count) are passed through a
/// signed `ln(1 + |x|)` squash before the cross-column standardisation of Equation 7.
/// Data-lake corpora mix columns whose scales differ by many orders of magnitude
/// (populations and prices next to ages and ratings); without the squash the z-scores of the
/// few huge-scale columns dominate the feature distribution and every other column collapses
/// onto nearly identical standardised values, which destroys the discriminative power the
/// statistical block is supposed to add.
///
/// Empty columns produce an all-zero feature row rather than an error, so a corpus with a
/// degenerate column can still be embedded (the paper's corpora contain short columns, and a
/// pipeline that aborts on one bad column would be unusable on a data lake).
pub fn statistical_feature_matrix<S: AsRef<[f64]>>(columns: &[S]) -> Matrix {
    let values: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
    statistical_block(&values, false)
}

/// [`statistical_feature_matrix`], fanned out per column with
/// [`gem_parallel::par_fill_rows_with_scratch`] when `parallel` is set and the batch holds
/// more than [`STATISTICAL_FANOUT_VALUES`] values. Each thread reuses one sort buffer for
/// every column of its block, and rows are assigned by column index, so both paths
/// produce bit-identical matrices.
pub(crate) fn statistical_block(columns: &[&[f64]], parallel: bool) -> Matrix {
    let width = STATISTICAL_FEATURE_NAMES.len();
    let total_values = columns.iter().map(|c| c.len()).sum::<usize>();
    let mut out = Matrix::zeros(columns.len(), width);
    gem_parallel::par_fill_rows_with_scratch(
        columns,
        out.as_mut_slice(),
        width,
        parallel && total_values > STATISTICAL_FANOUT_VALUES,
        Vec::new,
        |col, row, sorted| {
            fill_feature_row(col, row, sorted);
        },
    );
    out
}

/// The largest batch (Σ column lengths) that [`value_rows`] computes on the calling
/// thread for a `k`-component GMM. A batch fans out when either block's own gate would
/// have fanned it out: more than [`SIGNATURE_FANOUT_CELLS`] signature cells, or more
/// than [`STATISTICAL_FANOUT_VALUES`] values.
pub(crate) fn value_rows_serial_values(k: usize) -> usize {
    (SIGNATURE_FANOUT_CELLS / k).min(STATISTICAL_FANOUT_VALUES)
}

/// Steps 2 and 3 of Algorithm 1 before standardisation, in one pass per column: the
/// signature row under `gmm` (n × k) and the raw statistical row (n × 7), bit-identical
/// to [`crate::signature_matrix`] and [`statistical_block`]. The signature reads the
/// sorted copy [`gem_feature_row`] leaves behind, so a low-cardinality column pays one
/// GMM evaluation per distinct number. When `parallel` is set and the batch holds more
/// than [`value_rows_serial_values`] values, the columns fan out once for both rows; each
/// thread reuses one sort buffer and one GMM scratch (log tables and row table) for
/// every column of its block.
pub(crate) fn value_rows(
    gmm: &UnivariateGmm,
    columns: &[&[f64]],
    parallel: bool,
) -> (Matrix, Matrix) {
    let k = gmm.n_components();
    let total_values = columns.iter().map(|c| c.len()).sum::<usize>();
    let width = k + STATISTICAL_FEATURE_NAMES.len();
    let mut rows = Matrix::zeros(columns.len(), width);
    gem_parallel::par_fill_rows_with_scratch(
        columns,
        rows.as_mut_slice(),
        width,
        parallel && total_values > value_rows_serial_values(k),
        <(Vec<f64>, Vec<f64>)>::default,
        |col, row, (sorted, gmm_scratch)| {
            let (signature, stats) = row.split_at_mut(k);
            // An empty column leaves `sorted` holding an earlier column; its signature is
            // the prior and never reads it.
            let sorted: &[f64] = if fill_feature_row(col, stats, sorted) {
                sorted
            } else {
                &[]
            };
            gmm.mean_responsibilities_sorted(col, sorted, signature, gmm_scratch);
        },
    );
    rows.hsplit(k)
}

/// Write `col`'s squashed statistical features into `row`, leaving `sorted` holding the
/// column sorted with NaNs last. Returns `false` for an empty column, which keeps its zero
/// row and leaves `sorted` untouched.
fn fill_feature_row(col: &[f64], row: &mut [f64], sorted: &mut Vec<f64>) -> bool {
    let Ok(features) = gem_feature_row(col, sorted) else {
        return false;
    };
    for (cell, v) in row.iter_mut().zip(features) {
        // Guard against pathological inputs (e.g. a column of identical ±inf): any
        // non-finite feature is zeroed instead of poisoning the standardisation.
        let v = if v.is_finite() { v } else { 0.0 };
        *cell = v.signum() * (1.0 + v.abs()).ln();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squash(x: f64) -> f64 {
        x.signum() * (1.0 + x.abs()).ln()
    }

    #[test]
    fn feature_matrix_shape_and_order() {
        let columns = vec![vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 10.0, 10.0]];
        let m = statistical_feature_matrix(&columns);
        assert_eq!(m.shape(), (2, 7));
        // Column 0: unique count 4, mean 2.5, range 3 — stored log-squashed.
        assert!((m.get(0, 0) - squash(4.0)).abs() < 1e-12);
        assert!((m.get(0, 1) - squash(2.5)).abs() < 1e-12);
        assert!((m.get(0, 4) - squash(3.0)).abs() < 1e-12);
        // Column 1 is constant: unique count 1, range 0, entropy 0, cv 0.
        assert!((m.get(1, 0) - squash(1.0)).abs() < 1e-12);
        assert_eq!(m.get(1, 2), 0.0);
        assert_eq!(m.get(1, 3), 0.0);
        assert_eq!(m.get(1, 4), 0.0);
    }

    #[test]
    fn squash_keeps_feature_ordering_but_compresses_scale() {
        let columns = vec![vec![1.0, 2.0], vec![1.0e6, 2.0e6]];
        let m = statistical_feature_matrix(&columns);
        // The huge-scale column still has the larger mean feature, but the gap is
        // logarithmic rather than six orders of magnitude.
        assert!(m.get(1, 1) > m.get(0, 1));
        assert!(m.get(1, 1) < 20.0);
    }

    #[test]
    fn empty_column_yields_zero_row() {
        let columns = vec![vec![], vec![5.0, 6.0]];
        let m = statistical_feature_matrix(&columns);
        assert!(m.row(0).iter().all(|&v| v == 0.0));
        assert!(m.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn non_finite_values_do_not_poison_features() {
        let columns = vec![vec![f64::INFINITY, f64::INFINITY]];
        let m = statistical_feature_matrix(&columns);
        assert!(m.all_finite());
    }

    #[test]
    fn feature_names_match_width() {
        assert_eq!(STATISTICAL_FEATURE_NAMES.len(), 7);
        let m = statistical_feature_matrix(&[vec![1.0]]);
        assert_eq!(m.cols(), STATISTICAL_FEATURE_NAMES.len());
    }
}
