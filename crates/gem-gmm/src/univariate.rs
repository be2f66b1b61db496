//! Univariate Gaussian mixture fitted with EM.
//!
//! This is the model at the heart of Gem (§3.1): the probability density of a stack of
//! numeric values is modelled as a weighted sum of `m` Gaussians (Equation 1) whose
//! parameters are estimated with the EM algorithm (Equations 2–5). After fitting, the model
//! can answer the two queries the signature mechanism needs:
//!
//! * [`UnivariateGmm::responsibilities`] — the posterior probability γ(zₙⱼ) that a value was
//!   generated by component j (Equation 2), and
//! * [`UnivariateGmm::component_densities`] — the component likelihoods p(xₙ | μⱼ, Σⱼ)
//!   (Equation 6).
//!
//! A column's signature is the mean of its values' responsibility rows (§3.2).
//! [`UnivariateGmm::mean_responsibilities_scratch`] evaluates one row per value;
//! [`UnivariateGmm::mean_responsibilities_sorted`] evaluates one row per distinct number
//! when the column has few of them, with bit-identical output. EM evaluates one row per
//! value in every iteration: its sums depend on the order they run in.

use crate::config::{GmmConfig, InitMethod};
use crate::init::initial_means;
use gem_json::{as_number_array, number, number_array, object, FromJson, Json, JsonError, ToJson};
use gem_numeric::vector::log_sum_exp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Errors from fitting or querying a GMM.
#[derive(Debug, Clone, PartialEq)]
pub enum GmmError {
    /// The training data was empty.
    EmptyData,
    /// The configuration was invalid (zero components, non-positive tolerance, ...).
    InvalidConfig(String),
    /// EM produced a non-finite log-likelihood, which indicates a numerical failure.
    NumericalFailure(String),
}

impl fmt::Display for GmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmmError::EmptyData => write!(f, "cannot fit a GMM to empty data"),
            GmmError::InvalidConfig(reason) => write!(f, "invalid GMM configuration: {reason}"),
            GmmError::NumericalFailure(reason) => write!(f, "GMM numerical failure: {reason}"),
        }
    }
}

impl std::error::Error for GmmError {}

const LOG_2PI: f64 = 1.837_877_066_409_345_5; // ln(2π)

/// A fitted univariate Gaussian mixture model.
#[derive(Debug, Clone, PartialEq)]
pub struct UnivariateGmm {
    weights: Vec<f64>,
    means: Vec<f64>,
    variances: Vec<f64>,
    log_likelihood: f64,
    n_iterations: usize,
    converged: bool,
    n_samples: usize,
}

impl UnivariateGmm {
    /// Fit a mixture to `data` with the given configuration, running
    /// `config.n_restarts` independent EM runs and keeping the best by final log-likelihood.
    ///
    /// # Errors
    /// Returns [`GmmError::EmptyData`] for empty data and [`GmmError::InvalidConfig`] for a
    /// configuration with zero components, zero restarts or a non-positive tolerance.
    pub fn fit(data: &[f64], config: &GmmConfig) -> Result<Self, GmmError> {
        validate(data, config)?;
        // More components than data points is allowed, but cap the effective count so every
        // component can in principle own at least one point; surplus components would be
        // degenerate anyway.
        let k = config.n_components.min(data.len()).max(1);
        // Quantile initialisation is deterministic, so extra restarts would repeat the same
        // EM trajectory; run it once.
        let n_restarts = if config.init == InitMethod::Quantile {
            1
        } else {
            config.n_restarts.max(1)
        };
        // The restarts are independent EM runs, so fan them out across threads; the winner
        // is selected by a strictly-greater scan in restart order, which makes the parallel
        // and sequential paths pick the identical model. Each worker thread reuses one
        // scratch buffer set (responsibility matrix, log tables, accumulators) across all
        // the restarts it runs; every buffer is fully rewritten per iteration, so the
        // schedule cannot change the result.
        let restarts: Vec<u64> = (0..n_restarts as u64).collect();
        let fits = gem_parallel::par_map_with_scratch(
            &restarts,
            n_restarts > 1,
            EmScratch::default,
            |&restart, scratch| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart));
                run_em(data, k, config, config.init, &mut rng, scratch)
            },
        );
        let mut best: Option<UnivariateGmm> = None;
        for fitted in fits {
            let fitted = fitted?;
            let better = match &best {
                None => true,
                Some(b) => fitted.log_likelihood > b.log_likelihood,
            };
            if better {
                best = Some(fitted);
            }
        }
        best.ok_or_else(|| GmmError::NumericalFailure("no EM restart produced a model".into()))
    }

    /// Mixture weights π (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means μ.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Component variances Σ (univariate, so scalars).
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// Number of mixture components actually fitted (may be lower than requested when the
    /// data has fewer points than components).
    pub fn n_components(&self) -> usize {
        self.means.len()
    }

    /// Final total log-likelihood of the training data.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Number of EM iterations of the winning restart.
    pub fn n_iterations(&self) -> usize {
        self.n_iterations
    }

    /// Whether the winning restart converged before hitting the iteration cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of training samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Mixture density p(x) (Equation 1).
    pub fn pdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(self.means.iter().zip(self.variances.iter()))
            .map(|(&w, (&m, &v))| w * gaussian_pdf(x, m, v))
            .sum()
    }

    /// Log of the mixture density, computed stably in log space.
    pub fn log_pdf(&self, x: f64) -> f64 {
        with_scratch(self.n_components(), |row| {
            self.log_pdf_into(x, row);
            log_sum_exp(row)
        })
    }

    /// Per-component *weighted* log-densities `ln πⱼ + ln N(x | μⱼ, σⱼ²)` written into a
    /// caller-provided buffer — the log-space quantities every query (responsibilities,
    /// mixture log-density) is built from, exposed so hot paths can stay allocation-free.
    ///
    /// # Panics
    /// Panics when `out.len()` differs from [`UnivariateGmm::n_components`].
    pub fn log_pdf_into(&self, x: f64, out: &mut [f64]) {
        let k = self.n_components();
        assert_eq!(
            out.len(),
            k,
            "log-density buffer width must equal the component count"
        );
        with_scratch(2 * k, |scratch| {
            let (bias, scale) = scratch.split_at_mut(k);
            fill_log_tables(&self.weights, &self.variances, bias, scale);
            weighted_log_density_row(x, &self.means, bias, scale, out);
        });
    }

    /// Per-component densities p(x | μⱼ, Σⱼ) (Equation 6), *not* weighted by π.
    pub fn component_densities(&self, x: f64) -> Vec<f64> {
        self.means
            .iter()
            .zip(self.variances.iter())
            .map(|(&m, &v)| gaussian_pdf(x, m, v))
            .collect()
    }

    /// Responsibilities γ(zₙⱼ) of each component for the value `x` (Equation 2). The result
    /// sums to 1.
    pub fn responsibilities(&self, x: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.n_components()];
        self.responsibilities_into(x, &mut out);
        out
    }

    /// [`UnivariateGmm::responsibilities`] written into a caller-provided buffer, so the
    /// transform hot path computes a value's posterior without touching the allocator.
    /// Degenerate queries (±inf / NaN) fall back to the mixture weights. Produces
    /// bit-identical values to the allocating variant.
    ///
    /// # Panics
    /// Panics when `out.len()` differs from [`UnivariateGmm::n_components`].
    pub fn responsibilities_into(&self, x: f64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.n_components(),
            "responsibility buffer width must equal the component count"
        );
        self.log_pdf_into(x, out);
        normalize_row(out, &self.weights);
    }

    /// Responsibility matrix for a batch of values as one flat row-major block: row `i`
    /// (the `k` entries at `i * k ..`) holds the responsibilities of `values[i]` and sums
    /// to 1, with `k = n_components`. Flat layout, because every consumer (the E-step,
    /// signature averaging, embedding matrices) walks rows sequentially — nested
    /// `Vec<Vec<f64>>` rows would cost one allocation per value and scatter the rows
    /// across the heap.
    pub fn responsibility_matrix(&self, values: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; values.len() * self.n_components()];
        self.responsibility_matrix_into(values, &mut out);
        out
    }

    /// [`UnivariateGmm::responsibility_matrix`] written into a caller-provided buffer —
    /// this is exactly the E-step kernel (hoisted log tables plus one row-major pass).
    ///
    /// # Panics
    /// Panics when `out.len() != values.len() * n_components`.
    pub fn responsibility_matrix_into(&self, values: &[f64], out: &mut [f64]) {
        let k = self.n_components();
        assert_eq!(
            out.len(),
            values.len() * k,
            "responsibility buffer must be len(values) × n_components"
        );
        with_scratch(2 * k, |scratch| {
            let (bias, scale) = scratch.split_at_mut(k);
            fill_log_tables(&self.weights, &self.variances, bias, scale);
            for (i, &x) in values.iter().enumerate() {
                let row = &mut out[i * k..(i + 1) * k];
                weighted_log_density_row(x, &self.means, bias, scale, row);
                normalize_row(row, &self.weights);
            }
        });
    }

    /// Mean responsibility vector over a set of values — the per-column signature of §3.2
    /// (`μ_Cj = 1/N Σᵢ γ(z_ij)`). Returns the mixture weights for an empty input so the
    /// signature of an empty column is the prior.
    pub fn mean_responsibilities(&self, values: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_components()];
        self.mean_responsibilities_into(values, &mut out);
        out
    }

    /// [`UnivariateGmm::mean_responsibilities`] written into a caller-provided buffer, so
    /// hot paths (one signature row per corpus column) can fill an embedding matrix without
    /// a per-column allocation. Produces bit-identical values to the allocating variant.
    ///
    /// # Panics
    /// Panics when `out.len()` differs from [`UnivariateGmm::n_components`].
    pub fn mean_responsibilities_into(&self, values: &[f64], out: &mut [f64]) {
        with_scratch(3 * self.n_components(), |scratch| {
            self.mean_responsibilities_core(values, out, scratch)
        });
    }

    /// [`UnivariateGmm::mean_responsibilities_into`] with a caller-owned scratch buffer
    /// (resized to `3 × n_components`: the two hoisted log tables plus one
    /// responsibility row). Per-column fan-outs hand each worker thread one such buffer
    /// via `gem_parallel::par_fill_rows_with_scratch`, so a thread signing hundreds of
    /// columns reuses a single allocation. Bit-identical to the other variants.
    ///
    /// # Panics
    /// Panics when `out.len()` differs from [`UnivariateGmm::n_components`].
    pub fn mean_responsibilities_scratch(
        &self,
        values: &[f64],
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        scratch.resize(3 * self.n_components(), 0.0);
        self.mean_responsibilities_core(values, out, scratch);
    }

    /// Shared signature kernel: log tables hoisted once per column, the per-value loop
    /// touches only the caller's scratch — no allocations.
    fn mean_responsibilities_core(&self, values: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let k = self.n_components();
        assert_eq!(
            out.len(),
            k,
            "signature buffer width must equal the component count"
        );
        if values.is_empty() {
            out.copy_from_slice(&self.weights);
            return;
        }
        out.fill(0.0);
        let (bias, rest) = scratch.split_at_mut(k);
        let (scale, row) = rest.split_at_mut(k);
        fill_log_tables(&self.weights, &self.variances, bias, scale);
        for &x in values {
            weighted_log_density_row(x, &self.means, bias, scale, row);
            normalize_row(row, &self.weights);
            for (a, &r) in out.iter_mut().zip(row.iter()) {
                *a += r;
            }
        }
        let n = values.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// [`UnivariateGmm::mean_responsibilities_scratch`] for a column whose sorted copy
    /// the caller already holds: `sorted` is `values` sorted with NaNs last, as
    /// `gem_numeric::stats::gem_feature_row` leaves it while counting the column's
    /// distinct values. Bit-identical to the other variants.
    ///
    /// A value's responsibility row depends on the value alone. So when the column has
    /// `d` distinct numbers with `d · k ≤ n`, the kernel evaluates the mixture once per
    /// distinct number into a `d × k` table (after the two log tables and `d` keys in
    /// `scratch`), then adds the table rows to the sum in input order. Those are the
    /// per-value kernel's additions in the per-value kernel's order, for at most `n`
    /// `exp` calls instead of `n · k`. The gate is decided from the count before the
    /// table is sized, and the table is never larger than the sorted copy. Any other
    /// column runs the per-value kernel and leaves `scratch` at its `3 × k` size.
    ///
    /// NaN values contribute the mixture weights, as in the per-value kernel; `-0.0`
    /// and `0.0` share one row (their rows are equal). An empty column's signature is
    /// the prior, and `sorted` is not read.
    ///
    /// # Panics
    /// Panics when `out.len()` differs from [`UnivariateGmm::n_components`], or when a
    /// non-empty column's `sorted` is not as long as `values`. A `sorted` that holds
    /// other numbers than `values` gives a wrong signature or panics.
    pub fn mean_responsibilities_sorted(
        &self,
        values: &[f64],
        sorted: &[f64],
        out: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        let k = self.n_components();
        assert_eq!(
            out.len(),
            k,
            "signature buffer width must equal the component count"
        );
        if values.is_empty() {
            out.copy_from_slice(&self.weights);
            return;
        }
        assert_eq!(
            sorted.len(),
            values.len(),
            "the sorted copy must hold the column's values"
        );
        let numbers = &sorted[..sorted.partition_point(|v| !v.is_nan())];
        let Some(d) = distinct_count_at_most(numbers, values.len() / k) else {
            return self.mean_responsibilities_scratch(values, out, scratch);
        };
        scratch.resize(2 * k + d * (1 + k), 0.0);
        let (bias, rest) = scratch.split_at_mut(k);
        let (scale, rest) = rest.split_at_mut(k);
        let (keys, table) = rest.split_at_mut(d);
        fill_log_tables(&self.weights, &self.variances, bias, scale);
        let mut filled = 0;
        for &x in numbers {
            if filled > 0 && keys[filled - 1] == x {
                continue;
            }
            keys[filled] = x;
            let row = &mut table[filled * k..(filled + 1) * k];
            weighted_log_density_row(x, &self.means, bias, scale, row);
            normalize_row(row, &self.weights);
            filled += 1;
        }
        out.fill(0.0);
        for &x in values {
            let row = if x.is_nan() {
                &self.weights[..]
            } else {
                let i = keys.partition_point(|&key| key < x);
                &table[i * k..(i + 1) * k]
            };
            for (a, &r) in out.iter_mut().zip(row) {
                *a += r;
            }
        }
        let n = values.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Index of the most responsible component for `x` (hard assignment, Equation 12).
    pub fn predict_component(&self, x: f64) -> usize {
        with_scratch(self.n_components(), |row| {
            self.responsibilities_into(x, row);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
    }

    /// Total log-likelihood of an arbitrary set of values under the model.
    pub fn score(&self, values: &[f64]) -> f64 {
        values.iter().map(|&x| self.log_pdf(x)).sum()
    }

    /// Number of free parameters (for BIC/AIC): `k` weights (minus the simplex constraint),
    /// `k` means and `k` variances.
    pub fn n_parameters(&self) -> usize {
        3 * self.n_components() - 1
    }

    /// Bayesian Information Criterion on the training data (lower is better).
    pub fn bic(&self) -> f64 {
        let n = self.n_samples.max(1) as f64;
        (self.n_parameters() as f64) * n.ln() - 2.0 * self.log_likelihood
    }

    /// Akaike Information Criterion on the training data (lower is better).
    pub fn aic(&self) -> f64 {
        2.0 * (self.n_parameters() as f64) - 2.0 * self.log_likelihood
    }
}

/// JSON persistence of a fitted model (serving systems cache fitted GMMs and must survive
/// restarts). Serialisation uses shortest-round-trip float formatting, so
/// `from_json(to_json(m)) == m` holds **exactly** — a rehydrated model produces
/// bit-identical signatures.
impl ToJson for UnivariateGmm {
    fn to_json(&self) -> Json {
        object(vec![
            ("weights", number_array(&self.weights)),
            ("means", number_array(&self.means)),
            ("variances", number_array(&self.variances)),
            // NEG_INFINITY (never produced by a successful fit, but representable)
            // serialises as null and rehydrates below.
            ("log_likelihood", number(self.log_likelihood)),
            ("n_iterations", number(self.n_iterations as f64)),
            ("converged", Json::Bool(self.converged)),
            ("n_samples", number(self.n_samples as f64)),
        ])
    }
}

impl FromJson for UnivariateGmm {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let weights = as_number_array(value.field("weights")?)?;
        let means = as_number_array(value.field("means")?)?;
        let variances = as_number_array(value.field("variances")?)?;
        if weights.is_empty() || weights.len() != means.len() || means.len() != variances.len() {
            return Err(JsonError::conversion(
                "weights/means/variances must be equal-length and non-empty",
            ));
        }
        // Semantic validation: a corrupted snapshot must fail at load time, not emit NaN
        // signatures at serve time.
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(JsonError::conversion(
                "weights must be finite and non-negative",
            ));
        }
        if means.iter().any(|m| !m.is_finite()) {
            return Err(JsonError::conversion("means must be finite"));
        }
        if variances.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(JsonError::conversion(
                "variances must be finite and positive",
            ));
        }
        // `null` is how a non-finite log-likelihood serialises; any other non-number is
        // corruption.
        let log_likelihood = match value.field("log_likelihood")? {
            Json::Null => f64::NEG_INFINITY,
            other => other.as_f64().ok_or_else(|| {
                JsonError::conversion("field `log_likelihood` is not a number or null")
            })?,
        };
        let converged = value
            .field("converged")?
            .as_bool()
            .ok_or_else(|| JsonError::conversion("field `converged` is not a bool"))?;
        Ok(UnivariateGmm {
            weights,
            means,
            variances,
            log_likelihood,
            n_iterations: value.num_field("n_iterations")? as usize,
            converged,
            n_samples: value.num_field("n_samples")? as usize,
        })
    }
}

fn validate(data: &[f64], config: &GmmConfig) -> Result<(), GmmError> {
    if data.is_empty() {
        return Err(GmmError::EmptyData);
    }
    if config.n_components == 0 {
        return Err(GmmError::InvalidConfig(
            "n_components must be positive".into(),
        ));
    }
    if config.tolerance <= 0.0 || !config.tolerance.is_finite() {
        return Err(GmmError::InvalidConfig(
            "tolerance must be positive and finite".into(),
        ));
    }
    if config.max_iterations == 0 {
        return Err(GmmError::InvalidConfig(
            "max_iterations must be positive".into(),
        ));
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(GmmError::InvalidConfig(
            "training data must not contain NaN or infinite values".into(),
        ));
    }
    Ok(())
}

fn gaussian_pdf(x: f64, mean: f64, variance: f64) -> f64 {
    gaussian_log_pdf(x, mean, variance).exp()
}

fn gaussian_log_pdf(x: f64, mean: f64, variance: f64) -> f64 {
    let v = variance.max(1e-300);
    let d = x - mean;
    -0.5 * (LOG_2PI + v.ln() + d * d / v)
}

/// Run `f` over a scratch slice of `len` f64s, on the stack for small lengths (the
/// per-value and per-column kernels: a responsibility row, or a row plus two log
/// tables) and on the heap beyond. 192 slots cover three tables at the paper's m = 50.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    const STACK_SLOTS: usize = 192;
    if len <= STACK_SLOTS {
        let mut buf = [0.0f64; STACK_SLOTS];
        f(&mut buf[..len])
    } else {
        let mut buf = vec![0.0; len];
        f(&mut buf)
    }
}

/// Fill the per-component tables the fused kernels hoist out of the per-value loop:
/// `bias[j] = ln πⱼ − ½(ln 2π + ln σⱼ²)` (the x-independent part of the weighted
/// log-density) and `scale[j] = −½ / σⱼ²`. With these in hand the per-value kernel is
/// one subtraction and two multiplies per component — no `ln` and no division in the
/// hot loop.
fn fill_log_tables(weights: &[f64], variances: &[f64], bias: &mut [f64], scale: &mut [f64]) {
    for j in 0..weights.len() {
        let v = variances[j].max(1e-300);
        bias[j] = weights[j].max(1e-300).ln() - 0.5 * (LOG_2PI + v.ln());
        scale[j] = -0.5 / v;
    }
}

/// The per-value kernel: weighted log-densities `ln πⱼ + ln N(x | μⱼ, σⱼ²)` of `x`
/// under every component, written into `row`.
#[inline]
fn weighted_log_density_row(x: f64, means: &[f64], bias: &[f64], scale: &[f64], row: &mut [f64]) {
    for j in 0..row.len() {
        let d = x - means[j];
        row[j] = bias[j] + scale[j] * (d * d);
    }
}

/// Normalise one log-density row into responsibilities in place, falling back to the
/// mixture weights for degenerate rows (±inf / NaN queries) like the legacy per-value
/// path did.
///
/// The shifted exponentials `exp(xⱼ − max)` computed for the log-sum-exp are kept and
/// divided by their sum instead of being re-exponentiated against the normaliser —
/// half the `exp` calls of the textbook two-pass form. The log-normaliser itself is
/// never formed: with a finite max every shifted exponential lies in `[0, 1]` and the
/// max contributes exactly 1, so the sum lies in `[1, k]` unless it is NaN, and testing
/// it for NaN takes the same branch `max + ln(sum)` being finite would, one `ln` cheaper.
#[inline]
fn normalize_row(row: &mut [f64], weights: &[f64]) {
    let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        row.copy_from_slice(weights);
        return;
    }
    let mut sum = 0.0;
    for r in row.iter_mut() {
        let e = (*r - m).exp();
        *r = e;
        sum += e;
    }
    if sum.is_nan() {
        row.copy_from_slice(weights);
    } else {
        let inv = 1.0 / sum;
        for r in row.iter_mut() {
            *r *= inv;
        }
    }
}

/// The number of distinct numbers in `numbers` (sorted ascending, NaN-free; `-0.0` and
/// `0.0` count as one) when it is at most `limit`, else `None`. Stops counting as soon
/// as the count passes `limit`, so a continuous column pays for about `limit`
/// comparisons, not one per value.
fn distinct_count_at_most(numbers: &[f64], limit: usize) -> Option<usize> {
    let mut d = usize::from(!numbers.is_empty());
    for pair in numbers.windows(2) {
        if pair[0] != pair[1] {
            d += 1;
            if d > limit {
                return None;
            }
        }
    }
    (d <= limit).then_some(d)
}

/// Reusable buffers for one EM run, handed to restart workers by
/// [`gem_parallel::par_map_with_scratch`] so back-to-back restarts on the same thread
/// reuse one allocation set. Every buffer is fully overwritten before it is read in
/// each iteration, so reuse cannot leak state between restarts and the serial and
/// parallel schedules stay bit-identical.
#[derive(Debug, Default, Clone)]
struct EmScratch {
    /// Flat n × k responsibility matrix.
    resp: Vec<f64>,
    /// Hoisted per-component log tables (k wide each).
    bias: Vec<f64>,
    scale: Vec<f64>,
    /// M-step accumulators (k wide each).
    nk: Vec<f64>,
    mean_acc: Vec<f64>,
    var_acc: Vec<f64>,
}

impl EmScratch {
    fn reserve(&mut self, n: usize, k: usize) {
        self.resp.resize(n * k, 0.0);
        for buf in [
            &mut self.bias,
            &mut self.scale,
            &mut self.nk,
            &mut self.mean_acc,
            &mut self.var_acc,
        ] {
            buf.resize(k, 0.0);
        }
    }
}

/// Fused E-step + first M-step pass: one row-major sweep over the flat responsibility
/// matrix computes every value's weighted log-densities, normalises them into
/// responsibilities in place, and folds the M-step's `nk`/mean accumulation into the
/// same pass (the accumulation order over values is identical to the legacy
/// column-major pass, so the accumulators are bit-identical given equal
/// responsibilities). Returns the total log-likelihood.
fn fused_estep_pass(
    data: &[f64],
    means: &[f64],
    bias: &[f64],
    scale: &[f64],
    resp: &mut [f64],
    nk: &mut [f64],
    mean_acc: &mut [f64],
) -> f64 {
    let k = means.len();
    nk.fill(0.0);
    mean_acc.fill(0.0);
    let mut ll = 0.0;
    for (i, &x) in data.iter().enumerate() {
        let row = &mut resp[i * k..(i + 1) * k];
        weighted_log_density_row(x, means, bias, scale, row);
        // Shifted-exponential normalisation (see `normalize_row`): one `exp` per cell,
        // with the responsibilities recovered by a single reciprocal multiply.
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for r in row.iter_mut() {
            let e = (*r - m).exp();
            *r = e;
            sum += e;
        }
        ll += m + sum.ln();
        let inv = 1.0 / sum;
        for (j, r) in row.iter_mut().enumerate() {
            let g = *r * inv;
            *r = g;
            nk[j] += g;
            mean_acc[j] += g * x;
        }
    }
    ll
}

/// Second M-step pass: row-major variance accumulation against the updated means.
/// Unlike the legacy per-component column-major sweep (stride-k loads, one cache line
/// per element), this streams the responsibility matrix once.
fn mstep_variance_pass(data: &[f64], resp: &[f64], means: &[f64], var_acc: &mut [f64]) {
    let k = means.len();
    var_acc.fill(0.0);
    for (i, &x) in data.iter().enumerate() {
        let row = &resp[i * k..(i + 1) * k];
        for j in 0..k {
            let d = x - means[j];
            var_acc[j] += row[j] * d * d;
        }
    }
}

/// One full fused EM iteration: hoist the log tables, run the fused E-step/accumulation
/// pass, update the parameters (re-seeding dead components deterministically), run the
/// variance pass, and renormalise the weights. Returns the iteration's total
/// log-likelihood.
#[allow(clippy::too_many_arguments)]
fn em_iteration(
    data: &[f64],
    iter: usize,
    data_var: f64,
    var_floor: f64,
    weights: &mut [f64],
    means: &mut [f64],
    variances: &mut [f64],
    scratch: &mut EmScratch,
) -> f64 {
    let n = data.len();
    let k = means.len();
    scratch.reserve(n, k);
    let EmScratch {
        resp,
        bias,
        scale,
        nk,
        mean_acc,
        var_acc,
    } = scratch;

    fill_log_tables(weights, variances, bias, scale);
    let ll = fused_estep_pass(data, means, bias, scale, resp, nk, mean_acc);

    // Parameter updates from the accumulators; dead components are re-seeded at a
    // deterministic data point with the global variance.
    for j in 0..k {
        if nk[j] < 1e-12 {
            let idx = (iter * 7 + j * 13) % n;
            means[j] = data[idx];
            variances[j] = data_var.max(var_floor);
            weights[j] = 1e-6;
        } else {
            means[j] = mean_acc[j] / nk[j];
            weights[j] = nk[j] / n as f64;
        }
    }
    // The variance pass runs over every component (branch-free inner loop); dead
    // components' accumulators are simply not used below.
    mstep_variance_pass(data, resp, means, var_acc);
    for j in 0..k {
        if nk[j] >= 1e-12 {
            variances[j] = (var_acc[j] / nk[j]).max(var_floor);
        }
    }
    // Renormalise the weights (dead-component handling can perturb the simplex).
    let wsum: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= wsum;
    }
    ll
}

/// One full EM run from a single initialisation, working in the caller-provided
/// scratch buffers (see [`EmScratch`]).
fn run_em(
    data: &[f64],
    k: usize,
    config: &GmmConfig,
    init: InitMethod,
    rng: &mut StdRng,
    scratch: &mut EmScratch,
) -> Result<UnivariateGmm, GmmError> {
    let n = data.len();
    let data_mean = data.iter().sum::<f64>() / n as f64;
    let data_var = data
        .iter()
        .map(|x| (x - data_mean) * (x - data_mean))
        .sum::<f64>()
        / n as f64;
    // Variance floor: relative to the data variance with an absolute epsilon for constant
    // columns.
    let var_floor = (config.covariance_floor * data_var).max(1e-9);

    let mut means = initial_means(data, k, init, rng);
    let mut variances = vec![data_var.max(var_floor); k];
    let mut weights = vec![1.0 / k as f64; k];

    let mut prev_avg_ll = f64::NEG_INFINITY;
    let mut total_ll = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let ll = em_iteration(
            data,
            iter,
            data_var,
            var_floor,
            &mut weights,
            &mut means,
            &mut variances,
            scratch,
        );
        if !ll.is_finite() {
            return Err(GmmError::NumericalFailure(format!(
                "log-likelihood became non-finite at iteration {iterations}"
            )));
        }
        total_ll = ll;

        // Convergence check on the change in average log-likelihood (the paper's 1e-3
        // threshold refers to this quantity).
        let avg_ll = ll / n as f64;
        if (avg_ll - prev_avg_ll).abs() < config.tolerance {
            converged = true;
            break;
        }
        prev_avg_ll = avg_ll;
    }

    Ok(UnivariateGmm {
        weights,
        means,
        variances,
        log_likelihood: total_ll,
        n_iterations: iterations,
        converged,
        n_samples: n,
    })
}

/// Benchmark-only entry points into the fused EM kernels, consumed by `gem-bench`'s
/// `fit_kernels` micro-benchmark. Hidden because the kernel shapes are an
/// implementation detail, not a stable API.
#[doc(hidden)]
pub mod bench_kernels {
    use super::*;

    /// Opaque reusable EM scratch for the benchmark loops.
    #[derive(Debug, Default)]
    pub struct BenchScratch(EmScratch);

    /// The fused E-step + nk/mean-accumulation pass of `model`'s parameters over
    /// `data`. Returns the total log-likelihood (a black-box consumable).
    pub fn estep_pass(model: &UnivariateGmm, data: &[f64], scratch: &mut BenchScratch) -> f64 {
        let k = model.n_components();
        scratch.0.reserve(data.len(), k);
        let EmScratch {
            resp,
            bias,
            scale,
            nk,
            mean_acc,
            ..
        } = &mut scratch.0;
        fill_log_tables(&model.weights, &model.variances, bias, scale);
        fused_estep_pass(data, &model.means, bias, scale, resp, nk, mean_acc)
    }

    /// The row-major variance (M-step) pass over the responsibility matrix left
    /// behind by [`estep_pass`], which must have run first on the same scratch.
    /// Returns the accumulators' sum (a black-box consumable).
    pub fn mstep_pass(model: &UnivariateGmm, data: &[f64], scratch: &mut BenchScratch) -> f64 {
        let EmScratch { resp, var_acc, .. } = &mut scratch.0;
        mstep_variance_pass(data, resp, &model.means, var_acc);
        var_acc.iter().sum()
    }

    /// One full fused EM iteration over `data`, updating the caller's parameter
    /// vectors in place. Returns the iteration's total log-likelihood.
    #[allow(clippy::too_many_arguments)]
    pub fn fused_iteration(
        data: &[f64],
        weights: &mut [f64],
        means: &mut [f64],
        variances: &mut [f64],
        data_var: f64,
        var_floor: f64,
        scratch: &mut BenchScratch,
    ) -> f64 {
        em_iteration(
            data,
            0,
            data_var,
            var_floor,
            weights,
            means,
            variances,
            &mut scratch.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_data() -> Vec<f64> {
        // Two well-separated clumps with small spread.
        let mut data: Vec<f64> = (0..200).map(|i| (i % 10) as f64 * 0.1).collect();
        data.extend((0..200).map(|i| 100.0 + (i % 10) as f64 * 0.1));
        data
    }

    fn small_config(k: usize) -> GmmConfig {
        GmmConfig::with_components(k).restarts(3).with_seed(7)
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            UnivariateGmm::fit(&[], &small_config(2)).unwrap_err(),
            GmmError::EmptyData
        );
        let mut cfg = small_config(0);
        cfg.n_components = 0;
        assert!(matches!(
            UnivariateGmm::fit(&[1.0], &cfg),
            Err(GmmError::InvalidConfig(_))
        ));
        let cfg = small_config(2).with_tolerance(0.0);
        assert!(matches!(
            UnivariateGmm::fit(&[1.0, 2.0], &cfg),
            Err(GmmError::InvalidConfig(_))
        ));
        let cfg = small_config(2).with_max_iterations(0);
        assert!(matches!(
            UnivariateGmm::fit(&[1.0, 2.0], &cfg),
            Err(GmmError::InvalidConfig(_))
        ));
        assert!(matches!(
            UnivariateGmm::fit(&[1.0, f64::NAN], &small_config(2)),
            Err(GmmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn recovers_two_separated_modes() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(2)).unwrap();
        let mut means = gmm.means().to_vec();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.45).abs() < 1.0, "low mean {means:?}");
        assert!((means[1] - 100.45).abs() < 1.0, "high mean {means:?}");
        // Balanced weights.
        for &w in gmm.weights() {
            assert!((w - 0.5).abs() < 0.1);
        }
    }

    #[test]
    fn weights_sum_to_one_and_variances_positive() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(5)).unwrap();
        let wsum: f64 = gmm.weights().iter().sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        assert!(gmm.variances().iter().all(|&v| v > 0.0));
        assert_eq!(gmm.n_components(), 5);
    }

    #[test]
    fn responsibilities_sum_to_one_and_pick_right_mode() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(2)).unwrap();
        for x in [0.3, 50.0, 100.2] {
            let r = gmm.responsibilities(x);
            assert_eq!(r.len(), 2);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // A point near the low cluster should be assigned to the component with the low mean.
        let low_comp = gmm
            .means()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(gmm.predict_component(0.2), low_comp);
        assert_ne!(gmm.predict_component(100.3), low_comp);
    }

    #[test]
    fn mean_responsibilities_is_a_probability_vector() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(4)).unwrap();
        let column = [0.1, 0.2, 0.3, 0.15];
        let sig = gmm.mean_responsibilities(&column);
        assert_eq!(sig.len(), 4);
        assert!((sig.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(sig.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Empty column falls back to the mixture weights.
        assert_eq!(gmm.mean_responsibilities(&[]), gmm.weights().to_vec());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(2)).unwrap();
        let mut integral = 0.0;
        let mut x = -20.0;
        let dx = 0.05;
        while x < 120.0 {
            integral += gmm.pdf(x) * dx;
            x += dx;
        }
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn log_pdf_matches_pdf() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        for x in [0.0, 1.0, 99.5, 100.7] {
            assert!((gmm.log_pdf(x).exp() - gmm.pdf(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_is_handled() {
        let data = vec![5.0; 100];
        let gmm = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        assert!(gmm.weights().iter().all(|w| w.is_finite()));
        assert!(gmm.variances().iter().all(|&v| v > 0.0));
        let r = gmm.responsibilities(5.0);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_points_than_components_caps_component_count() {
        let data = [1.0, 2.0, 3.0];
        let gmm = UnivariateGmm::fit(&data, &small_config(50)).unwrap();
        assert!(gmm.n_components() <= 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_cluster_data();
        let a = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        let b = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_restarts_never_hurt_log_likelihood() {
        let data = two_cluster_data();
        let one = UnivariateGmm::fit(&data, &small_config(3).restarts(1)).unwrap();
        let many = UnivariateGmm::fit(&data, &small_config(3).restarts(8)).unwrap();
        assert!(many.log_likelihood() >= one.log_likelihood() - 1e-6);
    }

    #[test]
    fn responsibility_matrix_is_flat_row_major() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(4)).unwrap();
        let values = [0.0, 50.0, 100.0];
        let m = gmm.responsibility_matrix(&values);
        assert_eq!(m.len(), values.len() * 4);
        for (i, &x) in values.iter().enumerate() {
            let row = &m[i * 4..(i + 1) * 4];
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Each flat row is bit-identical to the per-value query.
            assert_eq!(row, gmm.responsibilities(x).as_slice());
        }
    }

    #[test]
    fn into_variants_match_allocating_queries_bitwise() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        let mut row = vec![0.0; 3];
        for x in [0.0, 0.35, 50.0, 100.2, f64::INFINITY] {
            gmm.responsibilities_into(x, &mut row);
            assert_eq!(row, gmm.responsibilities(x), "x = {x}");
            gmm.log_pdf_into(x, &mut row);
            assert_eq!(log_sum_exp(&row), gmm.log_pdf(x), "x = {x}");
        }
        // Degenerate queries fall back to the mixture weights, like the legacy path.
        gmm.responsibilities_into(f64::NAN, &mut row);
        assert_eq!(row, gmm.weights().to_vec());
    }

    #[test]
    #[should_panic(expected = "buffer width")]
    fn responsibilities_into_rejects_wrong_width() {
        let gmm = UnivariateGmm::fit(&two_cluster_data(), &small_config(2)).unwrap();
        let mut buf = vec![0.0; 5];
        gmm.responsibilities_into(1.0, &mut buf);
    }

    #[test]
    fn serial_and_parallel_restart_fits_are_bit_identical() {
        // Replay `fit`'s restart schedule strictly sequentially, with a *fresh* scratch
        // per restart, and check the winner matches the parallel fan-out (which shares
        // one reused scratch per worker thread) bit for bit. This pins both halves of
        // the determinism contract: thread schedule and scratch reuse are invisible.
        let data = two_cluster_data();
        let config = small_config(3).restarts(6);
        let parallel_fit = UnivariateGmm::fit(&data, &config).unwrap();

        let k = config.n_components.min(data.len()).max(1);
        let mut serial_best: Option<UnivariateGmm> = None;
        for restart in 0..config.n_restarts as u64 {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart));
            let mut scratch = EmScratch::default();
            let fitted = run_em(&data, k, &config, config.init, &mut rng, &mut scratch).unwrap();
            let better = match &serial_best {
                None => true,
                Some(b) => fitted.log_likelihood > b.log_likelihood,
            };
            if better {
                serial_best = Some(fitted);
            }
        }
        let serial_fit = serial_best.unwrap();

        // Bit-exact equality of every parameter, not just PartialEq.
        assert_eq!(serial_fit, parallel_fit);
        for (x, y) in serial_fit
            .weights()
            .iter()
            .chain(serial_fit.means())
            .chain(serial_fit.variances())
            .zip(
                parallel_fit
                    .weights()
                    .iter()
                    .chain(parallel_fit.means())
                    .chain(parallel_fit.variances()),
            )
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn score_is_sum_of_log_pdfs_and_bic_aic_are_finite() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(2)).unwrap();
        let values = [0.1, 0.2, 100.1];
        let direct: f64 = values.iter().map(|&x| gmm.log_pdf(x)).sum();
        assert!((gmm.score(&values) - direct).abs() < 1e-9);
        assert!(gmm.bic().is_finite());
        assert!(gmm.aic().is_finite());
        assert_eq!(gmm.n_parameters(), 5);
    }

    #[test]
    fn converges_on_simple_data() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(2)).unwrap();
        assert!(gmm.converged());
        assert!(gmm.n_iterations() <= 200);
        assert_eq!(gmm.n_samples(), data.len());
    }

    #[test]
    fn mean_responsibilities_into_matches_allocating_variant() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(4)).unwrap();
        let column = [0.1, 50.0, 100.3, 0.2];
        let mut buf = vec![-1.0; 4];
        gmm.mean_responsibilities_into(&column, &mut buf);
        assert_eq!(buf, gmm.mean_responsibilities(&column));
        gmm.mean_responsibilities_into(&[], &mut buf);
        assert_eq!(buf, gmm.weights().to_vec());
    }

    #[test]
    #[should_panic(expected = "buffer width")]
    fn mean_responsibilities_into_rejects_wrong_width() {
        let gmm = UnivariateGmm::fit(&two_cluster_data(), &small_config(2)).unwrap();
        let mut buf = vec![0.0; 3];
        gmm.mean_responsibilities_into(&[1.0], &mut buf);
    }

    /// The per-value signature kernel as it stood before the distinct-value path, copied
    /// whole: its row normaliser forms `max + ln(sum)` and falls back to the weights
    /// unless that is finite. Every signature entry point is held to it bit for bit.
    fn reference_signature(gmm: &UnivariateGmm, values: &[f64]) -> Vec<f64> {
        let k = gmm.n_components();
        if values.is_empty() {
            return gmm.weights.clone();
        }
        let (mut bias, mut scale) = (vec![0.0; k], vec![0.0; k]);
        for j in 0..k {
            let v = gmm.variances[j].max(1e-300);
            bias[j] = gmm.weights[j].max(1e-300).ln() - 0.5 * (LOG_2PI + v.ln());
            scale[j] = -0.5 / v;
        }
        let (mut out, mut row) = (vec![0.0; k], vec![0.0; k]);
        for &x in values {
            for j in 0..k {
                let d = x - gmm.means[j];
                row[j] = bias[j] + scale[j] * (d * d);
            }
            let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if m.is_finite() {
                let mut sum = 0.0;
                for r in row.iter_mut() {
                    let e = (*r - m).exp();
                    *r = e;
                    sum += e;
                }
                if (m + sum.ln()).is_finite() {
                    let inv = 1.0 / sum;
                    for r in row.iter_mut() {
                        *r *= inv;
                    }
                } else {
                    row.copy_from_slice(&gmm.weights);
                }
            } else {
                row.copy_from_slice(&gmm.weights);
            }
            for (a, &r) in out.iter_mut().zip(&row) {
                *a += r;
            }
        }
        let n = values.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
        out
    }

    /// `values` sorted the way `gem_numeric::stats::gem_feature_row` leaves its buffer.
    fn sorted_copy(values: &[f64]) -> Vec<f64> {
        let mut sorted = Vec::new();
        if !values.is_empty() {
            gem_numeric::stats::gem_feature_row(values, &mut sorted).unwrap();
        }
        sorted
    }

    /// A hand-built k = 4 mixture with component means at `0.0`, `-0.0` and away from
    /// zero, so signed zeros meet μ = ±0 as well as μ ≠ 0.
    fn signed_zero_gmm() -> UnivariateGmm {
        UnivariateGmm {
            weights: vec![0.3, 0.2, 0.4, 0.1],
            means: vec![0.0, -0.0, 2.5, -4.0],
            variances: vec![1.0, 0.5, 2.0, 3.0],
            log_likelihood: 0.0,
            n_iterations: 1,
            converged: true,
            n_samples: 10,
        }
    }

    /// Edge-case columns for a k = 4 mixture, labelled for failure messages. `d` below
    /// counts distinct numbers; NaN is not one.
    fn edge_columns() -> Vec<(&'static str, Vec<f64>)> {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        vec![
            ("NaN, d·k = n", vec![1.0, nan, 2.0, 1.0, nan, 2.0, 1.0, 1.0]),
            ("NaN, d·k > n", vec![1.0, nan, 2.0, 3.0, nan]),
            ("all NaN", vec![nan, nan, nan]),
            ("±inf, d·k = n", [inf, -inf, 1.0].repeat(4)),
            ("±inf, d·k > n", vec![inf, -inf, 1.0, 0.5]),
            (
                "-0.0 first",
                vec![-0.0, 0.0, 0.0, -0.0, 2.5, 2.5, -0.0, 0.0],
            ),
            ("0.0 first", vec![0.0, -0.0, -0.0, 0.0, 2.5, 0.0, -0.0, 2.5]),
            ("-0.0/0.0 only", vec![0.0, -0.0, -0.0, 0.0]),
            ("all equal", vec![3.0; 8]),
            ("single value", vec![3.0]),
            ("single NaN", vec![nan]),
            ("empty", vec![]),
            ("d·k = n", (0..20).map(|i| (i % 5) as f64 * 1.5).collect()),
            (
                "d·k = n + 1",
                (0..19).map(|i| (i % 5) as f64 * 1.5).collect(),
            ),
            (
                "continuous",
                (0..40).map(|i| (i as f64 * 0.37).sin() * 6.0).collect(),
            ),
        ]
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn signature_entry_points_match_the_per_value_reference_bit_for_bit() {
        let fitted = UnivariateGmm::fit(&two_cluster_data(), &small_config(4)).unwrap();
        for gmm in [signed_zero_gmm(), fitted] {
            // One scratch carried across every column, as a fan-out worker does.
            let mut reused = Vec::new();
            for (label, column) in edge_columns() {
                let want = reference_signature(&gmm, &column);
                assert_bits_eq(&gmm.mean_responsibilities(&column), &want, label);
                let sorted = sorted_copy(&column);
                let mut out = vec![-1.0; 4];
                gmm.mean_responsibilities_sorted(&column, &sorted, &mut out, &mut Vec::new());
                assert_bits_eq(&out, &want, label);
                gmm.mean_responsibilities_sorted(&column, &sorted, &mut out, &mut reused);
                assert_bits_eq(&out, &want, label);
            }
        }
    }

    #[test]
    fn low_cardinality_columns_match_the_reference_bit_for_bit() {
        use rand::Rng;
        let gmm = UnivariateGmm::fit(&two_cluster_data(), &small_config(6)).unwrap();
        let k = gmm.n_components();
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = Vec::new();
        let mut out = vec![0.0; k];
        let mut table_columns = 0;
        for _ in 0..300 {
            // Draw up to about 2n / k distinct values, so columns land on both sides of
            // the gate, on a grid of random offset and step.
            let len = rng.gen_range(1..400usize);
            let d = rng.gen_range(1..2 * (len / k) + 3);
            let base = rng.gen_range(-5.0..105.0);
            let step = [1.0, 0.5, 0.1, 0.01, 1e-3][rng.gen_range(0..5usize)];
            let column: Vec<f64> = (0..len)
                .map(|_| base + rng.gen_range(0..d) as f64 * step)
                .collect();
            let sorted = sorted_copy(&column);
            gmm.mean_responsibilities_sorted(&column, &sorted, &mut out, &mut scratch);
            assert_bits_eq(&out, &reference_signature(&gmm, &column), "random column");
            table_columns += usize::from(scratch.len() != 3 * k);
        }
        // Both kernels ran.
        assert!(
            (60..240).contains(&table_columns),
            "{table_columns} table columns"
        );
    }

    #[test]
    fn distinct_table_is_sized_only_when_d_times_k_is_at_most_n() {
        let gmm = signed_zero_gmm();
        let k = gmm.n_components();
        let mut out = vec![0.0; k];
        // d = 5 distinct numbers in 20 values: d·k = n, so one row per distinct number
        // follows the two log tables and the d keys.
        let at_gate: Vec<f64> = (0..20).map(|i| (i % 5) as f64).collect();
        let mut scratch = Vec::new();
        gmm.mean_responsibilities_sorted(&at_gate, &sorted_copy(&at_gate), &mut out, &mut scratch);
        assert_eq!(scratch.len(), 2 * k + 5 * (1 + k));
        // One value fewer: d·k = n + 1, so the per-value kernel runs, and a fresh
        // scratch stays at its size.
        let past_gate = &at_gate[..19];
        let mut fresh = Vec::new();
        gmm.mean_responsibilities_sorted(past_gate, &sorted_copy(past_gate), &mut out, &mut fresh);
        assert_eq!(fresh.len(), 3 * k);
        assert!(fresh.capacity() < 2 * k + 5 * (1 + k));
        // A reused scratch shrinks back to the per-value size too.
        gmm.mean_responsibilities_sorted(
            past_gate,
            &sorted_copy(past_gate),
            &mut out,
            &mut scratch,
        );
        assert_eq!(scratch.len(), 3 * k);
    }

    #[test]
    fn empty_column_signature_is_the_prior_without_reading_the_sorted_copy() {
        let gmm = signed_zero_gmm();
        let mut out = vec![0.0; 4];
        let mut scratch = Vec::new();
        // A stale buffer from an earlier column, of the wrong length for this one.
        gmm.mean_responsibilities_sorted(&[], &[7.0, 8.0], &mut out, &mut scratch);
        assert_bits_eq(&out, gmm.weights(), "empty");
        assert!(scratch.is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted copy")]
    fn mean_responsibilities_sorted_rejects_a_sorted_copy_of_another_length() {
        let gmm = signed_zero_gmm();
        gmm.mean_responsibilities_sorted(&[1.0, 2.0], &[1.0], &mut [0.0; 4], &mut Vec::new());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let data = two_cluster_data();
        let gmm = UnivariateGmm::fit(&data, &small_config(3)).unwrap();
        for text in [
            gmm.to_json().to_compact_string(),
            gmm.to_json().to_pretty_string(),
        ] {
            let restored = UnivariateGmm::from_json(&Json::parse(&text).unwrap()).unwrap();
            // Exact equality: every f64 survives the round trip bit-for-bit, so a
            // rehydrated model produces identical signatures.
            assert_eq!(restored, gmm);
            assert_eq!(
                restored.mean_responsibilities(&[0.3, 99.8]),
                gmm.mean_responsibilities(&[0.3, 99.8])
            );
        }
    }

    #[test]
    fn json_rejects_malformed_models() {
        let gmm = UnivariateGmm::fit(&two_cluster_data(), &small_config(2)).unwrap();
        let mut pairs = match gmm.to_json() {
            Json::Object(pairs) => pairs,
            other => panic!("expected object, got {other:?}"),
        };
        pairs.retain(|(k, _)| k != "means");
        assert!(UnivariateGmm::from_json(&Json::Object(pairs)).is_err());
        let model = |weights: &[f64], means: &[f64], variances: &[f64]| {
            object(vec![
                ("weights", number_array(weights)),
                ("means", number_array(means)),
                ("variances", number_array(variances)),
                ("log_likelihood", number(0.0)),
                ("n_iterations", number(1.0)),
                ("converged", Json::Bool(true)),
                ("n_samples", number(10.0)),
            ])
        };
        // Unbalanced array lengths.
        assert!(UnivariateGmm::from_json(&model(&[1.0], &[0.0, 1.0], &[1.0])).is_err());
        // Semantically invalid parameters must fail at load time.
        assert!(UnivariateGmm::from_json(&model(&[-0.5, 1.5], &[0.0, 1.0], &[1.0, 1.0])).is_err());
        assert!(
            UnivariateGmm::from_json(&model(&[0.5, 0.5], &[f64::NAN, 1.0], &[1.0, 1.0])).is_err()
        );
        assert!(UnivariateGmm::from_json(&model(&[0.5, 0.5], &[0.0, 1.0], &[-1.0, 1.0])).is_err());
        // A wrong-typed log_likelihood is corruption, not a silent -inf.
        let mut pairs = match model(&[0.5, 0.5], &[0.0, 1.0], &[1.0, 1.0]) {
            Json::Object(pairs) => pairs,
            other => panic!("expected object, got {other:?}"),
        };
        for (k, v) in pairs.iter_mut() {
            if k == "log_likelihood" {
                *v = Json::String("0.5".into());
            }
        }
        assert!(UnivariateGmm::from_json(&Json::Object(pairs.clone())).is_err());
        // `null` stays valid: it is how a non-finite log-likelihood serialises.
        for (k, v) in pairs.iter_mut() {
            if k == "log_likelihood" {
                *v = Json::Null;
            }
        }
        let rehydrated = UnivariateGmm::from_json(&Json::Object(pairs)).unwrap();
        assert_eq!(rehydrated.log_likelihood(), f64::NEG_INFINITY);
    }

    #[test]
    fn error_display_messages() {
        assert!(GmmError::EmptyData.to_string().contains("empty"));
        assert!(GmmError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        assert!(GmmError::NumericalFailure("y".into())
            .to_string()
            .contains("y"));
    }
}
