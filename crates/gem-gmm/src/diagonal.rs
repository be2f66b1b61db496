//! Diagonal-covariance multivariate Gaussian mixture.
//!
//! Gem's published formulation stacks all values into a one-dimensional array, but a
//! stacked-values vs per-column GMM ablation and the Squashing_GMM baseline's prototype
//! induction benefit from a multivariate mixture over small feature vectors. The diagonal restriction keeps the M-step closed-form and cheap while remaining
//! expressive enough for those uses.

use crate::config::{GmmConfig, InitMethod};
use crate::init::initial_mean_vectors;
use crate::univariate::GmmError;
use gem_numeric::vector::log_sum_exp;
use rand::rngs::StdRng;
use rand::SeedableRng;

const LOG_2PI: f64 = 1.837_877_066_409_345_5;

/// A fitted diagonal-covariance Gaussian mixture over `d`-dimensional points.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalGmm {
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    log_likelihood: f64,
    converged: bool,
    n_samples: usize,
}

impl DiagonalGmm {
    /// Fit a diagonal GMM to the rows of `data`.
    ///
    /// # Errors
    /// Returns [`GmmError::EmptyData`] when there are no rows, and
    /// [`GmmError::InvalidConfig`] for ragged rows, empty rows, non-finite values or an
    /// invalid configuration.
    pub fn fit(data: &[Vec<f64>], config: &GmmConfig) -> Result<Self, GmmError> {
        if data.is_empty() {
            return Err(GmmError::EmptyData);
        }
        let dim = data[0].len();
        if dim == 0 {
            return Err(GmmError::InvalidConfig(
                "points must have at least one dimension".into(),
            ));
        }
        if data.iter().any(|p| p.len() != dim) {
            return Err(GmmError::InvalidConfig(
                "all points must share a dimension".into(),
            ));
        }
        if data.iter().flatten().any(|x| !x.is_finite()) {
            return Err(GmmError::InvalidConfig("data must be finite".into()));
        }
        if config.n_components == 0 {
            return Err(GmmError::InvalidConfig(
                "n_components must be positive".into(),
            ));
        }
        if config.tolerance <= 0.0 {
            return Err(GmmError::InvalidConfig("tolerance must be positive".into()));
        }

        let k = config.n_components.min(data.len()).max(1);
        // As in `UnivariateGmm::fit`: independent restarts fan out across threads, and the
        // strictly-greater scan in restart order keeps winner selection deterministic.
        // Worker threads reuse one scratch buffer set across their restarts; every buffer
        // is fully rewritten per iteration, so reuse cannot change the result.
        let n_restarts = config.n_restarts.max(1);
        let restarts: Vec<u64> = (0..n_restarts as u64).collect();
        let fits = gem_parallel::par_map_with_scratch(
            &restarts,
            n_restarts > 1,
            DiagEmScratch::default,
            |&restart, scratch| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(restart));
                run_em(data, dim, k, config, config.init, &mut rng, scratch)
            },
        );
        let mut best: Option<DiagonalGmm> = None;
        for model in fits {
            let model = model?;
            let better = best
                .as_ref()
                .map(|b| model.log_likelihood > b.log_likelihood)
                .unwrap_or(true);
            if better {
                best = Some(model);
            }
        }
        best.ok_or_else(|| GmmError::NumericalFailure("no EM restart produced a model".into()))
    }

    /// Mixture weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component mean vectors.
    pub fn means(&self) -> &[Vec<f64>] {
        &self.means
    }

    /// Component per-dimension variances.
    pub fn variances(&self) -> &[Vec<f64>] {
        &self.variances
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.means.len()
    }

    /// Final training log-likelihood.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Whether EM converged before the iteration cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Log density of a point under component `j`.
    fn component_log_pdf(&self, x: &[f64], j: usize) -> f64 {
        let mean = &self.means[j];
        let var = &self.variances[j];
        let mut acc = 0.0;
        for ((&xi, &mi), &vi) in x.iter().zip(mean.iter()).zip(var.iter()) {
            let v = vi.max(1e-300);
            let d = xi - mi;
            acc += -0.5 * (LOG_2PI + v.ln() + d * d / v);
        }
        acc
    }

    /// Mixture log-density of a point.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        let logs: Vec<f64> = (0..self.n_components())
            .map(|j| self.weights[j].max(1e-300).ln() + self.component_log_pdf(x, j))
            .collect();
        log_sum_exp(&logs)
    }

    /// Responsibilities of each component for a point (sums to 1).
    pub fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        let logs: Vec<f64> = (0..self.n_components())
            .map(|j| self.weights[j].max(1e-300).ln() + self.component_log_pdf(x, j))
            .collect();
        let norm = log_sum_exp(&logs);
        if !norm.is_finite() {
            return self.weights.clone();
        }
        logs.iter().map(|&l| (l - norm).exp()).collect()
    }

    /// Hard assignment of a point to its most responsible component.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.responsibilities(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// BIC of the fitted model on its training data (lower is better).
    pub fn bic(&self) -> f64 {
        let d = self.means.first().map(|m| m.len()).unwrap_or(0) as f64;
        let k = self.n_components() as f64;
        let params = k - 1.0 + k * d * 2.0;
        params * (self.n_samples.max(1) as f64).ln() - 2.0 * self.log_likelihood
    }
}

/// Reusable buffers for one diagonal EM run, the multivariate sibling of the
/// univariate `EmScratch`: the per-component tables and accumulators are kept flat
/// (`k × dim`, row-major by component) so the fused passes stream memory instead of
/// chasing nested `Vec`s. Every buffer is fully overwritten before it is read in each
/// iteration, so cross-restart reuse cannot leak state.
#[derive(Debug, Default, Clone)]
struct DiagEmScratch {
    /// Flat n × k responsibility matrix.
    resp: Vec<f64>,
    /// Per-component x-independent log-density part (k wide).
    bias: Vec<f64>,
    nk: Vec<f64>,
    /// Flat k × dim tables: −½/σ², component means, and the M-step accumulators.
    scale: Vec<f64>,
    means_flat: Vec<f64>,
    mean_acc: Vec<f64>,
    var_acc: Vec<f64>,
}

impl DiagEmScratch {
    fn reserve(&mut self, n: usize, k: usize, dim: usize) {
        self.resp.resize(n * k, 0.0);
        self.bias.resize(k, 0.0);
        self.nk.resize(k, 0.0);
        for buf in [
            &mut self.scale,
            &mut self.means_flat,
            &mut self.mean_acc,
            &mut self.var_acc,
        ] {
            buf.resize(k * dim, 0.0);
        }
    }
}

fn run_em(
    data: &[Vec<f64>],
    dim: usize,
    k: usize,
    config: &GmmConfig,
    init: InitMethod,
    rng: &mut StdRng,
    scratch: &mut DiagEmScratch,
) -> Result<DiagonalGmm, GmmError> {
    let n = data.len();
    // Global per-dimension variance for the variance floor.
    let mut global_mean = vec![0.0; dim];
    for p in data {
        for (g, &x) in global_mean.iter_mut().zip(p) {
            *g += x;
        }
    }
    for g in global_mean.iter_mut() {
        *g /= n as f64;
    }
    let mut global_var = vec![0.0; dim];
    for p in data {
        for ((g, &x), &m) in global_var.iter_mut().zip(p).zip(global_mean.iter()) {
            *g += (x - m) * (x - m);
        }
    }
    for g in global_var.iter_mut() {
        *g = (*g / n as f64).max(1e-9);
    }
    let floors: Vec<f64> = global_var
        .iter()
        .map(|&v| (config.covariance_floor * v).max(1e-9))
        .collect();

    let mut means = initial_mean_vectors(data, k, init, rng);
    let mut variances = vec![global_var.clone(); k];
    let mut weights = vec![1.0 / k as f64; k];

    let mut prev_avg = f64::NEG_INFINITY;
    let mut total_ll = f64::NEG_INFINITY;
    let mut converged = false;

    scratch.reserve(n, k, dim);
    let DiagEmScratch {
        resp,
        bias,
        nk,
        scale,
        means_flat,
        mean_acc,
        var_acc,
    } = scratch;

    for _ in 0..config.max_iterations {
        // Hoist the per-component tables out of the per-point loop: `bias[j]` carries
        // ln πⱼ plus the x-independent part of the log-density summed over dimensions,
        // `scale[j·dim + d] = −½/σ²ⱼd`, and the means are flattened so the kernel
        // streams three contiguous `dim`-wide rows per component.
        for j in 0..k {
            let mut b = weights[j].max(1e-300).ln();
            for d in 0..dim {
                let v = variances[j][d].max(1e-300);
                b += -0.5 * (LOG_2PI + v.ln());
                scale[j * dim + d] = -0.5 / v;
                means_flat[j * dim + d] = means[j][d];
            }
            bias[j] = b;
        }

        // Fused pass 1 (row-major): E-step log-densities + normalisation + the
        // M-step's nk/mean accumulation, one streaming sweep over `resp`.
        nk.fill(0.0);
        mean_acc.fill(0.0);
        let mut ll = 0.0;
        for (i, p) in data.iter().enumerate() {
            let row = &mut resp[i * k..(i + 1) * k];
            for (j, slot) in row.iter_mut().enumerate() {
                let m = &means_flat[j * dim..(j + 1) * dim];
                let s = &scale[j * dim..(j + 1) * dim];
                let mut acc = bias[j];
                for d in 0..dim {
                    let diff = p[d] - m[d];
                    acc += s[d] * (diff * diff);
                }
                *slot = acc;
            }
            // Shifted-exponential normalisation (one `exp` per cell; the
            // responsibilities are recovered with a reciprocal multiply, and the
            // log-normaliser matches `log_sum_exp` bit for bit).
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
                let ma = &mut mean_acc[j * dim..(j + 1) * dim];
                for (a, &x) in ma.iter_mut().zip(p.iter()) {
                    *a += g * x;
                }
            }
        }
        if !ll.is_finite() {
            return Err(GmmError::NumericalFailure(
                "non-finite log-likelihood".into(),
            ));
        }
        total_ll = ll;

        // Parameter updates from the accumulators; dead components are re-seeded.
        for j in 0..k {
            if nk[j] < 1e-12 {
                means[j] = data[j % n].clone();
                variances[j] = global_var.clone();
                weights[j] = 1e-6;
                for d in 0..dim {
                    means_flat[j * dim + d] = means[j][d];
                }
            } else {
                for d in 0..dim {
                    let m = mean_acc[j * dim + d] / nk[j];
                    means[j][d] = m;
                    means_flat[j * dim + d] = m;
                }
                weights[j] = nk[j] / n as f64;
            }
        }

        // Pass 2 (row-major): variance accumulation against the updated means. Dead
        // components' accumulators are computed but not used below.
        var_acc.fill(0.0);
        for (i, p) in data.iter().enumerate() {
            let row = &resp[i * k..(i + 1) * k];
            for (j, &r) in row.iter().enumerate() {
                let m = &means_flat[j * dim..(j + 1) * dim];
                let va = &mut var_acc[j * dim..(j + 1) * dim];
                for d in 0..dim {
                    let diff = p[d] - m[d];
                    va[d] += r * (diff * diff);
                }
            }
        }
        for j in 0..k {
            if nk[j] >= 1e-12 {
                for d in 0..dim {
                    variances[j][d] = (var_acc[j * dim + d] / nk[j]).max(floors[d]);
                }
            }
        }

        let wsum: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= wsum;
        }

        let avg = ll / n as f64;
        if (avg - prev_avg).abs() < config.tolerance {
            converged = true;
            break;
        }
        prev_avg = avg;
    }

    Ok(DiagonalGmm {
        weights,
        means,
        variances,
        log_likelihood: total_ll,
        converged,
        n_samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_data() -> Vec<Vec<f64>> {
        let mut data: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 * 0.1, (i % 7) as f64 * 0.1])
            .collect();
        data.extend(
            (0..100).map(|i| vec![10.0 + (i % 10) as f64 * 0.1, 10.0 + (i % 7) as f64 * 0.1]),
        );
        data
    }

    fn cfg(k: usize) -> GmmConfig {
        GmmConfig::with_components(k).restarts(2).with_seed(3)
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(
            DiagonalGmm::fit(&[], &cfg(2)).unwrap_err(),
            GmmError::EmptyData
        );
        assert!(DiagonalGmm::fit(&[vec![]], &cfg(2)).is_err());
        assert!(DiagonalGmm::fit(&[vec![1.0], vec![1.0, 2.0]], &cfg(2)).is_err());
        assert!(DiagonalGmm::fit(&[vec![f64::NAN]], &cfg(2)).is_err());
        let mut c = cfg(2);
        c.n_components = 0;
        assert!(DiagonalGmm::fit(&[vec![1.0]], &c).is_err());
    }

    #[test]
    fn recovers_two_blobs() {
        let data = two_blob_data();
        let gmm = DiagonalGmm::fit(&data, &cfg(2)).unwrap();
        assert_eq!(gmm.n_components(), 2);
        let mut first_dims: Vec<f64> = gmm.means().iter().map(|m| m[0]).collect();
        first_dims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(first_dims[0] < 2.0);
        assert!(first_dims[1] > 8.0);
    }

    #[test]
    fn responsibilities_sum_to_one_and_predict_separates_blobs() {
        let data = two_blob_data();
        let gmm = DiagonalGmm::fit(&data, &cfg(2)).unwrap();
        let r = gmm.responsibilities(&[0.2, 0.3]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let low = gmm.predict(&[0.2, 0.3]);
        let high = gmm.predict(&[10.2, 10.3]);
        assert_ne!(low, high);
    }

    #[test]
    fn weights_form_a_simplex() {
        let data = two_blob_data();
        let gmm = DiagonalGmm::fit(&data, &cfg(4)).unwrap();
        assert!((gmm.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(gmm.weights().iter().all(|&w| w >= 0.0));
        assert!(gmm.variances().iter().all(|v| v.iter().all(|&x| x > 0.0)));
    }

    #[test]
    fn log_pdf_is_finite_and_bic_computable() {
        let data = two_blob_data();
        let gmm = DiagonalGmm::fit(&data, &cfg(3)).unwrap();
        assert!(gmm.log_pdf(&[5.0, 5.0]).is_finite());
        assert!(gmm.bic().is_finite());
        assert!(gmm.log_likelihood().is_finite());
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let data = two_blob_data();
        let a = DiagonalGmm::fit(&data, &cfg(3)).unwrap();
        let b = DiagonalGmm::fit(&data, &cfg(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn converges_on_simple_data() {
        let data = two_blob_data();
        let gmm = DiagonalGmm::fit(&data, &cfg(2)).unwrap();
        assert!(gmm.converged());
    }
}
