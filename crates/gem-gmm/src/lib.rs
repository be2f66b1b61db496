//! # gem-gmm
//!
//! Gaussian Mixture Models fitted with the Expectation–Maximization algorithm, as used by
//! the Gem embedding method (§3.1 of the paper) and by the Squashing_GMM baseline.
//!
//! The crate provides:
//!
//! * [`UnivariateGmm`] — a mixture of one-dimensional Gaussians fitted to a stack of numeric
//!   values. This is the model Gem fits over *all* values of *all* columns (the paper treats
//!   the columns as one flat stack, §3.2) and then queries per value to build signatures.
//!   A signature needs one responsibility row per *distinct* value, so
//!   [`UnivariateGmm::mean_responsibilities_sorted`] evaluates a low-cardinality column's
//!   rows once per distinct number from the sorted copy the statistical features already
//!   make; EM keeps one `exp` per value and component.
//! * [`DiagonalGmm`] — a mixture of axis-aligned multivariate Gaussians, used for the
//!   per-column ablation variant and by tests that need a multi-dimensional mixture.
//! * [`GmmConfig`] — number of components, convergence tolerance (paper default `1e-3`),
//!   maximum iterations, number of EM restarts (paper default 10) and initialisation scheme.
//! * [`select_components_bic`] — Bayesian Information Criterion sweep used in §4.1.4 to
//!   choose the component count.
//!
//! All EM computations are carried out in log space with a numerically stable
//! log-sum-exp so that responsibilities stay finite even for far-outlying values.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod config;
mod diagonal;
mod init;
mod selection;
mod univariate;

pub use config::{GmmConfig, InitMethod};
pub use diagonal::DiagonalGmm;
pub use selection::{select_components_aic, select_components_bic, ComponentSelection};
#[doc(hidden)]
pub use univariate::bench_kernels;
pub use univariate::{GmmError, UnivariateGmm};
