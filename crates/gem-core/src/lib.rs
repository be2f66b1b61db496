//! # gem-core
//!
//! The Gem embedding method of the paper *"Gem: Gaussian Mixture Model Embeddings for
//! Numerical Feature Distributions"* (EDBT 2025), implemented end-to-end:
//!
//! 1. **Distributional embeddings** (§3.1–3.2): all numeric values of all columns are
//!    stacked into one array, a univariate GMM with `m` components is fitted with EM, and
//!    each column's *signature* is the mean responsibility vector of its values — the
//!    probability that the column's values were generated by each Gaussian component.
//!    A value's responsibilities depend on the value alone, so a transform evaluates the
//!    GMM once per distinct number of a low-cardinality column, bit-identically.
//! 2. **Statistical embeddings** (§3.2): unique count, mean, coefficient of variation,
//!    entropy, range and the 10th/90th percentiles, standardised across columns
//!    (Equation 7) and concatenated with the signature (Equation 8), then L1-normalised
//!    (Equation 9).
//! 3. **Contextual embeddings** (§3.3): header embeddings (SBERT in the paper, the
//!    deterministic [`gem_text::HashEmbedder`] here), L1-normalised (Equation 10).
//! 4. **Composition** (§4.2.2): concatenation (Equation 11/13), aggregation, or an
//!    autoencoder that compresses the concatenated vector into a latent space.
//!
//! The central entry point is [`GemEmbedder`]; [`FeatureSet`] selects which of the three
//! evidence types participate (the ablation of Figure 3), and [`Composition`] selects how
//! they are merged (Table 3). The pipeline is split at the paper's natural seam into
//! [`GemModel::fit`] (the expensive corpus-level estimation: EM fit, Equation 7
//! parameters, autoencoder weights) and [`GemModel::transform`] (apply the frozen model
//! to any columns, including ones unseen at fit time); `GemEmbedder::embed` is the fused
//! one-shot form and serving systems cache the fitted model instead of re-fitting. With
//! both D and S selected, a transform computes each column's signature row and
//! statistical row in one pass that sorts the column once, under one fan-out per batch;
//! [`signature_matrix`] and [`statistical_feature_matrix`] are the per-block forms.
//!
//! The crate also hosts the **unified method layer**: the [`ColumnEmbedder`] /
//! [`SupervisedColumnEmbedder`] traits every embedding method in the workspace implements
//! (Gem itself included, via [`GemMethod`]), and the [`MethodRegistry`] that enumerates
//! methods by name and fans them out across threads.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod ablation;
mod compose;
mod config;
mod embedding;
mod features;
mod method;
mod model;
mod signature;

pub use ablation::{ablation_feature_sets, AblationResult};
pub use compose::{compose, Composition};
pub use config::{FeatureSet, GemConfig};
pub use embedding::{GemColumn, GemEmbedder, GemEmbedding, GemError};
pub use features::{statistical_feature_matrix, STATISTICAL_FEATURE_NAMES};
pub use method::{
    gem_family_variants, ColumnEmbedder, GemMethod, GemVariant, Method, MethodRegistry,
    RegisteredMethod, SupervisedColumnEmbedder,
};
pub use model::{FeatureScaler, GemModel, GEM_MODEL_SCHEMA_VERSION};
pub use signature::{signature_matrix, stack_values, SIGNATURE_FANOUT_CELLS};
