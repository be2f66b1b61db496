//! # gem
//!
//! Umbrella crate for the Rust reproduction of *"Gem: Gaussian Mixture Model Embeddings for
//! Numerical Feature Distributions"* (EDBT 2025).
//!
//! It re-exports the public API of the workspace crates so applications can depend on a
//! single crate:
//!
//! * [`core`] — the Gem embedding pipeline ([`core::GemEmbedder`], [`core::FeatureSet`],
//!   [`core::Composition`]),
//! * [`gmm`] — the univariate / diagonal GMMs and the EM algorithm,
//! * [`baselines`] — PLE, PAF, Squashing_GMM/SOM, the KS statistic and the `_SC` baselines,
//! * [`data`] — the column data model and the four synthetic corpus simulators,
//! * [`eval`] — precision@k, ARI, ACC and experiment reporting,
//! * [`serve`] — the serving layer: fingerprint-keyed LRU model cache over the
//!   fit/transform split, single-flight fits, and the handle-based
//!   [`serve::EmbedService`] protocol (`Fit` → [`serve::ModelHandle`] → `Embed`) with
//!   its TCP front-end ([`serve::GemServer`] / [`serve::GemClient`], the `gem-served`
//!   and `gem-client` binaries),
//! * [`proto`] — the wire protocol those binaries speak: versioned JSON-line envelopes
//!   with bit-exact column/matrix payload codecs,
//! * [`router`] — the sharded cluster tier: a routing front-end (`gem-routed`) that
//!   consistent-hashes model handles across `gem-served` replicas, health-probes them,
//!   and fails over by shipping snapshots between replicas — never by refitting,
//! * [`store`] — full model persistence: the fingerprint-addressed on-disk
//!   [`store::ModelStore`] the serving cache spills to and warm-starts from,
//! * [`cluster`] — k-means, SDCN and TableDC,
//! * [`numeric`], [`nn`], [`text`] — the numeric, neural-network and text substrates.
//!
//! ## Quick start
//!
//! ```
//! use gem::core::{FeatureSet, GemColumn, GemConfig, GemEmbedder};
//!
//! // Three numeric columns with headers.
//! let columns = vec![
//!     GemColumn::new((20..60).map(f64::from).collect(), "age"),
//!     GemColumn::new((25..65).map(f64::from).collect(), "age_patient"),
//!     GemColumn::new((0..40).map(|i| 1000.0 + 37.0 * i as f64).collect(), "price"),
//! ];
//!
//! // Embed them with a small configuration (the default follows the paper: 50 components).
//! let embedder = GemEmbedder::new(GemConfig::fast());
//! let embedding = embedder.embed(&columns, FeatureSet::dsc()).unwrap();
//! assert_eq!(embedding.n_columns(), 3);
//!
//! // The two age-like columns are closer to each other than to the price column.
//! let sim = |a: usize, b: usize| {
//!     gem::numeric::cosine_similarity(embedding.matrix.row(a), embedding.matrix.row(b)).unwrap()
//! };
//! assert!(sim(0, 1) > sim(0, 2));
//! ```

#![warn(clippy::all)]

/// The Gem embedding pipeline (re-export of `gem-core`).
pub use gem_core as core;

/// Gaussian mixture models and EM (re-export of `gem-gmm`).
pub use gem_gmm as gmm;

/// Baseline embedding methods (re-export of `gem-baselines`).
pub use gem_baselines as baselines;

/// Column data model and synthetic corpora (re-export of `gem-data`).
pub use gem_data as data;

/// Evaluation metrics and reporting (re-export of `gem-eval`).
pub use gem_eval as eval;

/// Serving: fingerprint-keyed model cache, batch engine, the handle-based embed
/// service and its TCP server/client (re-export of `gem-serve`).
pub use gem_serve as serve;

/// The serving wire protocol: versioned JSON-line envelopes with bit-exact payload
/// codecs (re-export of `gem-proto`).
pub use gem_proto as proto;

/// The sharded cluster tier: a gem-proto routing front-end that partitions model
/// handles across `gem-served` replicas by consistent hashing, health-probes them,
/// and fails over via snapshot shipping — never a refit (re-export of `gem-router`).
pub use gem_router as router;

/// Model persistence: deterministic fingerprints and the fingerprint-addressed on-disk
/// model store (re-export of `gem-store`). A saved `GemModel` reloaded in a fresh
/// process transforms bit-identically — restarts do not re-pay the EM fit.
pub use gem_store as store;

/// Zero-dependency telemetry primitives: lock-free counters, gauges, log-scaled
/// latency histograms and the Prometheus text-exposition registry the serving stack
/// reports through (re-export of `gem-telemetry`).
pub use gem_telemetry as telemetry;

/// JSON values and the `ToJson`/`FromJson` persistence traits (re-export of `gem-json`);
/// fitted GMMs serialise through these so cached models survive restarts.
pub use gem_json as json;

/// Clustering algorithms (re-export of `gem-cluster`).
pub use gem_cluster as cluster;

/// Numeric substrate (re-export of `gem-numeric`).
pub use gem_numeric as numeric;

/// Neural-network substrate (re-export of `gem-nn`).
pub use gem_nn as nn;

/// Header text embeddings (re-export of `gem-text`).
pub use gem_text as text;
