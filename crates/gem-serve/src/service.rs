//! The serving front-end: a typed, handle-based request protocol over the model cache.
//!
//! [`EmbedService`] wraps a [`MethodRegistry`] and the model cache and answers
//! [`ServeRequest`]s — the same protocol `gem-proto` carries over a wire:
//!
//! * [`ServeRequest::Fit`] — fit (or reuse) the model for a corpus and return its
//!   [`ModelHandle`]. Fitting is idempotent: an identical corpus + configuration yields
//!   an identical handle, served from whichever cache tier already holds it.
//! * [`ServeRequest::Embed`] — embed query columns against the model a handle names.
//!   Handles are **resolved, never refitted**: the memory tier is consulted, then the
//!   store tier, and a miss is the typed [`ServeError::UnknownModel`] — the corpus is
//!   not on the wire, so a silent refit is impossible by construction.
//! * [`ServeRequest::EmbedCorpus`] — the one-shot path: embed a corpus (or queries
//!   against it) with any registry method by name. Gem pipeline variants registered via
//!   [`EmbedService::register_gem_family`] are served through the model cache; methods
//!   without a fit/transform seam compute fresh.
//! * [`ServeRequest::PushModel`] / [`ServeRequest::PullModel`] — snapshot shipping: a
//!   pulled model is the bit-exact `gem-store` envelope, and pushing it to another
//!   replica makes the same handle resolvable there **without refitting and without the
//!   corpus on the wire** (models travel as pre-verified artifacts).
//! * [`ServeRequest::Stats`], [`ServeRequest::ListModels`], [`ServeRequest::Evict`] —
//!   introspection and lifecycle control.
//!
//! Every outcome is a [`ServeResult`]: a typed [`ServeResponse`] or a [`ServeError`]
//! from the stable-coded taxonomy. Each request is served on its own, on the calling
//! thread: one lookup (or fit) in the model cache, which the service holds directly,
//! and one transform.

use crate::cache::{CachePolicy, CacheTier, ModelCache, ServedFrom};
use crate::error::ServeError;
use crate::fingerprint::{corpus_fingerprint, fit_model_key, model_key};
use crate::handle::ModelHandle;
use gem_core::{
    gem_family_variants, Composition, FeatureSet, GemColumn, GemConfig, GemModel, GemVariant,
    MethodRegistry,
};
use gem_numeric::Matrix;
use gem_store::ModelStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One serving request. See the [crate docs](crate) for the protocol shape; construct
/// variants with the [`ServeRequest::fit`], [`ServeRequest::fit_update`],
/// [`ServeRequest::embed`], [`ServeRequest::embed_corpus`] and [`ServeRequest::evict`]
/// conveniences.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Fit (or reuse) the model for `corpus` and return its handle.
    Fit {
        /// The corpus defining the model.
        corpus: Arc<Vec<GemColumn>>,
        /// Pipeline configuration to fit with.
        config: GemConfig,
        /// Which evidence types the model uses.
        features: FeatureSet,
        /// Optional composition override applied on top of `config`.
        composition: Option<Composition>,
    },
    /// Fold new corpus columns into the fitted model `handle` names, producing a
    /// derived model under a new handle without a from-scratch EM run. `corpus` holds
    /// the *new* columns only; the parent's components are frozen and reused, so every
    /// old-column embedding is bit-identical under the derived handle and the cost is
    /// proportional to corpus growth, not corpus size. The parent handle is recorded
    /// as lineage in the store tier. An unknown parent is `UnknownModel`, never a
    /// silent full fit.
    FitUpdate {
        /// Handle of the fitted model to grow from.
        handle: ModelHandle,
        /// The new columns only (not the full grown corpus).
        corpus: Arc<Vec<GemColumn>>,
    },
    /// Embed `queries` against the fitted model `handle` names.
    Embed {
        /// Handle returned by an earlier `Fit`.
        handle: ModelHandle,
        /// Columns to embed against the model.
        queries: Vec<GemColumn>,
    },
    /// One-shot: embed `queries` (or the corpus itself) with the registry method
    /// `method`, against the model fitted on `corpus` when the method has a
    /// fit/transform seam.
    EmbedCorpus {
        /// Registry name of the method to run (e.g. `"Gem (D+S)"`, `"PLE"`).
        method: String,
        /// The corpus defining the model (and the embedding input when `queries` is
        /// `None`).
        corpus: Arc<Vec<GemColumn>>,
        /// Columns to embed; `None` embeds the corpus itself.
        queries: Option<Vec<GemColumn>>,
        /// Training labels for supervised methods.
        labels: Option<Vec<String>>,
    },
    /// Install an externally produced model (a shipped snapshot) under `handle`,
    /// making the handle resolvable exactly as if this service had fitted it. The
    /// snapshot's header integrity is validated at the wire layer; the key is trusted
    /// like a store file's filename — snapshot shipping moves *pre-verified* artifacts
    /// between replicas.
    PushModel {
        /// Handle the snapshot's header names.
        handle: ModelHandle,
        /// The rehydrated model.
        model: Arc<gem_core::GemModel>,
    },
    /// Fetch the serialized snapshot of the model `handle` names (resolved, never
    /// fitted), for shipping to another replica or filing into a store directory.
    PullModel {
        /// Handle of the model to ship.
        handle: ModelHandle,
    },
    /// Report cumulative service statistics.
    Stats,
    /// List every model the service can currently resolve, across both cache tiers.
    ListModels,
    /// Remove the model `handle` names from both cache tiers.
    Evict {
        /// Handle of the model to remove.
        handle: ModelHandle,
    },
}

impl ServeRequest {
    /// A `Fit` request (no composition override).
    pub fn fit(corpus: Arc<Vec<GemColumn>>, config: GemConfig, features: FeatureSet) -> Self {
        ServeRequest::Fit {
            corpus,
            config,
            features,
            composition: None,
        }
    }

    /// A `FitUpdate` request: grow the model `handle` names by `corpus` (the new
    /// columns only).
    pub fn fit_update(handle: ModelHandle, corpus: Arc<Vec<GemColumn>>) -> Self {
        ServeRequest::FitUpdate { handle, corpus }
    }

    /// An `Embed` request.
    pub fn embed(handle: ModelHandle, queries: Vec<GemColumn>) -> Self {
        ServeRequest::Embed { handle, queries }
    }

    /// An `EmbedCorpus` request that embeds the corpus itself with `method`.
    pub fn embed_corpus(method: impl Into<String>, corpus: Arc<Vec<GemColumn>>) -> Self {
        ServeRequest::EmbedCorpus {
            method: method.into(),
            corpus,
            queries: None,
            labels: None,
        }
    }

    /// An `Evict` request.
    pub fn evict(handle: ModelHandle) -> Self {
        ServeRequest::Evict { handle }
    }

    /// Builder-style query columns (meaningful on `EmbedCorpus`; no-op otherwise).
    pub fn with_queries(mut self, new_queries: Vec<GemColumn>) -> Self {
        if let ServeRequest::EmbedCorpus { queries, .. } = &mut self {
            *queries = Some(new_queries);
        }
        self
    }

    /// Builder-style supervised labels (meaningful on `EmbedCorpus`; no-op otherwise).
    pub fn with_labels(mut self, new_labels: Vec<String>) -> Self {
        if let ServeRequest::EmbedCorpus { labels, .. } = &mut self {
            *labels = Some(new_labels);
        }
        self
    }

    /// Builder-style composition override (meaningful on `Fit`; no-op otherwise).
    pub fn with_composition(mut self, new_composition: Composition) -> Self {
        if let ServeRequest::Fit { composition, .. } = &mut self {
            *composition = Some(new_composition);
        }
        self
    }
}

/// Cumulative service statistics: the model-cache counters plus resident/store sizing
/// and the number of requests this service instance has processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Model-cache counters (hits, warm starts, spills, …).
    pub cache: crate::CacheStats,
    /// Models resident in the memory tier.
    pub resident_models: usize,
    /// Approximate bytes of the resident models.
    pub resident_bytes: u64,
    /// Snapshots in the store tier (`None` without a store, or when listing it failed).
    pub store_entries: Option<u64>,
    /// Total bytes of the store tier (`None` without a store, or on listing failure).
    pub store_bytes: Option<u64>,
    /// Requests processed by this service (every [`ServeRequest`] counts one).
    pub requests: u64,
}

/// One resolvable model, as listed by [`ServeRequest::ListModels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model's handle.
    pub handle: ModelHandle,
    /// The *closest* tier holding it (memory shadows disk).
    pub tier: CacheTier,
    /// Embedding dimensionality — known for resident models, `None` for disk-only
    /// snapshots (reporting it would require deserialising every file).
    pub dim: Option<usize>,
    /// Approximate resident bytes (memory tier) or snapshot file size (disk tier).
    pub bytes: u64,
}

/// A successful serving response; one variant per request shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// Outcome of a `Fit`: the model's handle, its embedding dimensionality, and which
    /// tier produced it ([`ServedFrom::ColdFit`] when this request paid the EM fit).
    Fitted {
        /// Handle addressing the fitted model in every later request.
        handle: ModelHandle,
        /// Embedding dimensionality of the model.
        dim: usize,
        /// Where the model came from.
        served_from: ServedFrom,
    },
    /// Outcome of an `Embed` or `EmbedCorpus`: one embedding row per requested column.
    Embedded {
        /// The embedding matrix.
        matrix: Matrix,
        /// Where the model came from ([`ServedFrom::ColdFit`] for one-shot methods).
        served_from: ServedFrom,
    },
    /// Outcome of a `PushModel`: the snapshot is installed and its handle resolves.
    Pushed {
        /// The handle the snapshot named, now resolvable on this service.
        handle: ModelHandle,
        /// Embedding dimensionality of the installed model.
        dim: usize,
    },
    /// Outcome of a `PullModel`: the model's serialized snapshot (the bit-exact
    /// `gem-store` envelope, interchangeable with a store file's contents).
    Snapshot {
        /// The handle the snapshot names.
        handle: ModelHandle,
        /// The snapshot envelope.
        snapshot: gem_json::Json,
        /// Which tier produced the model.
        served_from: ServedFrom,
    },
    /// Outcome of a `Stats` request.
    Stats(ServiceStats),
    /// Outcome of a `ListModels` request, memory tier first.
    Models(Vec<ModelInfo>),
    /// Outcome of an `Evict`: whether the handle existed in either tier.
    Evicted {
        /// `true` when a model was actually removed.
        existed: bool,
    },
}

impl ServeResponse {
    /// The embedding matrix, when this is an `Embedded` response.
    pub fn matrix(&self) -> Option<&Matrix> {
        match self {
            ServeResponse::Embedded { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// Consume into the embedding matrix, when this is an `Embedded` response.
    pub fn into_matrix(self) -> Option<Matrix> {
        match self {
            ServeResponse::Embedded { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// The model handle, when this is a `Fitted` or `Pushed` response.
    pub fn handle(&self) -> Option<ModelHandle> {
        match self {
            ServeResponse::Fitted { handle, .. } | ServeResponse::Pushed { handle, .. } => {
                Some(*handle)
            }
            _ => None,
        }
    }

    /// The model provenance, when this response carries one.
    pub fn served_from(&self) -> Option<ServedFrom> {
        match self {
            ServeResponse::Fitted { served_from, .. }
            | ServeResponse::Embedded { served_from, .. }
            | ServeResponse::Snapshot { served_from, .. } => Some(*served_from),
            _ => None,
        }
    }

    /// Whether a fit was avoided (the model came from either cache tier).
    pub fn cache_hit(&self) -> bool {
        !matches!(self.served_from(), Some(ServedFrom::ColdFit) | None)
    }
}

/// The outcome of one serving request.
pub type ServeResult = Result<ServeResponse, ServeError>;

/// Serves the handle-based protocol for any registered method, accelerating Gem
/// variants with the fingerprint-keyed model cache.
#[derive(Debug)]
pub struct EmbedService {
    registry: MethodRegistry,
    cache: ModelCache,
    variants: Vec<GemVariant>,
    requests: AtomicU64,
}

impl EmbedService {
    /// A service over `registry` whose model cache holds at most `cache_capacity` fitted
    /// models. Register Gem variants with [`EmbedService::register_gem_family`] (or
    /// [`EmbedService::register_gem_variant`]) to serve them through the cache.
    ///
    /// # Panics
    /// Panics when `cache_capacity` is zero.
    pub fn new(registry: MethodRegistry, cache_capacity: usize) -> Self {
        Self::with_policy(registry, CachePolicy::with_capacity(cache_capacity))
    }

    /// A service whose model cache follows `policy`.
    ///
    /// # Panics
    /// Panics when `policy.capacity` is zero.
    pub fn with_policy(registry: MethodRegistry, policy: CachePolicy) -> Self {
        EmbedService {
            registry,
            cache: ModelCache::new(policy),
            variants: Vec::new(),
            requests: AtomicU64::new(0),
        }
    }

    /// Attach an on-disk model store as the cache's second tier: models evicted from
    /// memory spill to it, cache misses warm-start from it, and handles resolve through
    /// it — so a handle survives both eviction and a process restart.
    pub fn with_store(mut self, store: Arc<ModelStore>) -> Self {
        self.cache = self.cache.with_store(store);
        self
    }

    /// Register one Gem pipeline variant as cache-servable under `name`. Replaces an
    /// earlier variant with the same name.
    pub fn register_gem_variant(
        &mut self,
        name: impl Into<String>,
        config: GemConfig,
        features: FeatureSet,
    ) {
        let variant = GemVariant {
            name: name.into(),
            config,
            features,
            tags: &[],
        };
        match self.variants.iter_mut().find(|v| v.name == variant.name) {
            Some(existing) => *existing = variant,
            None => self.variants.push(variant),
        }
    }

    /// Register the whole Gem method family derived from `config` as cache-servable.
    /// The name → pipeline table comes from [`gem_core::gem_family_variants`] — the same
    /// single source of truth [`MethodRegistry::register_gem_family`] registers from —
    /// so the service and the registry can never disagree about what a name runs.
    pub fn register_gem_family(&mut self, config: &GemConfig) {
        for variant in gem_family_variants(config) {
            self.register_gem_variant(variant.name, variant.config, variant.features);
        }
    }

    /// All method names the service can run, in registry order.
    pub fn methods(&self) -> Vec<&str> {
        self.registry.names()
    }

    /// Whether `method` is served through the model cache.
    pub fn is_cache_served(&self, method: &str) -> bool {
        self.variants.iter().any(|v| v.name == method)
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MethodRegistry {
        &self.registry
    }

    /// Cumulative model-cache counters.
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.cache.snapshot().0
    }

    /// Cumulative service statistics (cache counters, tier sizes, request count). The
    /// memory-tier numbers come from one consistent cache snapshot; the store listing
    /// (filesystem I/O) happens outside the cache lock and degrades to "unknown" on
    /// failure — stats are best-effort, never an error.
    pub fn stats(&self) -> ServiceStats {
        let (cache, resident_models, resident_bytes) = self.cache.snapshot();
        let (store_entries, store_bytes) = match self.cache.store().map(|s| s.stats()) {
            Some(Ok(stats)) => (Some(stats.entries as u64), Some(stats.total_bytes)),
            Some(Err(_)) | None => (None, None),
        };
        ServiceStats {
            cache,
            resident_models,
            resident_bytes,
            store_entries,
            store_bytes,
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// Every model the service can currently resolve: resident models first (most
    /// recently used first), then disk-only snapshots.
    ///
    /// # Errors
    /// Returns [`ServeError::Store`] when the store tier exists but cannot be listed.
    pub fn models(&self) -> Result<Vec<ModelInfo>, ServeError> {
        let resident = self.cache.resident_models();
        let mut infos: Vec<ModelInfo> = resident
            .iter()
            .map(|(key, model)| ModelInfo {
                handle: ModelHandle::from(*key),
                tier: CacheTier::Memory,
                dim: Some(model.dim()),
                bytes: model.approx_mem_bytes(),
            })
            .collect();
        if let Some(store) = self.cache.store() {
            let entries = store.list().map_err(|e| ServeError::Store {
                message: e.to_string(),
            })?;
            for entry in entries {
                if !resident.iter().any(|(key, _)| *key == entry.key) {
                    infos.push(ModelInfo {
                        handle: ModelHandle::from(entry.key),
                        tier: CacheTier::Disk,
                        dim: None,
                        bytes: entry.bytes,
                    });
                }
            }
        }
        Ok(infos)
    }

    /// Serve one request. Every call counts one request in [`ServiceStats::requests`].
    pub fn serve_one(&self, request: ServeRequest) -> ServeResult {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            ServeRequest::Fit {
                corpus,
                mut config,
                features,
                composition,
            } => {
                let key =
                    fit_model_key(corpus_fingerprint(&corpus), &config, features, composition);
                if let Some(composition) = composition {
                    config.composition = composition;
                }
                let (model, served_from) = self.cache.get_or_fit(key, &corpus, &config, features);
                Ok(ServeResponse::Fitted {
                    handle: ModelHandle::from(key),
                    dim: model.map_err(ServeError::Fit)?.dim(),
                    served_from,
                })
            }
            ServeRequest::FitUpdate { handle, corpus } => {
                let Some((key, model, served_from)) = self.cache.fit_update(handle.key(), &corpus)
                else {
                    return Err(ServeError::UnknownModel { handle });
                };
                Ok(ServeResponse::Fitted {
                    handle: ModelHandle::from(key),
                    dim: model.map_err(ServeError::Fit)?.dim(),
                    served_from,
                })
            }
            ServeRequest::Embed { handle, queries } => {
                let (model, served_from) = self.resolve(handle)?;
                transform(&model, &queries, served_from)
            }
            ServeRequest::EmbedCorpus {
                method,
                corpus,
                queries,
                labels,
            } => {
                let columns = queries.as_deref().unwrap_or(corpus.as_slice());
                if let Some(variant) = self.variants.iter().find(|v| v.name == method) {
                    let (config, features) = (&variant.config, variant.features);
                    let key = model_key(&corpus, config, features);
                    let (model, served_from) =
                        self.cache.get_or_fit(key, &corpus, config, features);
                    let model = model.map_err(ServeError::Fit)?;
                    return transform(&model, columns, served_from);
                }
                let Some(registered) = self.registry.get(&method) else {
                    return Err(ServeError::UnknownMethod { method });
                };
                registered
                    .embed(columns, labels.as_deref())
                    .map(|matrix| ServeResponse::Embedded {
                        matrix,
                        served_from: ServedFrom::ColdFit,
                    })
                    .map_err(ServeError::from_method_error)
            }
            ServeRequest::PushModel { handle, model } => {
                let dim = model.dim();
                self.cache.publish(handle.key(), model);
                Ok(ServeResponse::Pushed { handle, dim })
            }
            ServeRequest::PullModel { handle } => {
                let (model, served_from) = self.resolve(handle)?;
                Ok(ServeResponse::Snapshot {
                    handle,
                    snapshot: gem_store::encode_snapshot(handle.key(), &model),
                    served_from,
                })
            }
            ServeRequest::Stats => Ok(ServeResponse::Stats(self.stats())),
            ServeRequest::ListModels => self.models().map(ServeResponse::Models),
            ServeRequest::Evict { handle } => Ok(ServeResponse::Evicted {
                existed: self.cache.evict(handle.key()),
            }),
        }
    }

    /// Count one `Embed` request and resolve its handle, for a caller that transforms
    /// the queries itself: the binary codec streams them in batches against the one
    /// model this returns.
    pub(crate) fn resolve_embed(
        &self,
        handle: ModelHandle,
    ) -> Result<(Arc<GemModel>, ServedFrom), ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.resolve(handle)
    }

    /// The model `handle` names, from either cache tier. **Never fits**: a miss is the
    /// typed [`ServeError::UnknownModel`] — the request carries no corpus to fit from.
    fn resolve(&self, handle: ModelHandle) -> Result<(Arc<GemModel>, ServedFrom), ServeError> {
        self.cache
            .resolve(handle.key())
            .ok_or(ServeError::UnknownModel { handle })
    }
}

/// Embed `columns` against `model`, reporting where the model came from.
fn transform(model: &GemModel, columns: &[GemColumn], served_from: ServedFrom) -> ServeResult {
    model
        .transform(columns)
        .map(|embedding| ServeResponse::Embedded {
            matrix: embedding.matrix,
            served_from,
        })
        .map_err(ServeError::Transform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::{ColumnEmbedder, GemEmbedder, GemError};

    fn corpus() -> Arc<Vec<GemColumn>> {
        Arc::new(
            (0..6)
                .map(|c| {
                    GemColumn::new(
                        (0..50)
                            .map(|i| (c * 80) as f64 + (i % 14) as f64 * 1.5)
                            .collect(),
                        format!("col_{c}"),
                    )
                })
                .collect(),
        )
    }

    struct Identity;

    impl ColumnEmbedder for Identity {
        fn name(&self) -> &str {
            "Identity"
        }

        fn embed_columns(&self, columns: &[GemColumn]) -> Result<Matrix, GemError> {
            Ok(Matrix::filled(columns.len(), 2, 1.0))
        }
    }

    fn service() -> EmbedService {
        let config = GemConfig::fast();
        let mut registry = MethodRegistry::with_gem(&config);
        registry.register_unsupervised(Identity, &[]);
        let mut service = EmbedService::new(registry, 4);
        service.register_gem_family(&config);
        service
    }

    #[test]
    fn fit_returns_a_handle_and_is_idempotent() {
        let service = service();
        let cols = corpus();
        let cold = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap();
        let handle = cold.handle().expect("fit returns a handle");
        assert_eq!(cold.served_from(), Some(ServedFrom::ColdFit));
        // Same corpus + config: same handle, no second EM fit.
        let warm = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap();
        assert_eq!(warm.handle(), Some(handle));
        assert_eq!(warm.served_from(), Some(ServedFrom::MemoryCache));
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn embed_by_handle_matches_in_process_fit_transform_exactly() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let queries = vec![GemColumn::new(
            (0..25).map(|i| 100.0 + (i % 7) as f64).collect(),
            "unseen",
        )];
        let served = service
            .serve_one(ServeRequest::embed(handle, queries.clone()))
            .unwrap();
        assert!(served.cache_hit());
        let direct = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::ds())
            .unwrap()
            .transform(&queries)
            .unwrap();
        assert_eq!(served.into_matrix().unwrap(), direct.matrix);
    }

    #[test]
    fn fit_update_grows_a_model_and_keeps_old_embeddings_bit_identical() {
        let service = service();
        let cols = corpus();
        let parent = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let growth = Arc::new(vec![GemColumn::new(
            (0..50).map(|i| 700.0 + (i % 9) as f64 * 3.0).collect(),
            "col_new",
        )]);

        let grown = service
            .serve_one(ServeRequest::fit_update(parent, Arc::clone(&growth)))
            .unwrap();
        let derived = grown.handle().expect("fit_update returns a handle");
        assert_ne!(derived, parent);
        assert_eq!(grown.served_from(), Some(ServedFrom::ColdFit));

        // The derived model froze the parent's components, so the old columns embed
        // bit-identically under either handle, and the new column resolves too.
        let via_parent = service
            .serve_one(ServeRequest::embed(parent, (*cols).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let via_derived = service
            .serve_one(ServeRequest::embed(derived, (*cols).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(via_parent, via_derived);
        let new_embed = service
            .serve_one(ServeRequest::embed(derived, (*growth).clone()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(new_embed.rows(), 1);

        // Growing an unknown handle is a typed error, never a silent full fit.
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        let err = service
            .serve_one(ServeRequest::fit_update(bogus, growth))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));

        // The one EM run is visible in the fit-cost stats; the update added nothing.
        let stats = service.stats();
        assert!(stats.cache.fit_micros > 0);
        assert!(stats.cache.em_iterations > 0);
    }

    #[test]
    fn unknown_handles_error_instead_of_refitting() {
        let service = service();
        let bogus = ModelHandle::from_hex("0000000000000001-0000000000000002").unwrap();
        let err = service
            .serve_one(ServeRequest::embed(bogus, corpus().to_vec()))
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
        assert!(matches!(err, ServeError::UnknownModel { handle } if handle == bogus));
        // Nothing was fitted on our behalf.
        assert_eq!(service.stats().resident_models, 0);
    }

    #[test]
    fn evict_invalidates_a_handle() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let evicted = service.serve_one(ServeRequest::evict(handle)).unwrap();
        assert_eq!(evicted, ServeResponse::Evicted { existed: true });
        let err = service
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
        // Evicting again reports the truth.
        let again = service.serve_one(ServeRequest::evict(handle)).unwrap();
        assert_eq!(again, ServeResponse::Evicted { existed: false });
    }

    #[test]
    fn gem_methods_are_cache_served_and_exact() {
        let service = service();
        assert!(service.is_cache_served("Gem (D+S)"));
        assert!(!service.is_cache_served("Identity"));
        let cold = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        assert!(!cold.cache_hit());
        let warm = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        assert!(warm.cache_hit());
        let direct = GemEmbedder::new(GemConfig::fast())
            .embed(&corpus(), FeatureSet::ds())
            .unwrap();
        assert_eq!(cold.into_matrix().unwrap(), direct.matrix);
        assert_eq!(warm.into_matrix().unwrap(), direct.matrix);
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn non_gem_methods_dispatch_to_the_registry() {
        let service = service();
        let response = service
            .serve_one(ServeRequest::embed_corpus("Identity", corpus()))
            .unwrap();
        assert!(!response.cache_hit());
        let m = response.into_matrix().unwrap();
        assert_eq!(m.shape(), (corpus().len(), 2));
    }

    #[test]
    fn a_single_request_runs_on_the_callers_thread() {
        // Forking a thread for a request costs more than a small transform, so its
        // work must run where `serve_one` was called.
        struct ThreadProbe(Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);
        impl ColumnEmbedder for ThreadProbe {
            fn name(&self) -> &str {
                "ThreadProbe"
            }

            fn embed_columns(&self, columns: &[GemColumn]) -> Result<Matrix, GemError> {
                self.0.lock().unwrap().push(std::thread::current().id());
                Ok(Matrix::filled(columns.len(), 1, 0.0))
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut registry = MethodRegistry::new();
        registry.register_unsupervised(ThreadProbe(Arc::clone(&seen)), &[]);
        let service = EmbedService::new(registry, 4);
        service
            .serve_one(ServeRequest::embed_corpus("ThreadProbe", corpus()))
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![std::thread::current().id()]);
    }

    #[test]
    fn unknown_methods_error_without_disturbing_other_methods() {
        let service = service();
        assert!(service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .is_ok());
        let err = service
            .serve_one(ServeRequest::embed_corpus("no-such-method", corpus()))
            .unwrap_err();
        assert_eq!(err.code(), "unknown_method");
        assert!(service
            .serve_one(ServeRequest::embed_corpus("Identity", corpus()))
            .is_ok());
    }

    #[test]
    fn failed_fits_answer_fit_failed_and_leave_nothing_resident() {
        let service = service();
        let broken = Arc::new(vec![GemColumn::values_only(vec![])]);
        let err = service
            .serve_one(ServeRequest::fit(
                broken,
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap_err();
        assert_eq!(err.code(), "fit_failed");
        assert!(matches!(err, ServeError::Fit(GemError::NoValues)));
        assert_eq!(service.stats().resident_models, 0);
    }

    #[test]
    fn queries_are_embedded_against_the_cached_corpus_model() {
        let service = service();
        service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap();
        let queries = vec![GemColumn::new(
            (0..25).map(|i| 100.0 + (i % 7) as f64).collect(),
            "unseen",
        )];
        let response = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()).with_queries(queries))
            .unwrap();
        assert!(response.cache_hit());
        let corpus_emb = service
            .serve_one(ServeRequest::embed_corpus("Gem (D+S)", corpus()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let m = response.into_matrix().unwrap();
        assert_eq!(m.rows(), 1);
        assert!(m.all_finite());
        assert_eq!(m.cols(), corpus_emb.cols());
    }

    #[test]
    fn supervised_methods_run_with_labels_through_the_service() {
        let config = GemConfig::fast();
        let mut registry = MethodRegistry::with_gem(&config);
        gem_baselines_stub(&mut registry);
        let service = EmbedService::new(registry, 2);
        let cols = corpus();
        let labels: Vec<String> = (0..cols.len()).map(|i| format!("t{}", i % 2)).collect();
        let ok = service.serve_one(
            ServeRequest::embed_corpus("StubSupervised", Arc::clone(&cols)).with_labels(labels),
        );
        assert!(ok.is_ok());
        // Missing labels are the request's fault: a typed invalid_request, not a crash.
        let missing = service
            .serve_one(ServeRequest::embed_corpus("StubSupervised", cols))
            .unwrap_err();
        assert_eq!(missing.code(), "invalid_request");
    }

    fn gem_baselines_stub(registry: &mut MethodRegistry) {
        struct Stub;
        impl gem_core::SupervisedColumnEmbedder for Stub {
            fn name(&self) -> &str {
                "StubSupervised"
            }

            fn fit_embed(
                &self,
                columns: &[GemColumn],
                _labels: &[String],
            ) -> Result<Matrix, GemError> {
                Ok(Matrix::zeros(columns.len(), 3))
            }
        }
        registry.register_supervised(Stub, &["supervised"]);
    }

    #[test]
    fn every_registry_gem_method_is_cache_served() {
        let service = service();
        for variant in gem_family_variants(&GemConfig::fast()) {
            assert!(service.is_cache_served(&variant.name), "{}", variant.name);
            assert!(
                service.methods().contains(&variant.name.as_str()),
                "{} not in registry",
                variant.name
            );
        }
    }

    #[test]
    fn stats_and_list_models_report_both_tiers() {
        let service = service();
        let cols = corpus();
        let handle = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let stats = match service.serve_one(ServeRequest::Stats).unwrap() {
            ServeResponse::Stats(stats) => stats,
            other => panic!("expected Stats, got {other:?}"),
        };
        assert_eq!(stats.resident_models, 1);
        assert!(stats.resident_bytes > 0);
        assert_eq!(stats.store_entries, None, "no store attached");
        assert_eq!(stats.requests, 2);
        let models = match service.serve_one(ServeRequest::ListModels).unwrap() {
            ServeResponse::Models(models) => models,
            other => panic!("expected Models, got {other:?}"),
        };
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].handle, handle);
        assert_eq!(models[0].tier, CacheTier::Memory);
        assert!(models[0].dim.is_some());
    }

    /// Removes the wrapped directory even when the test's assertions fail.
    struct DirGuard(std::path::PathBuf);

    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn handles_survive_eviction_and_restart_through_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "gem-serve-service-test-{}-warm-start",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _guard = DirGuard(dir.clone());
        let store = Arc::new(ModelStore::open(&dir).unwrap());
        let config = GemConfig::fast();
        let cols = corpus();

        // Incarnation 1: fit and spill by overflowing a capacity-1 cache.
        let mut service = EmbedService::with_policy(
            MethodRegistry::with_gem(&config),
            CachePolicy::with_capacity(1),
        )
        .with_store(Arc::clone(&store));
        service.register_gem_family(&config);
        let fitted = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                config.clone(),
                FeatureSet::ds(),
            ))
            .unwrap();
        let handle = fitted.handle().unwrap();
        let cold = service
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap();
        service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                config.clone(),
                FeatureSet::dsc(),
            ))
            .unwrap(); // evicts + spills the D+S model
        assert!(service.cache_stats().spills >= 1);

        // Incarnation 2: a fresh service over the same store. The *handle* still
        // resolves — via a disk warm start — with bit-identical output.
        let mut restarted =
            EmbedService::new(MethodRegistry::with_gem(&config), 4).with_store(Arc::clone(&store));
        restarted.register_gem_family(&config);
        let warm = restarted
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap();
        assert_eq!(warm.served_from(), Some(ServedFrom::DiskStore));
        assert_eq!(warm.into_matrix(), cold.into_matrix());
        assert_eq!(restarted.cache_stats().warm_starts, 1);
        // ListModels sees the disk-only snapshots too.
        let models = restarted.models().unwrap();
        assert!(models.iter().any(|m| m.handle == handle));
    }

    #[test]
    fn push_and_pull_ship_models_between_services() {
        let origin = service();
        let cols = corpus();
        let handle = origin
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let pulled = match origin
            .serve_one(ServeRequest::PullModel { handle })
            .unwrap()
        {
            ServeResponse::Snapshot {
                handle: h,
                snapshot,
                served_from,
            } => {
                assert_eq!(h, handle);
                assert_eq!(served_from, ServedFrom::MemoryCache);
                snapshot
            }
            other => panic!("expected Snapshot, got {other:?}"),
        };
        // The snapshot is the store envelope: it validates exactly like a store file.
        let (key, model) = gem_store::decode_snapshot(&pulled, Some(handle.key())).unwrap();
        assert_eq!(key, handle.key());

        // A fresh service that has never seen the corpus acquires the handle by push
        // and embeds bit-identically — no corpus, no refit.
        let replica = service();
        let pushed = replica
            .serve_one(ServeRequest::PushModel {
                handle,
                model: Arc::new(model),
            })
            .unwrap();
        assert_eq!(pushed.handle(), Some(handle));
        let from_origin = origin
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap()
            .into_matrix()
            .unwrap();
        let from_replica = replica
            .serve_one(ServeRequest::embed(handle, cols.to_vec()))
            .unwrap()
            .into_matrix()
            .unwrap();
        assert_eq!(from_origin, from_replica);
        // The replica never fitted: its only miss-path activity was the push insert.
        assert_eq!(replica.cache_stats().misses, 0);

        // Pulling an unresolvable handle is the typed unknown_model — never a fit.
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        let err = replica
            .serve_one(ServeRequest::PullModel { handle: bogus })
            .unwrap_err();
        assert_eq!(err.code(), "unknown_model");
    }

    #[test]
    fn replacing_a_variant_updates_in_place() {
        let mut service = service();
        let n = service.methods().len();
        service.register_gem_variant("Gem (D+S)", GemConfig::fast(), FeatureSet::d());
        assert_eq!(service.methods().len(), n);
        assert!(service.is_cache_served("Gem (D+S)"));
    }

    #[test]
    fn fit_composition_override_changes_the_handle() {
        let service = service();
        let cols = corpus();
        let plain = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&cols),
                GemConfig::fast(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        let agg = service
            .serve_one(
                ServeRequest::fit(Arc::clone(&cols), GemConfig::fast(), FeatureSet::ds())
                    .with_composition(Composition::Aggregation),
            )
            .unwrap()
            .handle()
            .unwrap();
        assert_ne!(plain, agg, "composition participates in the fingerprint");
    }
}
