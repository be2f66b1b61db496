//! The model engine: resolve a model through both cache tiers and, on a miss, fit it
//! once.
//!
//! Gem fits one shared GMM over a corpus and embeds every column against that frozen
//! model, so a request needs one model lookup and one transform; nothing couples two
//! requests. [`BatchEngine`] owns the two-tier [`ModelCache`] and answers the lookup:
//! [`BatchEngine::resolve`] never fits (the embed-by-handle path), while
//! [`BatchEngine::get_or_fit`] falls back to one EM fit per (corpus, configuration)
//! key — the amortise-by-caching move that makes repeated serving tractable.
//!
//! **Fits are single-flight across concurrent callers.** With many executor threads
//! serving one engine (the worker-pool server), N simultaneous requests for the same
//! missing key must not pay N EM fits: the first caller becomes the *leader* and fits;
//! the rest *coalesce* — they block on the leader's in-flight entry and receive the
//! very same `Arc<GemModel>` (counted in [`CacheStats::coalesced_fits`]). The leader
//! publishes to the cache *before* retiring its in-flight entry, and a new leader
//! re-checks the cache after taking leadership, so exactly one cold fit happens per key
//! no matter how the threads interleave.

use crate::cache::{CachePolicy, CacheStats, CacheTier, ModelCache};
use crate::fingerprint::ModelKey;
use gem_core::{FeatureSet, GemColumn, GemConfig, GemError, GemModel};
use gem_store::ModelStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Where the model that served a request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// This request fitted the model (or the fit failed).
    ColdFit,
    /// The model was resident in the in-memory cache.
    MemoryCache,
    /// The model was rehydrated from the on-disk store (warm start: deserialisation
    /// instead of an EM re-fit).
    DiskStore,
}

impl ServedFrom {
    /// The stable wire rendering used by the serving protocol (`gem-proto`).
    pub fn wire_name(self) -> &'static str {
        match self {
            ServedFrom::ColdFit => "cold_fit",
            ServedFrom::MemoryCache => "memory_cache",
            ServedFrom::DiskStore => "disk_store",
        }
    }

    /// Parse a [`ServedFrom::wire_name`] rendering.
    pub fn from_wire_name(name: &str) -> Option<Self> {
        match name {
            "cold_fit" => Some(ServedFrom::ColdFit),
            "memory_cache" => Some(ServedFrom::MemoryCache),
            "disk_store" => Some(ServedFrom::DiskStore),
            _ => None,
        }
    }
}

impl From<CacheTier> for ServedFrom {
    fn from(tier: CacheTier) -> Self {
        match tier {
            CacheTier::Memory => ServedFrom::MemoryCache,
            CacheTier::Disk => ServedFrom::DiskStore,
        }
    }
}

/// One in-flight fit: the leader computes, concurrent duplicates block on the condvar
/// until the outcome is published and then share it.
#[derive(Debug, Default)]
struct InFlightFit {
    outcome: Mutex<Option<Result<Arc<GemModel>, GemError>>>,
    done: Condvar,
}

impl InFlightFit {
    fn publish(&self, result: Result<Arc<GemModel>, GemError>) {
        *crate::sync::lock_or_recover(&self.outcome) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<GemModel>, GemError> {
        let mut outcome = crate::sync::lock_or_recover(&self.outcome);
        loop {
            if let Some(result) = outcome.as_ref() {
                return result.clone();
            }
            outcome = crate::sync::wait_or_recover(&self.done, outcome);
        }
    }
}

/// Owns the two-tier model cache and the single-flight fit registry: resolves models by
/// key and fits each missing one at most once across concurrent callers.
#[derive(Debug)]
pub struct BatchEngine {
    cache: Mutex<ModelCache>,
    /// Single-flight registry: keys whose fit is currently being computed, shared so
    /// concurrent callers coalesce instead of re-fitting (see the module docs).
    in_flight_fits: Mutex<HashMap<ModelKey, Arc<InFlightFit>>>,
    /// How many fits coalesced onto another caller's computation.
    coalesced_fits: AtomicU64,
    /// Total microseconds spent inside cold-fit EM runs (leaders only — coalesced
    /// callers, cache hits, warm starts and incremental updates add nothing).
    fit_micros: AtomicU64,
    /// Total EM iterations across those fits' winning restarts.
    em_iterations: AtomicU64,
    /// Lineage-save failures from `fit_update` (folded into the merged stats'
    /// `store_errors`; the update itself still succeeds — the store is best-effort).
    update_store_errors: AtomicU64,
}

impl BatchEngine {
    /// An engine with a full cache eviction policy (capacity, TTL, memory bound).
    ///
    /// # Panics
    /// Panics when `policy.capacity` is zero.
    pub fn with_policy(policy: CachePolicy) -> Self {
        BatchEngine {
            cache: Mutex::new(ModelCache::with_policy(policy)),
            in_flight_fits: Mutex::new(HashMap::new()),
            coalesced_fits: AtomicU64::new(0),
            fit_micros: AtomicU64::new(0),
            em_iterations: AtomicU64::new(0),
            update_store_errors: AtomicU64::new(0),
        }
    }

    /// Attach an on-disk store as the cache's second tier: evictions spill to it and
    /// misses warm-start from it before falling back to a cold fit.
    pub fn with_store(self, store: Arc<ModelStore>) -> Self {
        let cache = self
            .cache
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .with_store(store);
        BatchEngine {
            cache: Mutex::new(cache),
            in_flight_fits: self.in_flight_fits,
            coalesced_fits: self.coalesced_fits,
            fit_micros: self.fit_micros,
            em_iterations: self.em_iterations,
            update_store_errors: self.update_store_errors,
        }
    }

    /// Insert an externally produced model (a `PushModel` snapshot) under `key`, making
    /// the handle resolvable exactly as if this engine had fitted it; any eviction the
    /// insert causes spills off-lock as usual.
    pub fn publish(&self, key: ModelKey, model: Arc<GemModel>) {
        let spills = {
            let mut cache = crate::sync::lock_or_recover(&self.cache);
            cache.insert(key, model);
            cache.take_pending_spills()
        };
        for task in spills {
            task.execute();
        }
    }

    /// Materialise the model for a key that missed both cache tiers, single-flight:
    /// exactly one concurrent caller (the leader) runs the EM fit and publishes it; the
    /// rest coalesce onto that computation and share its `Arc`. Returns the outcome and
    /// its provenance — `ColdFit` only for the leader that actually fitted, so "number
    /// of cold fits" counts EM runs exactly.
    fn fit_single_flight(
        &self,
        key: ModelKey,
        corpus: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        self.single_flight(key, || {
            let started = std::time::Instant::now();
            let model = GemModel::fit(corpus, config, features)?;
            // Leader-only accounting: this is exactly the time (and iteration count)
            // the fused EM kernels ran — hits, warm starts and coalesced callers never
            // reach this closure.
            self.fit_micros
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            self.em_iterations
                .fetch_add(model.em_iterations() as u64, Ordering::Relaxed);
            Ok(model)
        })
    }

    /// The single-flight protocol around an arbitrary model-producing computation:
    /// exactly one concurrent caller per key (the leader) runs `produce` and publishes
    /// the result to the cache; the rest coalesce and share its `Arc`.
    fn single_flight(
        &self,
        key: ModelKey,
        produce: impl FnOnce() -> Result<GemModel, GemError>,
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        // Join (or open) the key's in-flight entry.
        let (flight, leader) = {
            let mut in_flight = crate::sync::lock_or_recover(&self.in_flight_fits);
            match in_flight.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(InFlightFit::default());
                    in_flight.insert(key, Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            // Coalesce: block until the leader's outcome, then share it. By the time
            // the wait returns the model is resident (the leader publishes before
            // retiring its entry), so the provenance is the memory tier.
            self.coalesced_fits.fetch_add(1, Ordering::Relaxed);
            let result = flight.wait();
            let served_from = if result.is_ok() {
                ServedFrom::MemoryCache
            } else {
                ServedFrom::ColdFit // a shared *failure* is still the fit's failure
            };
            return (result, served_from);
        }
        // Leader. Re-check the cache stats-free first: a previous leader may have
        // published between this caller's lookup miss and its taking leadership (the
        // registry entry is removed only after the cache insert, so a completed fit
        // cannot hide from this peek). This too is a coalesced fit — the work was done
        // by another request's computation — so the counter keeps the exact invariant
        // "duplicate fits = hits + coalesced_fits".
        let already = crate::sync::lock_or_recover(&self.cache).peek(key);
        if let Some(model) = already {
            self.coalesced_fits.fetch_add(1, Ordering::Relaxed);
            flight.publish(Ok(Arc::clone(&model)));
            self.retire_flight(key);
            return (Ok(model), ServedFrom::MemoryCache);
        }
        let result = produce().map(Arc::new);
        if let Ok(model) = &result {
            self.publish(key, Arc::clone(model));
        }
        flight.publish(result.clone());
        self.retire_flight(key);
        (result, ServedFrom::ColdFit)
    }

    fn retire_flight(&self, key: ModelKey) {
        crate::sync::lock_or_recover(&self.in_flight_fits).remove(&key);
    }

    /// Resolve `key` through both cache tiers — memory, then the attached store — and
    /// report which tier satisfied it. **Never fits**: a model that exists in neither
    /// tier is `None`, which the serving layer surfaces as its typed `UnknownModel`
    /// error. This is the lookup behind embed-by-handle.
    pub fn resolve(&self, key: ModelKey) -> Option<(Arc<GemModel>, CacheTier)> {
        let (found, spills) = {
            let mut cache = crate::sync::lock_or_recover(&self.cache);
            let found = cache.get_with_tier(key);
            (found, cache.take_pending_spills())
        };
        for task in spills {
            task.execute();
        }
        found
    }

    /// The model `key` names: resolved through both cache tiers like
    /// [`BatchEngine::resolve`], or — on a miss in both — fitted from `corpus`
    /// single-flight and published to the cache. Returns the model (or the fit error)
    /// and its provenance.
    pub fn get_or_fit(
        &self,
        key: ModelKey,
        corpus: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        match self.resolve(key) {
            Some((model, tier)) => (Ok(model), ServedFrom::from(tier)),
            None => self.fit_single_flight(key, corpus, config, features),
        }
    }

    /// Fold `new_columns` into the fitted model `parent` names: resolve the parent
    /// through both cache tiers, derive the updated model with
    /// [`GemModel::fit_update`] (frozen components, no EM run — cost proportional to
    /// the *new* columns), and publish it under [`gem_store::updated_model_key`]'s
    /// chain-sensitive key. Returns `None` when the parent resolves in neither tier
    /// (the serving layer's typed `UnknownModel`); otherwise the derived key, the
    /// model (or the update error) and its provenance — `ColdFit` when this call did
    /// the incremental work, a cache tier when an identical update already happened.
    ///
    /// Updates are single-flight like fits, and the lineage (`parent`) is recorded in
    /// the store tier *before* the derived model becomes resolvable; later eviction
    /// spills skip keys that already have a snapshot, so the parent pointer survives.
    pub fn fit_update(
        &self,
        parent: ModelKey,
        new_columns: &[GemColumn],
    ) -> Option<(ModelKey, Result<Arc<GemModel>, GemError>, ServedFrom)> {
        let (parent_model, _) = self.resolve(parent)?;
        let key = gem_store::updated_model_key(parent, new_columns);
        if let Some((model, tier)) = self.resolve(key) {
            return Some((key, Ok(model), ServedFrom::from(tier)));
        }
        let (result, served_from) = self.single_flight(key, || {
            let updated = parent_model.fit_update(new_columns)?;
            if let Some(store) = self.store() {
                if store.save_with_parent(key, Some(parent), &updated).is_err() {
                    // Best-effort like every store write: the update still succeeds,
                    // the failure is visible in the merged stats.
                    self.update_store_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(updated)
        });
        Some((key, result, served_from))
    }

    /// Remove `key` from both cache tiers (resident entry, queued spill, on-disk
    /// snapshot). Returns whether the key existed in either tier. The memory tier is
    /// cleared under the lock; the snapshot unlink — filesystem I/O — runs after the
    /// lock drops, like every other store operation in this engine.
    pub fn evict(&self, key: ModelKey) -> bool {
        let (in_memory, task) = crate::sync::lock_or_recover(&self.cache).evict_resident(key);
        let on_disk = task.is_some_and(crate::cache::EvictTask::execute);
        in_memory || on_disk
    }

    /// The resident models, most recently used first.
    pub fn resident_models(&self) -> Vec<(ModelKey, Arc<GemModel>)> {
        crate::sync::lock_or_recover(&self.cache).resident_models()
    }

    /// One-lock consistent snapshot of the memory tier: cumulative counters, resident
    /// model count, and approximate resident bytes — so a stats report can never show a
    /// count and a byte total from two different instants.
    pub fn cache_snapshot(&self) -> (CacheStats, usize, u64) {
        let cache = crate::sync::lock_or_recover(&self.cache);
        (
            self.merge_engine_stats(cache.stats()),
            cache.len(),
            cache.approx_bytes(),
        )
    }

    /// Overlay the engine-owned counters (single-flight coalescing, fit cost, lineage
    /// write failures) onto the cache's. The fit-cost pair lives on the engine because
    /// only the single-flight leader knows how long the EM run took; lineage-save
    /// failures fold into `store_errors` so one counter covers every store write.
    fn merge_engine_stats(&self, mut stats: CacheStats) -> CacheStats {
        stats.coalesced_fits = self.coalesced_fits.load(Ordering::Relaxed);
        stats.fit_micros = self.fit_micros.load(Ordering::Relaxed);
        stats.em_iterations = self.em_iterations.load(Ordering::Relaxed);
        stats.store_errors = stats
            .store_errors
            .saturating_add(self.update_store_errors.load(Ordering::Relaxed));
        stats
    }

    /// The attached store tier, if any.
    pub fn store(&self) -> Option<Arc<ModelStore>> {
        crate::sync::lock_or_recover(&self.cache)
            .store()
            .map(Arc::clone)
    }

    /// Cumulative cache counters, including the engine's single-flight
    /// [`CacheStats::coalesced_fits`].
    pub fn cache_stats(&self) -> CacheStats {
        let stats = crate::sync::lock_or_recover(&self.cache).stats();
        self.merge_engine_stats(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(seed: u64) -> Arc<Vec<GemColumn>> {
        Arc::new(
            (0..5)
                .map(|c| {
                    GemColumn::new(
                        (0..60)
                            .map(|i| (seed * 1000 + c * 37) as f64 + (i % 11) as f64 * 0.5)
                            .collect(),
                        format!("col_{seed}_{c}"),
                    )
                })
                .collect(),
        )
    }

    fn with_capacity(capacity: usize) -> BatchEngine {
        BatchEngine::with_policy(CachePolicy::with_capacity(capacity))
    }

    /// Fetch (or fit) the D+S model of `corpus` under `cfg`, the way `EmbedCorpus` does.
    fn get_or_fit(
        engine: &BatchEngine,
        cfg: &GemConfig,
        corpus: &[GemColumn],
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        let key = crate::fingerprint::model_key(corpus, cfg, FeatureSet::ds());
        engine.get_or_fit(key, corpus, cfg, FeatureSet::ds())
    }

    #[test]
    fn warm_transform_matches_one_shot_embed_exactly() {
        let engine = with_capacity(2);
        let cfg = GemConfig::fast();
        let shared = corpus(2);
        let (cold, cold_from) = get_or_fit(&engine, &cfg, &shared);
        assert_eq!(cold_from, ServedFrom::ColdFit);
        let (warm, warm_from) = get_or_fit(&engine, &cfg, &shared);
        assert_eq!(warm_from, ServedFrom::MemoryCache);
        assert_eq!(engine.cache_stats().hits, 1);
        let direct = gem_core::GemEmbedder::new(cfg)
            .embed(&shared, FeatureSet::ds())
            .unwrap();
        assert_eq!(
            cold.unwrap().transform(&shared).unwrap().matrix,
            direct.matrix
        );
        assert_eq!(
            warm.unwrap().transform(&shared).unwrap().matrix,
            direct.matrix
        );
    }

    /// Removes the wrapped directory even when the test's assertions fail.
    struct DirGuard(std::path::PathBuf);

    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn engine_warm_starts_from_the_store_across_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "gem-serve-engine-test-{}-warm-start",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _guard = DirGuard(dir.clone());
        let store = Arc::new(ModelStore::open(&dir).unwrap());
        let cfg = GemConfig::fast();
        let shared = corpus(7);

        // Process 1: fit, then force a spill by overflowing the capacity-1 cache.
        let engine = with_capacity(1).with_store(Arc::clone(&store));
        let (first, first_from) = get_or_fit(&engine, &cfg, &shared);
        assert_eq!(first_from, ServedFrom::ColdFit);
        assert!(get_or_fit(&engine, &cfg, &corpus(8)).0.is_ok());
        assert_eq!(engine.cache_stats().spills, 1);

        // "Process 2": a fresh engine over the same store directory. The lookup
        // warm-starts from disk — no EM fit — and the output is bit-identical.
        let restarted = with_capacity(4).with_store(store);
        let (warm, warm_from) = get_or_fit(&restarted, &cfg, &shared);
        assert_eq!(warm_from, ServedFrom::DiskStore);
        assert_eq!(restarted.cache_stats().warm_starts, 1);
        assert_eq!(restarted.cache_stats().misses, 0);
        assert_eq!(
            warm.unwrap().transform(&shared).unwrap().matrix,
            first.unwrap().transform(&shared).unwrap().matrix
        );
    }

    #[test]
    fn fit_update_derives_a_lineaged_handle_without_a_new_em_run() {
        let dir = std::env::temp_dir().join(format!(
            "gem-serve-engine-test-{}-fit-update",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _guard = DirGuard(dir.clone());
        let store = Arc::new(ModelStore::open(&dir).unwrap());
        let engine = with_capacity(4).with_store(Arc::clone(&store));
        let cfg = GemConfig::fast();
        let shared = corpus(11);
        let parent = crate::fingerprint::model_key(&shared, &cfg, FeatureSet::ds());
        let growth = vec![GemColumn::new(
            (0..60).map(|i| 500.0 + (i % 13) as f64 * 2.5).collect(),
            "grown",
        )];

        // An unknown parent is a typed miss, never a fabricated model.
        assert!(engine.fit_update(parent, &growth).is_none());

        assert!(engine
            .get_or_fit(parent, &shared, &cfg, FeatureSet::ds())
            .0
            .is_ok());
        let after_fit = engine.cache_stats();
        assert!(after_fit.fit_micros > 0);
        assert!(after_fit.em_iterations > 0);

        let (key, updated, served_from) = engine.fit_update(parent, &growth).unwrap();
        let updated = updated.unwrap();
        assert_ne!(key, parent);
        assert_eq!(served_from, ServedFrom::ColdFit);
        assert_eq!(updated.n_fit_columns(), shared.len() + 1);
        // The update froze the parent's components: no EM ran, so the engine's
        // fit-cost counters did not move.
        let after_update = engine.cache_stats();
        assert_eq!(after_update.fit_micros, after_fit.fit_micros);
        assert_eq!(after_update.em_iterations, after_fit.em_iterations);
        // Lineage was written to the store tier before the handle became resolvable.
        assert_eq!(store.parent_of(key).unwrap(), Some(parent));

        // The same growth again is a pure cache hit on the derived key.
        let (key_again, hit, from_again) = engine.fit_update(parent, &growth).unwrap();
        assert_eq!(key_again, key);
        assert_eq!(from_again, ServedFrom::MemoryCache);
        assert!(Arc::ptr_eq(&hit.unwrap(), &updated));
    }

    #[test]
    fn engine_respects_a_full_cache_policy() {
        use std::time::Duration;
        let engine =
            BatchEngine::with_policy(crate::CachePolicy::with_capacity(4).ttl(Duration::ZERO));
        let cfg = GemConfig::fast();
        let shared = corpus(1);
        assert!(get_or_fit(&engine, &cfg, &shared).0.is_ok());
        // Zero TTL: the follow-up request finds an expired entry and re-fits.
        let (_, again) = get_or_fit(&engine, &cfg, &shared);
        assert_eq!(again, ServedFrom::ColdFit);
        assert_eq!(engine.cache_stats().expirations, 1);
    }

    #[test]
    fn concurrent_duplicate_fits_coalesce_onto_one_em_run() {
        // Eight threads race the same cold Fit through one engine (the worker-pool
        // server's shape). Single-flight guarantees exactly one of them pays the EM
        // fit; the rest are either plain cache hits (they looked up after the leader
        // published) or coalesced onto the in-flight computation — and the accounting
        // is exact: duplicates = hits + coalesced_fits.
        const THREADS: usize = 8;
        let engine = with_capacity(4);
        let cfg = GemConfig::fast();
        let shared = corpus(5);
        let barrier = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<(Arc<GemModel>, ServedFrom)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (engine, cfg, shared, barrier) = (&engine, &cfg, &shared, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (model, served_from) = get_or_fit(engine, cfg, shared);
                        (model.unwrap(), served_from)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let cold = outcomes
            .iter()
            .filter(|(_, sf)| *sf == ServedFrom::ColdFit)
            .count();
        assert_eq!(cold, 1, "exactly one EM fit across {THREADS}");
        let stats = engine.cache_stats();
        assert_eq!(
            stats.coalesced_fits + stats.hits,
            (THREADS - 1) as u64,
            "every duplicate was a hit or coalesced: {stats:?}"
        );
        assert_eq!(engine.resident_models().len(), 1);
        // All eight callers hold the same fitted model: the very same Arc.
        assert!(outcomes.iter().all(|(m, _)| Arc::ptr_eq(m, &outcomes[0].0)));
        let (_, again) = get_or_fit(&engine, &cfg, &shared);
        assert_eq!(again, ServedFrom::MemoryCache);
    }

    #[test]
    fn published_models_resolve_like_fitted_ones() {
        // The PushModel path: an externally produced model enters via publish() and
        // the handle resolves without this engine ever fitting.
        let engine = with_capacity(4);
        let cfg = GemConfig::fast();
        let cols = corpus(6);
        let key = crate::fingerprint::model_key(&cols, &cfg, FeatureSet::ds());
        let model = Arc::new(GemModel::fit(&cols, &cfg, FeatureSet::ds()).unwrap());
        assert!(engine.resolve(key).is_none());
        engine.publish(key, Arc::clone(&model));
        let (resolved, tier) = engine.resolve(key).expect("published model resolves");
        assert_eq!(tier, CacheTier::Memory);
        assert!(Arc::ptr_eq(&resolved, &model));
    }
}
