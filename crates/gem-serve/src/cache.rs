//! The fingerprint-keyed, bounded, two-tier model cache.
//!
//! Fitting a [`GemModel`] is the expensive step of the pipeline (the EM fit over the
//! stacked corpus); transforming against a fitted model is cheap. A serving system
//! therefore caches fitted models keyed by [`ModelKey`] — the corpus fingerprint plus
//! the configuration hash.
//!
//! The cache is bounded along three axes ([`CachePolicy`]): an entry-count capacity, an
//! optional TTL (entries older than the TTL are expired on the next access), and an
//! optional approximate-memory bound computed from [`GemModel::approx_mem_bytes`].
//!
//! Attaching a [`ModelStore`] turns it into a two-tier cache:
//!
//! * models evicted for the capacity or memory bound **spill** to the store (a disk
//!   write instead of losing the fit), and
//! * a lookup that misses memory **warm-starts** from the store — a deserialisation
//!   (~ms) instead of an EM re-fit (~90ms on the bench corpus), with bit-identical
//!   transform output.
//!
//! TTL-expired entries are *not* spilled: expiry says the entry has outlived its
//! freshness budget, so writing it out would just move stale data to disk. Store I/O
//! failures never fail a lookup — they count in [`CacheStats::store_errors`] and the
//! cache falls back to the cold path, keeping a broken disk from taking serving down.
//!
//! **Spills are deferred, not written in place.** An eviction only *records* that the
//! model should be written ([`ModelCache::take_pending_spills`] hands the work out as
//! [`SpillTask`]s); whoever owns the cache executes the tasks wherever it likes — the
//! `BatchEngine` runs them *after releasing its cache lock*, so a slow or hung
//! disk never blocks concurrent cache hits. The standalone conveniences
//! ([`ModelCache::get`], [`ModelCache::get_or_fit`], [`ModelCache::flush_spills`])
//! execute pending spills synchronously, preserving the simple single-owner behaviour.
//! Spill outcomes are counted through atomics shared between the cache and its tasks, so
//! off-lock completions are never lost from [`CacheStats`].

use crate::fingerprint::{model_key, ModelKey};
use gem_core::{FeatureSet, GemColumn, GemConfig, GemError, GemModel};
use gem_store::ModelStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spill-path counters plus the per-key eviction generations, shared between the cache
/// and every in-flight [`SpillTask`] so completions recorded off-lock are never lost —
/// and so an explicit [`ModelCache::evict`] can invalidate tasks that are already out
/// of the cache's hands.
#[derive(Debug, Default)]
struct SpillCounters {
    spills: AtomicU64,
    store_errors: AtomicU64,
    /// Per-key eviction generation, bumped by every explicit eviction of that key. A
    /// [`SpillTask`] records its key's generation at creation and refuses to leave a
    /// snapshot behind once it has moved: without this, an `Evict` racing an in-flight
    /// spill would have the spill re-write the snapshot the eviction just deleted,
    /// resurrecting the handle. Cancellation is per-key so evicting one model never
    /// discards in-flight spills of unrelated ones. (The map grows by one small entry
    /// per distinct explicitly-evicted key — operator actions, negligible next to the
    /// models themselves — and is never consulted under the cache's own lock.)
    evict_generations: std::sync::Mutex<std::collections::HashMap<ModelKey, u64>>,
    /// Models whose spill has been handed out but not yet completed. Lookups consult
    /// this map after missing the resident entries, so a policy-evicted model never
    /// becomes transiently unresolvable while its (possibly slow) store write is in
    /// flight — the resolvability guarantee of the old write-under-the-lock design,
    /// kept without the lock.
    in_flight_spills: std::sync::Mutex<std::collections::HashMap<ModelKey, Arc<GemModel>>>,
}

impl SpillCounters {
    fn generation_of(&self, key: ModelKey) -> u64 {
        crate::sync::lock_or_recover(&self.evict_generations)
            .get(&key)
            .copied()
            .unwrap_or(0)
    }

    fn bump_generation(&self, key: ModelKey) {
        *crate::sync::lock_or_recover(&self.evict_generations)
            .entry(key)
            .or_insert(0) += 1;
    }

    fn in_flight(&self, key: ModelKey) -> Option<Arc<GemModel>> {
        crate::sync::lock_or_recover(&self.in_flight_spills)
            .get(&key)
            .cloned()
    }

    fn register_in_flight(&self, key: ModelKey, model: Arc<GemModel>) {
        crate::sync::lock_or_recover(&self.in_flight_spills).insert(key, model);
    }

    fn clear_in_flight(&self, key: ModelKey) {
        crate::sync::lock_or_recover(&self.in_flight_spills).remove(&key);
    }
}

/// One deferred store write: a model evicted from memory that should be persisted to the
/// store tier. Produced by [`ModelCache::take_pending_spills`]; self-contained (it owns
/// the model handle, the store handle and the stat counters), so it can be executed on
/// any thread without touching — or locking — the cache again.
#[derive(Debug)]
pub struct SpillTask {
    key: ModelKey,
    model: Arc<GemModel>,
    store: Arc<ModelStore>,
    counters: Arc<SpillCounters>,
    /// The key's eviction generation this task was created under (see
    /// `SpillCounters::evict_generations`).
    generation: u64,
}

impl SpillTask {
    /// The key of the model this task would persist.
    pub fn key(&self) -> ModelKey {
        self.key
    }

    fn cancelled(&self) -> bool {
        self.counters.generation_of(self.key) != self.generation
    }

    /// Write the snapshot (skipping keys already on disk — the fit is deterministic in
    /// (corpus, config), so an existing snapshot is already identical) and record the
    /// outcome in the owning cache's [`CacheStats`]. Returns whether a write happened
    /// and survived.
    ///
    /// Tasks outlive the cache lock, so an explicit [`ModelCache::evict`] can race a
    /// task that is already in flight. Eviction bumps the key's generation *before*
    /// touching the store; a task from an older generation skips the write — and if the
    /// generation moved while the write was happening, deletes what it just wrote — so
    /// "evict returned ⇒ the handle stops resolving" holds even mid-spill. Cancellation
    /// is per-key: evicting one model never discards in-flight spills of others.
    pub fn execute(self) -> bool {
        let written = self.write();
        // However the write went, the model is no longer "in flight": it is now either
        // on disk, resident again (a lookup re-promoted it), or deliberately gone.
        self.counters.clear_in_flight(self.key);
        written
    }

    fn write(&self) -> bool {
        if self.cancelled() || self.store.contains(self.key) {
            return false;
        }
        match self.store.save(self.key, &self.model) {
            Ok(_) => {
                if self.cancelled() {
                    // An evict of this key landed between our pre-check and the write
                    // completing; it already deleted the old snapshot, so delete ours.
                    let _ = self.store.remove(self.key);
                    return false;
                }
                self.counters.spills.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// The store-tier half of an explicit eviction: the snapshot delete, packaged so the
/// caller can run it *after* releasing whatever lock guards the cache (symmetric with
/// [`SpillTask`] — no store I/O under the lock). Returns whether a snapshot existed;
/// delete failures count as store errors and report the snapshot as still existing.
#[derive(Debug)]
pub struct EvictTask {
    key: ModelKey,
    store: Arc<ModelStore>,
    counters: Arc<SpillCounters>,
}

impl EvictTask {
    /// Delete the snapshot (if any). See the type docs for semantics.
    pub fn execute(self) -> bool {
        match self.store.remove(self.key) {
            Ok(removed) => removed,
            Err(_) => {
                self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from resident memory.
    pub hits: u64,
    /// Lookups served by rehydrating a spilled model from the attached store.
    pub warm_starts: u64,
    /// Lookups that found the model in neither tier.
    pub misses: u64,
    /// Entries evicted to respect the capacity or memory bound.
    pub evictions: u64,
    /// Entries dropped because they outlived the TTL.
    pub expirations: u64,
    /// Duplicate in-flight fits coalesced onto another request's computation. The cache
    /// itself never fits, so this stays zero here; `BatchEngine` — which owns
    /// the single-flight registry — fills it in when reporting merged stats.
    pub coalesced_fits: u64,
    /// Evicted entries successfully written to the attached store.
    pub spills: u64,
    /// Store reads or writes that failed (the lookup then proceeded as a miss).
    pub store_errors: u64,
    /// Total microseconds spent inside cold-fit EM runs. Like `coalesced_fits` this is
    /// engine-owned — the cache itself never fits, so it stays zero here and
    /// `BatchEngine` fills it in when reporting merged stats. Cache hits, disk
    /// warm starts and incremental `fit_update`s add nothing: the counter is exactly
    /// the time the fused EM kernels ran.
    pub fit_micros: u64,
    /// Total EM iterations across those cold fits' winning restarts (engine-owned,
    /// like `fit_micros`). `fit_micros / em_iterations` approximates the per-iteration
    /// kernel cost a deployment actually pays.
    pub em_iterations: u64,
}

/// Which tier satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The model was resident in memory.
    Memory,
    /// The model was rehydrated from the attached on-disk store.
    Disk,
}

/// Eviction policy of a [`ModelCache`]. `capacity` always applies; the TTL and memory
/// bounds are opt-in.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Maximum number of resident models.
    pub capacity: usize,
    /// Entries older than this are expired (checked on every access). `None` disables.
    pub ttl: Option<Duration>,
    /// Approximate resident-memory bound over [`GemModel::approx_mem_bytes`]. When
    /// exceeded, least-recently-used entries are evicted — but the most recently used
    /// entry always stays, so a single over-budget model still serves. `None` disables.
    pub max_bytes: Option<u64>,
}

impl CachePolicy {
    /// Capacity-only policy (the PR 2 behaviour).
    pub fn with_capacity(capacity: usize) -> Self {
        CachePolicy {
            capacity,
            ttl: None,
            max_bytes: None,
        }
    }

    /// Builder-style TTL bound.
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Builder-style approximate-memory bound.
    pub fn max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }
}

#[derive(Debug)]
struct Entry {
    key: ModelKey,
    model: Arc<GemModel>,
    inserted_at: Instant,
    bytes: u64,
}

/// A bounded LRU cache of fitted models, optionally backed by an on-disk store tier.
///
/// Models are stored behind [`Arc`] so a cache hit hands out a shared handle: transforms
/// can proceed on many threads while the cache itself is only locked for the (cheap)
/// lookup. The entry list is kept in recency order — front is most recently used — which
/// for serving-sized capacities (tens of models) makes the linear scan cheaper than a
/// hash map plus intrusive list.
#[derive(Debug)]
pub struct ModelCache {
    policy: CachePolicy,
    /// Most recently used first.
    entries: Vec<Entry>,
    store: Option<Arc<ModelStore>>,
    stats: CacheStats,
    /// Evicted models awaiting a store write (see [`ModelCache::take_pending_spills`]).
    pending_spills: Vec<(ModelKey, Arc<GemModel>)>,
    spill_counters: Arc<SpillCounters>,
}

impl ModelCache {
    /// Create a capacity-bounded cache holding at most `capacity` fitted models.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(CachePolicy::with_capacity(capacity))
    }

    /// Create a cache with a full eviction policy.
    ///
    /// # Panics
    /// Panics when `policy.capacity` is zero.
    pub fn with_policy(policy: CachePolicy) -> Self {
        assert!(policy.capacity > 0, "model cache capacity must be positive");
        ModelCache {
            policy,
            entries: Vec::new(),
            store: None,
            stats: CacheStats::default(),
            pending_spills: Vec::new(),
            spill_counters: Arc::new(SpillCounters::default()),
        }
    }

    /// Attach an on-disk store as the second tier: capacity/memory evictions spill to
    /// it and lookups that miss memory warm-start from it.
    pub fn with_store(mut self, store: Arc<ModelStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached store tier, if any.
    pub fn store(&self) -> Option<&Arc<ModelStore>> {
        self.store.as_ref()
    }

    /// Drop entries that outlived the TTL. Called on every access so expiry needs no
    /// background thread; expired entries are not spilled (they are stale by policy).
    fn expire(&mut self) {
        let Some(ttl) = self.policy.ttl else {
            return;
        };
        let before = self.entries.len();
        self.entries.retain(|e| e.inserted_at.elapsed() < ttl);
        self.stats.expirations += (before - self.entries.len()) as u64;
    }

    fn resident_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Evict from the LRU end until the capacity and memory bounds hold, queueing each
    /// eviction for a (deferred) spill to the store tier. The memory bound never evicts
    /// the final entry: a single model larger than the budget must still be servable.
    fn enforce_bounds(&mut self) {
        while self.entries.len() > self.policy.capacity
            || (self.entries.len() > 1
                && self
                    .policy
                    .max_bytes
                    .is_some_and(|max| self.resident_bytes() > max))
        {
            let evicted = self.entries.pop().expect("loop guard ensures non-empty");
            self.stats.evictions += 1;
            if self.store.is_some() {
                self.pending_spills.push((evicted.key, evicted.model));
            }
        }
    }

    /// Hand out the queued store writes as self-contained [`SpillTask`]s. Callers that
    /// guard the cache with a lock (the `BatchEngine`) call this *inside* the
    /// critical section and execute the tasks *after* releasing it, so store I/O —
    /// including the serialisation of the snapshot — happens off-lock and a slow disk
    /// never blocks concurrent lookups. Task outcomes flow back into [`CacheStats`]
    /// through shared atomic counters, whenever and wherever the tasks run.
    pub fn take_pending_spills(&mut self) -> Vec<SpillTask> {
        if self.pending_spills.is_empty() {
            return Vec::new();
        }
        let store = self
            .store
            .as_ref()
            .expect("spills are only queued when a store is attached");
        self.pending_spills
            .drain(..)
            .map(|(key, model)| {
                // While the task is in flight the model stays resolvable through the
                // shared in-flight map (cleared by SpillTask::execute).
                self.spill_counters
                    .register_in_flight(key, Arc::clone(&model));
                SpillTask {
                    key,
                    model,
                    store: Arc::clone(store),
                    counters: Arc::clone(&self.spill_counters),
                    generation: self.spill_counters.generation_of(key),
                }
            })
            .collect()
    }

    /// Execute every queued spill synchronously — the single-owner convenience.
    /// ([`ModelCache::get`] and [`ModelCache::get_or_fit`] call this implicitly; callers
    /// sharing the cache behind a lock should prefer [`ModelCache::take_pending_spills`]
    /// and run the tasks off-lock.)
    pub fn flush_spills(&mut self) {
        for task in self.take_pending_spills() {
            task.execute();
        }
    }

    /// Look up a model, marking it most recently used on a hit and reporting which tier
    /// satisfied the lookup. A miss on the resident entries consults, in order:
    ///
    /// 1. the **spill pipeline** — models evicted but whose store write is still queued
    ///    or in flight are re-promoted to resident and served as [`CacheTier::Memory`]
    ///    (without this, deferring spills would make a handle transiently unresolvable
    ///    for exactly as long as the disk is slow — the case deferral exists for);
    /// 2. the **store tier** (when attached) — a rehydrated model is inserted as most
    ///    recently used and returned as [`CacheTier::Disk`]. Store read failures count
    ///    as [`CacheStats::store_errors`] and degrade to a miss; a snapshot rejected as
    ///    *corrupt* is additionally deleted, so the next eviction of a freshly fitted
    ///    model re-writes a good one (without the delete, the spill's existence check
    ///    would preserve the bad file forever). Version mismatches are kept — they may
    ///    belong to a newer deployment sharing the store.
    pub fn get_with_tier(&mut self, key: ModelKey) -> Option<(Arc<GemModel>, CacheTier)> {
        self.expire();
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            self.stats.hits += 1;
            let entry = self.entries.remove(pos);
            let model = Arc::clone(&entry.model);
            self.entries.insert(0, entry);
            return Some((model, CacheTier::Memory));
        }
        // Evicted but not yet written: still in this cache's queue, or in a task some
        // thread is executing right now. Either way the model is at hand — re-promote.
        let queued = self
            .pending_spills
            .iter()
            .position(|(k, _)| *k == key)
            .map(|pos| self.pending_spills.remove(pos).1)
            .or_else(|| self.spill_counters.in_flight(key));
        if let Some(model) = queued {
            self.stats.hits += 1;
            self.insert_resident(key, Arc::clone(&model));
            return Some((model, CacheTier::Memory));
        }
        if let Some(store) = &self.store {
            match store.load(key) {
                Ok(Some(model)) => {
                    self.stats.warm_starts += 1;
                    let model = Arc::new(model);
                    self.insert_resident(key, Arc::clone(&model));
                    return Some((model, CacheTier::Disk));
                }
                Ok(None) => {}
                Err(error) => {
                    self.spill_counters
                        .store_errors
                        .fetch_add(1, Ordering::Relaxed);
                    if matches!(error, gem_store::StoreError::Corrupt { .. }) {
                        let _ = store.remove(key);
                    }
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Look up a model, marking it most recently used on a hit (either tier). Pending
    /// spills (a warm-start insert can evict) are executed synchronously; lock-guarded
    /// callers should use [`ModelCache::get_with_tier`] + [`ModelCache::take_pending_spills`]
    /// instead.
    pub fn get(&mut self, key: ModelKey) -> Option<Arc<GemModel>> {
        let found = self.get_with_tier(key).map(|(model, _)| model);
        self.flush_spills();
        found
    }

    fn insert_resident(&mut self, key: ModelKey, model: Arc<GemModel>) {
        self.entries.retain(|e| e.key != key);
        let bytes = model.approx_mem_bytes();
        self.entries.insert(
            0,
            Entry {
                key,
                model,
                inserted_at: Instant::now(),
                bytes,
            },
        );
        self.enforce_bounds();
    }

    /// Insert (or refresh) a model as most recently used, evicting from the LRU end when
    /// the capacity or memory bound is exceeded. Evictions *queue* their store writes;
    /// call [`ModelCache::take_pending_spills`] (off-lock execution) or
    /// [`ModelCache::flush_spills`] (synchronous) to run them.
    pub fn insert(&mut self, key: ModelKey, model: Arc<GemModel>) {
        self.expire();
        self.insert_resident(key, model);
    }

    /// Fetch the model for (`columns`, `config`, `features`): from memory, else from the
    /// store tier, else by fitting (and caching) it. Returns the model and whether a fit
    /// was avoided (either tier).
    ///
    /// # Errors
    /// Propagates the [`GemError`] of a failed fit; failures are not cached.
    pub fn get_or_fit(
        &mut self,
        columns: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> Result<(Arc<GemModel>, bool), GemError> {
        let key = model_key(columns, config, features);
        if let Some(model) = self.get(key) {
            return Ok((model, true));
        }
        let model = Arc::new(GemModel::fit(columns, config, features)?);
        self.insert(key, Arc::clone(&model));
        self.flush_spills();
        Ok((model, false))
    }

    /// The memory-tier half of an explicit eviction: remove the resident entry (if any)
    /// and any spill still queued for `key`, and bump the key's eviction generation so
    /// spill tasks of this key already in flight cannot re-write the snapshot
    /// afterwards (spills of other keys are untouched). Returns whether the memory tier
    /// held the key, plus an [`EvictTask`] for the store-tier delete — execute it
    /// *after* releasing whatever lock guards the cache (the snapshot unlink is
    /// filesystem I/O, and the whole point of the task split is that store I/O never
    /// runs under the cache lock).
    ///
    /// Unlike a policy eviction the model is deliberately discarded, so nothing is
    /// spilled and the [`CacheStats::evictions`] counter (which tracks *policy*
    /// evictions) is untouched.
    pub fn evict_resident(&mut self, key: ModelKey) -> (bool, Option<EvictTask>) {
        // Generation first: any task of this key that checks after this point sees the
        // bump, so no pre-eviction spill can complete once we start removing. The
        // in-flight entry goes too, so a lookup can't re-promote the evicted model.
        self.spill_counters.bump_generation(key);
        self.spill_counters.clear_in_flight(key);
        let before = self.entries.len() + self.pending_spills.len();
        self.entries.retain(|e| e.key != key);
        self.pending_spills.retain(|(k, _)| *k != key);
        let existed = before > self.entries.len() + self.pending_spills.len();
        let task = self.store.as_ref().map(|store| EvictTask {
            key,
            store: Arc::clone(store),
            counters: Arc::clone(&self.spill_counters),
        });
        (existed, task)
    }

    /// Remove the model for `key` from *both* tiers synchronously — the single-owner
    /// convenience over [`ModelCache::evict_resident`]. Returns whether the key existed
    /// in either tier; a failed snapshot delete counts a store error and reports the
    /// tier as still existing.
    pub fn evict(&mut self, key: ModelKey) -> bool {
        let (in_memory, task) = self.evict_resident(key);
        let on_disk = task.is_some_and(EvictTask::execute);
        in_memory || on_disk
    }

    /// Stats-free, recency-free lookup of the resident entries and the spill pipeline
    /// (queued and in-flight spills; **not** the store tier, and TTL is not enforced).
    /// This is the single-flight re-check path in `BatchEngine`: a second
    /// would-be fit leader must see a fit the first leader just published, without
    /// perturbing the hit/miss counters that the stat-conservation tests pin down.
    pub fn peek(&self, key: ModelKey) -> Option<Arc<GemModel>> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| Arc::clone(&e.model))
            .or_else(|| {
                self.pending_spills
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, m)| Arc::clone(m))
            })
            .or_else(|| self.spill_counters.in_flight(key))
    }

    /// The resident models, most recently used first (no recency or stat side effects).
    pub fn resident_models(&self) -> Vec<(ModelKey, Arc<GemModel>)> {
        self.entries
            .iter()
            .map(|e| (e.key, Arc::clone(&e.model)))
            .collect()
    }

    /// Whether a model for `key` is currently resident in memory (does not consult the
    /// store tier and does not touch recency or stats).
    pub fn contains(&self, key: ModelKey) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no models are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry-count capacity bound.
    pub fn capacity(&self) -> usize {
        self.policy.capacity
    }

    /// The full eviction policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Approximate resident memory of the cached models, in bytes.
    pub fn approx_bytes(&self) -> u64 {
        self.resident_bytes()
    }

    /// Cumulative counters. Spill-path counts come from atomics shared with every
    /// [`SpillTask`] this cache has handed out, so writes completed off-lock (or on other
    /// threads) are reflected as soon as they finish.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            spills: self.spill_counters.spills.load(Ordering::Relaxed),
            store_errors: self.spill_counters.store_errors.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Drop every resident model without spilling (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(seed: u64) -> Vec<GemColumn> {
        (0..4)
            .map(|c| {
                GemColumn::new(
                    (0..50)
                        .map(|i| (seed * 100 + c * 10) as f64 + (i % 13) as f64)
                        .collect(),
                    format!("col_{seed}_{c}"),
                )
            })
            .collect()
    }

    struct TempStore {
        dir: std::path::PathBuf,
        store: Arc<ModelStore>,
    }

    impl TempStore {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "gem-serve-cache-test-{}-{name}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(ModelStore::open(&dir).unwrap());
            TempStore { dir, store }
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let mut cache = ModelCache::new(2);
        let cfg = GemConfig::fast();
        let (_, hit) = cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(!hit);
        let (_, hit) = cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(hit);
        assert_eq!(cache.stats().hits, 1);
        // get_or_fit's internal lookup on the cold call counted one miss.
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert_eq!(cache.capacity(), 2);
        assert!(cache.approx_bytes() > 0);
    }

    #[test]
    fn same_corpus_different_config_is_a_different_entry() {
        let mut cache = ModelCache::new(4);
        let cfg = GemConfig::fast();
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        let (_, hit) = cache.get_or_fit(&corpus(1), &cfg, FeatureSet::d()).unwrap();
        assert!(!hit, "feature-set change must miss");
        let mut other = cfg.clone();
        other.gmm.n_components += 1;
        let (_, hit) = cache
            .get_or_fit(&corpus(1), &other, FeatureSet::ds())
            .unwrap();
        assert!(!hit, "component-count change must miss");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn data_change_is_a_different_entry() {
        let mut cache = ModelCache::new(4);
        let cfg = GemConfig::fast();
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        let mut perturbed = corpus(1);
        perturbed[0].values[7] += 1e-9;
        let (_, hit) = cache
            .get_or_fit(&perturbed, &cfg, FeatureSet::ds())
            .unwrap();
        assert!(!hit, "a single perturbed value must miss");
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used() {
        let mut cache = ModelCache::new(2);
        let cfg = GemConfig::fast();
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let k2 = model_key(&corpus(2), &cfg, FeatureSet::ds());
        let k3 = model_key(&corpus(3), &cfg, FeatureSet::ds());
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap();
        // Touch corpus 1 so corpus 2 becomes least recently used.
        assert!(cache.get(k1).is_some());
        cache
            .get_or_fit(&corpus(3), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(cache.contains(k1));
        assert!(!cache.contains(k2), "LRU entry must be evicted");
        assert!(cache.contains(k3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_fits_are_not_cached() {
        let mut cache = ModelCache::new(2);
        let cfg = GemConfig::fast();
        let empty = vec![GemColumn::values_only(vec![])];
        assert!(cache.get_or_fit(&empty, &cfg, FeatureSet::ds()).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_keeps_counters() {
        let mut cache = ModelCache::new(2);
        let cfg = GemConfig::fast();
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        ModelCache::new(0);
    }

    #[test]
    fn ttl_expires_entries_and_counts_expirations() {
        let cfg = GemConfig::fast();
        // Zero TTL: every entry is already expired at the next access.
        let mut cache = ModelCache::with_policy(CachePolicy::with_capacity(4).ttl(Duration::ZERO));
        let key = model_key(&corpus(1), &cfg, FeatureSet::ds());
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(cache.get(key).is_none(), "zero TTL must expire immediately");
        assert_eq!(cache.stats().expirations, 1);
        assert_eq!(cache.stats().misses, 2); // cold lookup + post-expiry lookup
                                             // A generous TTL keeps entries alive.
        let mut cache =
            ModelCache::with_policy(CachePolicy::with_capacity(4).ttl(Duration::from_secs(3600)));
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(cache.get(key).is_some());
        assert_eq!(cache.stats().expirations, 0);
    }

    #[test]
    fn memory_bound_evicts_lru_but_never_the_newest_entry() {
        let cfg = GemConfig::fast();
        // A 1-byte budget forces every insert over budget; the newest entry must
        // survive anyway so the cache can still serve.
        let mut cache = ModelCache::with_policy(CachePolicy::with_capacity(10).max_bytes(1));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let k2 = model_key(&corpus(2), &cfg, FeatureSet::ds());
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert_eq!(cache.len(), 1, "single over-budget entry stays resident");
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert!(!cache.contains(k1), "older entry evicted for memory");
        assert!(cache.contains(k2));
        assert_eq!(cache.stats().evictions, 1);
        // A budget comfortably above both models keeps both.
        let mut cache =
            ModelCache::with_policy(CachePolicy::with_capacity(10).max_bytes(64 * 1024 * 1024));
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn evictions_spill_to_the_store_and_misses_warm_start_from_it() {
        let tmp = TempStore::new("spill");
        let cfg = GemConfig::fast();
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        let (fitted, _) = cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        // Second model evicts the first, which spills to disk.
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(!cache.contains(k1));
        assert_eq!(cache.stats().spills, 1);
        assert!(tmp.store.contains(k1));
        // The next lookup warm-starts from disk — no fit — and the rehydrated model
        // transforms bit-identically.
        let (model, tier) = cache.get_with_tier(k1).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(cache.stats().warm_starts, 1);
        assert!(cache.contains(k1), "warm-started model becomes resident");
        let cols = corpus(1);
        assert_eq!(
            model.transform(&cols).unwrap().matrix,
            fitted.transform(&cols).unwrap().matrix
        );
        // A fresh cache (fresh process) over the same store warm-starts too: the fit
        // survives the restart.
        let mut fresh = ModelCache::new(2).with_store(Arc::clone(&tmp.store));
        let (_, avoided_fit) = fresh
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(avoided_fit, "restart must not re-pay the EM fit");
        assert_eq!(fresh.stats().warm_starts, 1);
        assert_eq!(fresh.stats().misses, 0);
    }

    #[test]
    fn spilling_skips_keys_already_on_disk() {
        let tmp = TempStore::new("skip");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap(); // spills corpus 1
                       // Warm-start corpus 1 back in (evicting + spilling corpus 2), then evict
                       // corpus 1 again: its snapshot already exists, so no second spill.
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        assert!(cache.get(k1).is_some());
        cache
            .get_or_fit(&corpus(3), &cfg, FeatureSet::ds())
            .unwrap(); // evicts corpus 1 again
        assert_eq!(
            cache.stats().spills,
            2,
            "corpus 1 spilled once, corpus 2 once"
        );
        assert_eq!(tmp.store.stats().unwrap().entries, 2);
    }

    #[test]
    fn corrupt_store_entries_degrade_to_a_cold_fit() {
        let tmp = TempStore::new("corrupt");
        let cfg = GemConfig::fast();
        let key = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap(); // spill corpus 1
        std::fs::write(tmp.store.path_of(key), "{ not json").unwrap();
        // The lookup surfaces no error: the corrupt snapshot counts a store_error, is
        // deleted (so it cannot shadow future spills), and the caller proceeds to a
        // cold fit.
        assert!(cache.get(key).is_none());
        assert_eq!(cache.stats().store_errors, 1);
        assert!(
            !tmp.store.contains(key),
            "corrupt snapshot must be deleted, not preserved"
        );
        let (_, avoided_fit) = cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(!avoided_fit, "corrupt snapshot must fall back to fitting");
        // Evicting the re-fitted model now re-writes a good snapshot in its place.
        cache
            .get_or_fit(&corpus(3), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(tmp.store.contains(key), "eviction repairs the snapshot");
        assert!(tmp.store.load(key).unwrap().is_some());
    }

    #[test]
    fn spills_execute_off_lock_so_a_slow_store_cannot_block_hits() {
        // Regression test for the off-lock store I/O design: an eviction only *queues*
        // the store write, so a cache shared behind a mutex keeps serving hits while the
        // write is in flight. (Previously the eviction wrote the snapshot in place —
        // under whatever lock guarded the cache — so a slow disk stalled every lookup.)
        let tmp = TempStore::new("off-lock");
        let cfg = GemConfig::fast();
        let cache = Arc::new(std::sync::Mutex::new(
            ModelCache::new(1).with_store(Arc::clone(&tmp.store)),
        ));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let k2 = model_key(&corpus(2), &cfg, FeatureSet::ds());
        let m1 = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        let m2 = Arc::new(GemModel::fit(&corpus(2), &cfg, FeatureSet::ds()).unwrap());
        // Inserting the second model evicts the first; its spill is queued, not written.
        let tasks = {
            let mut cache = cache.lock().unwrap();
            cache.insert(k1, m1);
            cache.insert(k2, m2);
            cache.take_pending_spills()
        };
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].key(), k1);
        // The "slow store": a writer thread that holds the task un-executed until
        // signalled — the exact window in which the old design kept the lock taken.
        let (signal, wait) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            wait.recv().unwrap();
            for task in tasks {
                assert!(task.execute());
            }
        });
        // While the write is pending, concurrent hits acquire the lock immediately.
        {
            let mut cache = cache.lock().unwrap();
            let (_, tier) = cache.get_with_tier(k2).unwrap();
            assert_eq!(tier, CacheTier::Memory);
            assert_eq!(cache.stats().hits, 1);
            assert_eq!(cache.stats().spills, 0, "write has not happened yet");
            assert!(!tmp.store.contains(k1));
        }
        signal.send(()).unwrap();
        writer.join().unwrap();
        // The off-lock completion still lands in this cache's stats (shared atomics).
        assert_eq!(cache.lock().unwrap().stats().spills, 1);
        assert!(tmp.store.contains(k1));
    }

    #[test]
    fn evict_removes_both_tiers_and_cancels_queued_spills() {
        let tmp = TempStore::new("evict");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let k2 = model_key(&corpus(2), &cfg, FeatureSet::ds());
        assert!(!cache.evict(k1), "nothing to evict yet");
        // Resident-tier eviction.
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        assert!(cache.evict(k1));
        assert!(!cache.contains(k1));
        assert_eq!(
            cache.stats().evictions,
            0,
            "request evictions are not policy evictions"
        );
        // Disk-tier eviction: spill corpus 1, then evict removes the snapshot too.
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        cache
            .get_or_fit(&corpus(2), &cfg, FeatureSet::ds())
            .unwrap(); // evicts + spills corpus 1 (get_or_fit flushes)
        assert!(tmp.store.contains(k1));
        assert!(cache.evict(k1));
        assert!(!tmp.store.contains(k1));
        // A spill still queued for an evicted key is cancelled, not written later.
        let m1 = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        cache.insert(k1, m1); // evicts corpus 2, queueing its spill
        assert!(cache.evict(k2), "queued spill counts as existing");
        cache.flush_spills();
        assert!(
            !tmp.store.contains(k2),
            "cancelled spill must not be written"
        );
    }

    #[test]
    fn evict_invalidates_spill_tasks_already_in_flight() {
        // The race: a policy eviction hands out a SpillTask; before it executes, an
        // explicit evict removes the model from every tier. The in-flight task must
        // not re-write the snapshot afterwards — that would resurrect the handle the
        // eviction just killed.
        let tmp = TempStore::new("evict-race");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let m1 = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        let m2 = Arc::new(GemModel::fit(&corpus(2), &cfg, FeatureSet::ds()).unwrap());
        cache.insert(k1, m1);
        cache.insert(
            model_key(&corpus(2), &cfg, FeatureSet::ds()),
            Arc::clone(&m2),
        );
        let tasks = cache.take_pending_spills(); // k1's spill, now "in flight"
        assert_eq!(tasks.len(), 1);
        cache.evict(k1); // lands while the spill is still un-executed
        for task in tasks {
            assert!(!task.execute(), "cancelled spill must not write");
        }
        assert!(
            !tmp.store.contains(k1),
            "an in-flight spill must not resurrect an evicted model"
        );
        assert_eq!(cache.stats().spills, 0);
        // Spills queued *after* the eviction belong to the key's new generation and
        // still work.
        let m1_again = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        cache.insert(k1, m1_again);
        cache.insert(model_key(&corpus(3), &cfg, FeatureSet::ds()), m2); // evicts k1
        cache.flush_spills(); // writes k1 and the corpus-2 model it displaced
        assert!(tmp.store.contains(k1), "post-evict refits spill normally");
        assert_eq!(cache.stats().spills, 2);
    }

    #[test]
    fn models_remain_resolvable_while_their_spill_is_queued_or_in_flight() {
        // Deferring spills must not open a window in which an evicted model resolves
        // nowhere: between the eviction and the (possibly slow) store write, lookups
        // re-promote the model from the spill pipeline instead of missing.
        let tmp = TempStore::new("resolvable");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let k2 = model_key(&corpus(2), &cfg, FeatureSet::ds());
        let m1 = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        let m2 = Arc::new(GemModel::fit(&corpus(2), &cfg, FeatureSet::ds()).unwrap());
        cache.insert(k1, m1);
        cache.insert(k2, m2); // k1 evicted, spill queued (not written)
        assert!(!tmp.store.contains(k1));
        // (a) Queued: k1 resolves from the pending queue, re-promoted as a memory hit.
        let (_, tier) = cache.get_with_tier(k1).expect("queued spill must resolve");
        assert_eq!(tier, CacheTier::Memory);
        assert!(cache.contains(k1));
        // The re-promotion displaced k2; hand its spill out as an in-flight task.
        let tasks = cache.take_pending_spills();
        assert!(tasks.iter().any(|t| t.key() == k2));
        // (b) In flight (handed out, not yet executed): k2 still resolves.
        let (_, tier) = cache
            .get_with_tier(k2)
            .expect("in-flight spill must resolve");
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(
            cache.stats().misses,
            0,
            "the spill pipeline is never a miss"
        );
        // Executing the now-stale tasks afterwards is harmless.
        for task in tasks {
            task.execute();
        }
        assert!(cache.get_with_tier(k2).is_some());
    }

    #[test]
    fn evicting_one_key_does_not_cancel_in_flight_spills_of_others() {
        // Cancellation is per-key: an Evict for one handle must not discard the spill
        // of an unrelated model that happens to be in flight at the same moment —
        // that model's handle is supposed to survive eviction-and-restart.
        let tmp = TempStore::new("evict-unrelated");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::new(1).with_store(Arc::clone(&tmp.store));
        let k1 = model_key(&corpus(1), &cfg, FeatureSet::ds());
        let m1 = Arc::new(GemModel::fit(&corpus(1), &cfg, FeatureSet::ds()).unwrap());
        let m2 = Arc::new(GemModel::fit(&corpus(2), &cfg, FeatureSet::ds()).unwrap());
        cache.insert(k1, m1);
        cache.insert(model_key(&corpus(2), &cfg, FeatureSet::ds()), m2);
        let tasks = cache.take_pending_spills(); // k1's spill, in flight
        assert_eq!(tasks.len(), 1);
        cache.evict(model_key(&corpus(3), &cfg, FeatureSet::ds())); // unrelated key
        for task in tasks {
            assert!(task.execute(), "unrelated evict must not cancel this spill");
        }
        assert!(tmp.store.contains(k1));
        assert_eq!(cache.stats().spills, 1);
    }

    #[test]
    fn ttl_expiry_does_not_spill() {
        let tmp = TempStore::new("no-spill-on-expiry");
        let cfg = GemConfig::fast();
        let mut cache = ModelCache::with_policy(CachePolicy::with_capacity(4).ttl(Duration::ZERO))
            .with_store(Arc::clone(&tmp.store));
        cache
            .get_or_fit(&corpus(1), &cfg, FeatureSet::ds())
            .unwrap();
        let key = model_key(&corpus(1), &cfg, FeatureSet::ds());
        assert!(cache.get(key).is_none()); // expired
        assert_eq!(cache.stats().expirations, 1);
        assert_eq!(
            cache.stats().spills,
            0,
            "expired entries are stale, not spilled"
        );
        assert_eq!(tmp.store.stats().unwrap().entries, 0);
    }
}
