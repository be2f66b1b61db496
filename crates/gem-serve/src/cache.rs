//! The model cache: every fitted model the service can answer with, addressed by its
//! [`ModelKey`] handle.
//!
//! Fitting a [`GemModel`] is the expensive step of the pipeline (the EM fit over the
//! stacked corpus); transforming against a fitted model is cheap. [`ModelCache`] keeps
//! the fitted models and answers three lookups: [`ModelCache::resolve`] (the model a
//! handle names, never fitted: the embed-by-handle path), [`ModelCache::get_or_fit`]
//! (resolve, else one EM fit per (corpus, configuration) key) and
//! [`ModelCache::fit_update`] (resolve the parent, then resolve or grow the derived
//! model).
//!
//! Two tiers:
//!
//! * **memory**: an LRU of at most [`CachePolicy::capacity`] models behind [`Arc`], so a
//!   hit hands out a shared handle and transforms run with no lock held;
//! * **store** (an optional [`ModelStore`]): a model evicted from memory **spills** to
//!   disk, and a lookup that misses memory **warm-starts** from disk, a deserialisation
//!   (~ms) instead of an EM re-fit, with bit-identical transforms.
//!
//! Handles are content hashes, so a resident model is never stale: nothing expires, and
//! with a store a handle survives both eviction and restart.
//!
//! **No store I/O under the lock.** One mutex guards the resident models, the spill
//! bookkeeping and the single-flight registry, and each critical section only moves
//! pointers. Snapshot reads, writes and deletes run after it drops, so a slow or hung
//! disk never blocks a lookup of another model:
//!
//! * An eviction hands the model to a spill that runs once the lock drops. Until the
//!   write finishes the model stays resolvable from the spill bookkeeping, and a key
//!   that already has a snapshot is not rewritten.
//! * A lookup that misses memory reads the store outside the lock.
//! * [`ModelCache::evict`] bumps its key's eviction generation under the lock, then
//!   unlinks the snapshot outside it. A spill of that key already in flight sees the
//!   generation move and leaves no snapshot behind, so "evict returned ⇒ the handle
//!   stops resolving" holds even mid-spill. Spills of other keys are untouched.
//!
//! **Single-flight.** A key that misses memory gets one *flight*: the first caller leads
//! it (reads the store and, for `get_or_fit`/`fit_update`, produces the model when the
//! store lacks it) and every concurrent caller of that key joins it and shares the
//! leader's `Arc`. N concurrent fits of one handle pay one EM fit
//! ([`CacheStats::coalesced_fits`]), and N concurrent warm starts decode once.
//!
//! Store failures never fail a lookup: they count in [`CacheStats::store_errors`], a
//! snapshot rejected as corrupt is deleted (so the next spill can write a good one), and
//! the lookup proceeds as a miss. Version mismatches are kept; they may belong to a newer
//! deployment sharing the store.

use crate::fingerprint::ModelKey;
use crate::sync::{lock_or_recover, wait_or_recover};
use gem_core::{FeatureSet, GemColumn, GemConfig, GemError, GemModel};
use gem_store::{ModelStore, StoreError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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

/// Which tier holds a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The model is resident in memory.
    Memory,
    /// The model is a snapshot in the attached on-disk store.
    Disk,
}

/// Cumulative cache counters. Every lookup counts exactly one of `hits`, `warm_starts`
/// and `misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory: resident models, models whose spill was still in
    /// flight, and lookups that joined another caller's warm start.
    pub hits: u64,
    /// Lookups that rehydrated a spilled model from the attached store.
    pub warm_starts: u64,
    /// Lookups that found the model in neither tier: cold fits, fits coalesced onto
    /// another caller's, and handles that resolve nowhere.
    pub misses: u64,
    /// Models evicted to respect the capacity bound.
    pub evictions: u64,
    /// Fits that joined another caller's in-flight fit of the same key instead of
    /// running EM (each also counts one miss).
    pub coalesced_fits: u64,
    /// Evicted models written to the attached store.
    pub spills: u64,
    /// Store reads, writes or deletes that failed (a failed read proceeds as a miss).
    pub store_errors: u64,
    /// Total microseconds spent inside cold-fit EM runs. Hits, warm starts, coalesced
    /// fits and `fit_update`s add nothing: the counter is exactly the time the fused EM
    /// kernels ran.
    pub fit_micros: u64,
    /// Total EM iterations across those cold fits' winning restarts.
    /// `fit_micros / em_iterations` approximates the per-iteration kernel cost a
    /// deployment actually pays.
    pub em_iterations: u64,
}

/// Eviction policy of the model cache.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Maximum number of resident models. Beyond it the least recently used model is
    /// evicted (and spilled, when a store is attached).
    pub capacity: usize,
}

impl CachePolicy {
    /// A policy holding at most `capacity` resident models.
    pub fn with_capacity(capacity: usize) -> Self {
        CachePolicy { capacity }
    }
}

/// One atomic per [`CacheStats`] field, so counts taken outside the lock (spills, fit
/// costs, flight outcomes) are never lost.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    warm_starts: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced_fits: AtomicU64,
    spills: AtomicU64,
    store_errors: AtomicU64,
    fit_micros: AtomicU64,
    em_iterations: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CacheStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: get(&self.hits),
            warm_starts: get(&self.warm_starts),
            misses: get(&self.misses),
            evictions: get(&self.evictions),
            coalesced_fits: get(&self.coalesced_fits),
            spills: get(&self.spills),
            store_errors: get(&self.store_errors),
            fit_micros: get(&self.fit_micros),
            em_iterations: get(&self.em_iterations),
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What a flight's leader found or made, shared with every caller that joined it.
#[derive(Debug, Clone)]
enum Landing {
    /// Read from the store: a warm start.
    Loaded(Arc<GemModel>),
    /// Fitted (or grown by `fit_update`) by the leader, or the error that produced.
    Produced(Result<Arc<GemModel>, GemError>),
    /// In neither tier; the leader was only resolving.
    Absent,
}

/// One key's store read (and, when the store lacks it, fit) in progress: its leader
/// finishes it, and callers that joined block until then.
#[derive(Debug, Default)]
struct Flight {
    landing: Mutex<Option<Landing>>,
    landed: Condvar,
}

impl Flight {
    fn finish(&self, landing: Landing) {
        *lock_or_recover(&self.landing) = Some(landing);
        self.landed.notify_all();
    }

    fn wait(&self) -> Landing {
        let mut landing = lock_or_recover(&self.landing);
        loop {
            if let Some(landed) = landing.as_ref() {
                return landed.clone();
            }
            landing = wait_or_recover(&self.landed, landing);
        }
    }
}

/// An evicted model on its way to the store, written after the cache lock drops.
#[derive(Debug)]
struct SpillTask {
    key: ModelKey,
    model: Arc<GemModel>,
    /// The key's eviction generation at eviction time; an explicit evict of the key
    /// since then cancels the write.
    generation: u64,
}

/// What a lookup found under the lock.
enum Lookup {
    /// Resident, or evicted with its spill still in flight (counted as a hit).
    Found(Arc<GemModel>),
    /// Another caller's flight for the key is in progress.
    Join(Arc<Flight>),
    /// This caller opened the key's flight, under the key's current eviction generation.
    Lead(Arc<Flight>, u64),
}

/// Everything the cache lock guards.
#[derive(Debug, Default)]
struct State {
    /// Resident models, most recently used first. Serving capacities are tens of
    /// models, so a linear scan beats a hash map plus an intrusive list.
    resident: Vec<(ModelKey, Arc<GemModel>)>,
    /// Evicted models whose spill has not finished. Lookups still resolve them, so a
    /// slow store write never makes a handle transiently unknown.
    spilling: HashMap<ModelKey, Arc<GemModel>>,
    /// Spills queued by inserts in the current critical section, run once it ends.
    spills: Vec<SpillTask>,
    /// Per-key eviction generation (absent means 0), bumped by every explicit evict.
    /// One small entry per distinct explicitly evicted key.
    generations: HashMap<ModelKey, u64>,
    /// The single-flight registry: keys whose store read or fit is in progress.
    flights: HashMap<ModelKey, Arc<Flight>>,
}

impl State {
    fn generation(&self, key: ModelKey) -> u64 {
        self.generations.get(&key).copied().unwrap_or(0)
    }
}

/// The two-tier model cache with single-flight store reads and fits (see the module
/// docs). Every operation takes `&self`: the service shares one cache across executor
/// threads.
#[derive(Debug)]
pub(crate) struct ModelCache {
    capacity: usize,
    store: Option<Arc<ModelStore>>,
    state: Mutex<State>,
    counters: Counters,
}

impl ModelCache {
    /// An empty, memory-only cache.
    ///
    /// # Panics
    /// Panics when `policy.capacity` is zero.
    pub(crate) fn new(policy: CachePolicy) -> Self {
        assert!(policy.capacity > 0, "model cache capacity must be positive");
        ModelCache {
            capacity: policy.capacity,
            store: None,
            state: Mutex::default(),
            counters: Counters::default(),
        }
    }

    /// Attach an on-disk store as the second tier: evictions spill to it and lookups
    /// that miss memory warm-start from it.
    pub(crate) fn with_store(mut self, store: Arc<ModelStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached store tier, if any.
    pub(crate) fn store(&self) -> Option<&Arc<ModelStore>> {
        self.store.as_ref()
    }

    /// The model `key` names, from memory or else the store, and where it came from.
    /// **Never fits**: a model in neither tier is `None`, which the service answers with
    /// its typed `UnknownModel`.
    pub(crate) fn resolve(&self, key: ModelKey) -> Option<(Arc<GemModel>, ServedFrom)> {
        match self.lookup(key) {
            Lookup::Found(model) => Some((model, ServedFrom::MemoryCache)),
            Lookup::Join(flight) => match flight.wait() {
                Landing::Loaded(model) | Landing::Produced(Ok(model)) => {
                    bump(&self.counters.hits);
                    Some((model, ServedFrom::MemoryCache))
                }
                Landing::Produced(Err(_)) | Landing::Absent => {
                    bump(&self.counters.misses);
                    None
                }
            },
            Lookup::Lead(flight, generation) => {
                let found = self.load(key);
                let landing = found.clone().map_or(Landing::Absent, Landing::Loaded);
                self.land(key, &flight, generation, landing);
                found.map(|model| (model, ServedFrom::DiskStore))
            }
        }
    }

    /// The model `key` names: resolved like [`ModelCache::resolve`] or, when neither
    /// tier holds it, fitted from `corpus` once across concurrent callers. Returns the
    /// model (or the fit error) and its provenance: `ColdFit` only for the caller that
    /// ran EM, so cold fits count EM runs exactly.
    pub(crate) fn get_or_fit(
        &self,
        key: ModelKey,
        corpus: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        self.get_or_produce(key, || {
            let started = Instant::now();
            let model = GemModel::fit(corpus, config, features)?;
            // Only a leader that found no snapshot gets here, so these are exactly the
            // time and iterations the fused EM kernels ran.
            self.counters
                .fit_micros
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            self.counters
                .em_iterations
                .fetch_add(model.em_iterations() as u64, Ordering::Relaxed);
            Ok(model)
        })
    }

    /// Fold `new_columns` into the model `parent` names: resolve the parent, then
    /// resolve the derived key ([`gem_store::updated_model_key`]) or derive it with
    /// [`GemModel::fit_update`] (frozen components, no EM run). Returns `None` when the
    /// parent resolves in neither tier; otherwise the derived key, the model (or the
    /// update error) and its provenance.
    ///
    /// Updates are single-flight like fits, and the lineage (`parent`) is saved to the
    /// store *before* the derived model becomes resolvable; later spills skip keys that
    /// already have a snapshot, so the parent pointer survives.
    pub(crate) fn fit_update(
        &self,
        parent: ModelKey,
        new_columns: &[GemColumn],
    ) -> Option<(ModelKey, Result<Arc<GemModel>, GemError>, ServedFrom)> {
        let (parent_model, _) = self.resolve(parent)?;
        let key = gem_store::updated_model_key(parent, new_columns);
        let (result, served_from) = self.get_or_produce(key, || {
            let updated = parent_model.fit_update(new_columns)?;
            if let Some(store) = &self.store {
                // Best-effort like every store write: the update still succeeds.
                if store.save_with_parent(key, Some(parent), &updated).is_err() {
                    bump(&self.counters.store_errors);
                }
            }
            Ok(updated)
        });
        Some((key, result, served_from))
    }

    /// Make an externally produced model (a `PushModel` snapshot) resident under `key`,
    /// resolvable exactly as if this cache had fitted it.
    pub(crate) fn publish(&self, key: ModelKey, model: Arc<GemModel>) {
        for task in self.admit(key, model) {
            self.spill(task);
        }
    }

    /// Remove `key` from both tiers: the resident model, a spill in flight and the
    /// snapshot. Returns whether either tier held it; a failed snapshot delete counts a
    /// store error and reports the key as existing. Unlike a capacity eviction nothing
    /// is spilled, and [`CacheStats::evictions`] is untouched.
    pub(crate) fn evict(&self, key: ModelKey) -> bool {
        let (in_memory, _) = self.locked(|state| {
            // Generation first: a spill of this key that checks after this point leaves
            // no snapshot behind, and the spilling entry goes too, so no lookup can
            // re-promote the evicted model.
            *state.generations.entry(key).or_insert(0) += 1;
            let spilling = state.spilling.remove(&key).is_some();
            let before = state.resident.len();
            state.resident.retain(|(k, _)| *k != key);
            spilling || state.resident.len() < before
        });
        let on_disk = self
            .store
            .as_ref()
            .is_some_and(|store| match store.remove(key) {
                Ok(removed) => removed,
                Err(_) => {
                    bump(&self.counters.store_errors);
                    true
                }
            });
        in_memory || on_disk
    }

    /// The resident models, most recently used first.
    pub(crate) fn resident_models(&self) -> Vec<(ModelKey, Arc<GemModel>)> {
        lock_or_recover(&self.state).resident.clone()
    }

    /// The counters, the resident model count and their approximate bytes, read under
    /// one lock so a report never mixes a count and a byte total from two instants.
    pub(crate) fn snapshot(&self) -> (CacheStats, usize, u64) {
        let state = lock_or_recover(&self.state);
        let bytes = state
            .resident
            .iter()
            .map(|(_, model)| model.approx_mem_bytes())
            .sum();
        (self.counters.snapshot(), state.resident.len(), bytes)
    }

    /// Resolve `key`, or produce it with `produce` once across concurrent callers.
    fn get_or_produce(
        &self,
        key: ModelKey,
        produce: impl FnOnce() -> Result<GemModel, GemError>,
    ) -> (Result<Arc<GemModel>, GemError>, ServedFrom) {
        let (flight, generation) = loop {
            match self.lookup(key) {
                Lookup::Found(model) => return (Ok(model), ServedFrom::MemoryCache),
                Lookup::Lead(flight, generation) => break (flight, generation),
                Lookup::Join(flight) => match flight.wait() {
                    Landing::Loaded(model) => {
                        bump(&self.counters.hits);
                        return (Ok(model), ServedFrom::MemoryCache);
                    }
                    Landing::Produced(result) => {
                        bump(&self.counters.misses);
                        bump(&self.counters.coalesced_fits);
                        // A shared *failure* is still the fit's failure.
                        let served_from = if result.is_ok() {
                            ServedFrom::MemoryCache
                        } else {
                            ServedFrom::ColdFit
                        };
                        return (result, served_from);
                    }
                    // The leader only resolved and found nothing: produce it ourselves.
                    Landing::Absent => continue,
                },
            }
        };
        let (landing, outcome) = match self.load(key) {
            Some(model) => (
                Landing::Loaded(Arc::clone(&model)),
                (Ok(model), ServedFrom::DiskStore),
            ),
            None => {
                let result = produce().map(Arc::new);
                (
                    Landing::Produced(result.clone()),
                    (result, ServedFrom::ColdFit),
                )
            }
        };
        self.land(key, &flight, generation, landing);
        outcome
    }

    /// Look `key` up under the lock: a resident model moves to the front, an evicted
    /// one whose spill is in flight is re-promoted, and otherwise the caller joins the
    /// key's flight or opens it.
    fn lookup(&self, key: ModelKey) -> Lookup {
        let (lookup, spills) = self.locked(|state| {
            let found = match state.resident.iter().position(|(k, _)| *k == key) {
                Some(pos) => {
                    let entry = state.resident.remove(pos);
                    let model = Arc::clone(&entry.1);
                    state.resident.insert(0, entry);
                    Some(model)
                }
                None => state.spilling.get(&key).cloned().inspect(|model| {
                    self.insert(state, key, Arc::clone(model));
                }),
            };
            if let Some(model) = found {
                bump(&self.counters.hits);
                return Lookup::Found(model);
            }
            if let Some(flight) = state.flights.get(&key) {
                return Lookup::Join(Arc::clone(flight));
            }
            let flight = Arc::new(Flight::default());
            state.flights.insert(key, Arc::clone(&flight));
            Lookup::Lead(flight, state.generation(key))
        });
        for task in spills {
            self.spill(task);
        }
        lookup
    }

    /// Read `key`'s snapshot, outside the lock.
    fn load(&self, key: ModelKey) -> Option<Arc<GemModel>> {
        let store = self.store.as_ref()?;
        match store.load(key) {
            Ok(model) => model.map(Arc::new),
            Err(error) => {
                bump(&self.counters.store_errors);
                // Without the delete, the spill's existence check would keep the bad
                // file forever.
                if matches!(error, StoreError::Corrupt { .. }) {
                    let _ = store.remove(key);
                }
                None
            }
        }
    }

    /// Retire the leader's flight: make its model resident (unless the key was
    /// explicitly evicted since the flight opened), count the outcome, and wake every
    /// caller that joined before running the spills the insert caused.
    fn land(&self, key: ModelKey, flight: &Flight, generation: u64, landing: Landing) {
        let (_, spills) = self.locked(|state| {
            state.flights.remove(&key);
            match &landing {
                Landing::Loaded(model) | Landing::Produced(Ok(model))
                    if state.generation(key) == generation =>
                {
                    self.insert(state, key, Arc::clone(model));
                }
                _ => {}
            }
        });
        match &landing {
            Landing::Loaded(_) => bump(&self.counters.warm_starts),
            Landing::Produced(_) | Landing::Absent => bump(&self.counters.misses),
        }
        flight.finish(landing);
        for task in spills {
            self.spill(task);
        }
    }

    /// Insert `model` as most recently used and return the spills the insert caused,
    /// not yet run: [`ModelCache::publish`] runs them at once, and tests hold them to
    /// keep a spill in flight.
    fn admit(&self, key: ModelKey, model: Arc<GemModel>) -> Vec<SpillTask> {
        self.locked(|state| self.insert(state, key, model)).1
    }

    /// Insert (or refresh) `model` as most recently used, evicting from the LRU end
    /// beyond the capacity. With a store, each evicted model stays resolvable in
    /// `spilling` and queues its spill.
    fn insert(&self, state: &mut State, key: ModelKey, model: Arc<GemModel>) {
        state.resident.retain(|(k, _)| *k != key);
        state.resident.insert(0, (key, model));
        while state.resident.len() > self.capacity {
            let Some((key, model)) = state.resident.pop() else {
                break;
            };
            bump(&self.counters.evictions);
            if self.store.is_some() {
                state.spilling.insert(key, Arc::clone(&model));
                let generation = state.generation(key);
                state.spills.push(SpillTask {
                    key,
                    model,
                    generation,
                });
            }
        }
    }

    /// Run `f` under the cache lock. Returns its result and the spills its inserts
    /// queued, which the caller runs once the lock has dropped.
    fn locked<R>(&self, f: impl FnOnce(&mut State) -> R) -> (R, Vec<SpillTask>) {
        let mut state = lock_or_recover(&self.state);
        let result = f(&mut state);
        (result, std::mem::take(&mut state.spills))
    }

    /// Write an evicted model's snapshot (outside the lock) and retire it from
    /// `spilling`. Returns whether a snapshot was written and kept.
    fn spill(&self, task: SpillTask) -> bool {
        let written = self.write_spill(&task);
        // However the write went, the model is no longer in flight: it is on disk,
        // resident again (a lookup re-promoted it), or deliberately gone.
        lock_or_recover(&self.state).spilling.remove(&task.key);
        written
    }

    fn write_spill(&self, task: &SpillTask) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        // The fit is deterministic in (corpus, config), so an existing snapshot is
        // already identical, and rewriting it would drop a `fit_update` lineage.
        if self.cancelled(task) || store.contains(task.key) {
            return false;
        }
        match store.save(task.key, &task.model) {
            Ok(_) if self.cancelled(task) => {
                // An evict of this key landed during the write and has already deleted
                // the old snapshot, so delete ours.
                let _ = store.remove(task.key);
                false
            }
            Ok(_) => {
                bump(&self.counters.spills);
                true
            }
            Err(_) => {
                bump(&self.counters.store_errors);
                false
            }
        }
    }

    fn cancelled(&self, task: &SpillTask) -> bool {
        lock_or_recover(&self.state).generation(task.key) != task.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::model_key;

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

    fn key_of(seed: u64) -> ModelKey {
        model_key(&corpus(seed), &GemConfig::fast(), FeatureSet::ds())
    }

    fn fitted(seed: u64) -> Arc<GemModel> {
        Arc::new(GemModel::fit(&corpus(seed), &GemConfig::fast(), FeatureSet::ds()).unwrap())
    }

    fn cache(capacity: usize) -> ModelCache {
        ModelCache::new(CachePolicy::with_capacity(capacity))
    }

    /// Fetch (or fit) the D+S model of `corpus(seed)`, the way a `Fit` request does.
    fn fit(cache: &ModelCache, seed: u64) -> (Arc<GemModel>, ServedFrom) {
        let (model, served_from) = cache.get_or_fit(
            key_of(seed),
            &corpus(seed),
            &GemConfig::fast(),
            FeatureSet::ds(),
        );
        (model.unwrap(), served_from)
    }

    fn stats(cache: &ModelCache) -> CacheStats {
        cache.snapshot().0
    }

    fn is_resident(cache: &ModelCache, key: ModelKey) -> bool {
        cache.resident_models().iter().any(|(k, _)| *k == key)
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

        fn cache(&self, capacity: usize) -> ModelCache {
            cache(capacity).with_store(Arc::clone(&self.store))
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = cache(2);
        assert_eq!(fit(&cache, 1).1, ServedFrom::ColdFit);
        assert_eq!(fit(&cache, 1).1, ServedFrom::MemoryCache);
        let (stats, resident, bytes) = cache.snapshot();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1, "the cold lookup counted one miss");
        assert_eq!(resident, 1);
        assert!(bytes > 0);
    }

    #[test]
    fn same_corpus_different_config_is_a_different_entry() {
        let cache = cache(4);
        let cfg = GemConfig::fast();
        let cols = corpus(1);
        fit(&cache, 1);
        let (_, served_from) = cache.get_or_fit(
            model_key(&cols, &cfg, FeatureSet::d()),
            &cols,
            &cfg,
            FeatureSet::d(),
        );
        assert_eq!(
            served_from,
            ServedFrom::ColdFit,
            "feature-set change must miss"
        );
        let mut other = cfg.clone();
        other.gmm.n_components += 1;
        let (_, served_from) = cache.get_or_fit(
            model_key(&cols, &other, FeatureSet::ds()),
            &cols,
            &other,
            FeatureSet::ds(),
        );
        assert_eq!(
            served_from,
            ServedFrom::ColdFit,
            "component-count change must miss"
        );
        assert_eq!(cache.resident_models().len(), 3);
    }

    #[test]
    fn data_change_is_a_different_entry() {
        let cache = cache(4);
        let cfg = GemConfig::fast();
        fit(&cache, 1);
        let mut perturbed = corpus(1);
        perturbed[0].values[7] += 1e-9;
        let (_, served_from) = cache.get_or_fit(
            model_key(&perturbed, &cfg, FeatureSet::ds()),
            &perturbed,
            &cfg,
            FeatureSet::ds(),
        );
        assert_eq!(
            served_from,
            ServedFrom::ColdFit,
            "a single perturbed value must miss"
        );
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used() {
        let cache = cache(2);
        fit(&cache, 1);
        fit(&cache, 2);
        // Touch corpus 1 so corpus 2 becomes least recently used.
        assert!(cache.resolve(key_of(1)).is_some());
        fit(&cache, 3);
        assert!(is_resident(&cache, key_of(1)));
        assert!(!is_resident(&cache, key_of(2)), "LRU entry must be evicted");
        assert!(is_resident(&cache, key_of(3)));
        assert_eq!(stats(&cache).evictions, 1);
        assert_eq!(cache.resident_models().len(), 2);
    }

    #[test]
    fn failed_fits_are_not_cached() {
        let cache = cache(2);
        let cfg = GemConfig::fast();
        let empty = vec![GemColumn::values_only(vec![])];
        let key = model_key(&empty, &cfg, FeatureSet::ds());
        let (result, served_from) = cache.get_or_fit(key, &empty, &cfg, FeatureSet::ds());
        assert!(result.is_err());
        assert_eq!(served_from, ServedFrom::ColdFit);
        assert!(cache.resident_models().is_empty());
        assert!(cache.resolve(key).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        cache(0);
    }

    #[test]
    fn evictions_spill_to_the_store_and_misses_warm_start_from_it() {
        let tmp = TempStore::new("spill");
        let cache = tmp.cache(1);
        let (fitted, _) = fit(&cache, 1);
        // Second model evicts the first, which spills to disk.
        fit(&cache, 2);
        assert!(!is_resident(&cache, key_of(1)));
        assert_eq!(stats(&cache).spills, 1);
        assert!(tmp.store.contains(key_of(1)));
        // The next lookup warm-starts from disk — no fit — and the rehydrated model
        // transforms bit-identically.
        let (model, served_from) = cache.resolve(key_of(1)).unwrap();
        assert_eq!(served_from, ServedFrom::DiskStore);
        assert_eq!(stats(&cache).warm_starts, 1);
        assert!(
            is_resident(&cache, key_of(1)),
            "warm-started model becomes resident"
        );
        let cols = corpus(1);
        assert_eq!(
            model.transform(&cols).unwrap().matrix,
            fitted.transform(&cols).unwrap().matrix
        );
    }

    #[test]
    fn warm_starts_from_the_store_across_restarts() {
        let tmp = TempStore::new("restart");
        // Process 1: fit, then force a spill by overflowing the capacity-1 cache.
        let first = tmp.cache(1);
        let (fitted, served_from) = fit(&first, 7);
        assert_eq!(served_from, ServedFrom::ColdFit);
        fit(&first, 8);
        assert_eq!(stats(&first).spills, 1);

        // "Process 2": a fresh cache over the same store directory. The fit request
        // warm-starts from disk — no EM fit — and the output is bit-identical.
        let restarted = tmp.cache(4);
        let (warm, served_from) = fit(&restarted, 7);
        assert_eq!(served_from, ServedFrom::DiskStore);
        assert_eq!(stats(&restarted).warm_starts, 1);
        assert_eq!(stats(&restarted).misses, 0);
        assert_eq!(
            stats(&restarted).fit_micros,
            0,
            "restart must not re-pay EM"
        );
        let cols = corpus(7);
        assert_eq!(
            warm.transform(&cols).unwrap().matrix,
            fitted.transform(&cols).unwrap().matrix
        );
    }

    #[test]
    fn spilling_skips_keys_already_on_disk() {
        let tmp = TempStore::new("skip");
        let cache = tmp.cache(1);
        fit(&cache, 1);
        // Corpus 2 spills corpus 1. Warm-starting corpus 1 back in spills corpus 2, and
        // corpus 3 then evicts corpus 1 again: its snapshot already exists, so no
        // second spill.
        fit(&cache, 2);
        assert!(cache.resolve(key_of(1)).is_some());
        fit(&cache, 3);
        assert_eq!(
            stats(&cache).spills,
            2,
            "corpus 1 spilled once, corpus 2 once"
        );
        assert_eq!(tmp.store.stats().unwrap().entries, 2);
    }

    #[test]
    fn corrupt_store_entries_degrade_to_a_cold_fit() {
        let tmp = TempStore::new("corrupt");
        let cache = tmp.cache(1);
        let key = key_of(1);
        fit(&cache, 1);
        fit(&cache, 2); // spill corpus 1
        std::fs::write(tmp.store.path_of(key), "{ not json").unwrap();
        // The lookup surfaces no error: the corrupt snapshot counts a store_error, is
        // deleted (so it cannot shadow future spills), and resolves nowhere.
        assert!(cache.resolve(key).is_none());
        assert_eq!(stats(&cache).store_errors, 1);
        assert!(
            !tmp.store.contains(key),
            "corrupt snapshot must be deleted, not preserved"
        );
        assert_eq!(
            fit(&cache, 1).1,
            ServedFrom::ColdFit,
            "corrupt snapshot must fall back to fitting"
        );
        // Evicting the re-fitted model now re-writes a good snapshot in its place.
        fit(&cache, 3);
        assert!(tmp.store.contains(key), "eviction repairs the snapshot");
        assert!(tmp.store.load(key).unwrap().is_some());
    }

    #[test]
    fn spills_execute_off_lock_so_a_slow_store_cannot_block_hits() {
        // An eviction only hands its store write out, so the cache keeps serving hits
        // while the write is pending. (Writing the snapshot under the lock would stall
        // every lookup for as long as the disk is slow.)
        let tmp = TempStore::new("off-lock");
        let cache = tmp.cache(1);
        let (k1, k2) = (key_of(1), key_of(2));
        assert!(cache.admit(k1, fitted(1)).is_empty());
        // Inserting the second model evicts the first; its spill is handed out, not run.
        let tasks = cache.admit(k2, fitted(2));
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].key, k1);
        std::thread::scope(|scope| {
            // The "slow store": a writer thread that holds the task un-executed until
            // signalled.
            let (signal, wait) = std::sync::mpsc::channel::<()>();
            let cache = &cache;
            let writer = scope.spawn(move || {
                wait.recv().unwrap();
                for task in tasks {
                    assert!(cache.spill(task));
                }
            });
            // While the write is pending, concurrent hits take the lock immediately.
            let (_, served_from) = cache.resolve(k2).unwrap();
            assert_eq!(served_from, ServedFrom::MemoryCache);
            assert_eq!(stats(cache).hits, 1);
            assert_eq!(stats(cache).spills, 0, "write has not happened yet");
            assert!(!tmp.store.contains(k1));
            signal.send(()).unwrap();
            writer.join().unwrap();
        });
        // The off-lock completion lands in the same counters.
        assert_eq!(stats(&cache).spills, 1);
        assert!(tmp.store.contains(k1));
    }

    #[test]
    fn evict_removes_both_tiers_and_cancels_queued_spills() {
        let tmp = TempStore::new("evict");
        let cache = tmp.cache(1);
        let (k1, k2) = (key_of(1), key_of(2));
        assert!(!cache.evict(k1), "nothing to evict yet");
        // Resident-tier eviction.
        fit(&cache, 1);
        assert!(cache.evict(k1));
        assert!(!is_resident(&cache, k1));
        assert_eq!(
            stats(&cache).evictions,
            0,
            "request evictions are not policy evictions"
        );
        // Disk-tier eviction: spill corpus 1, then evict removes the snapshot too.
        fit(&cache, 1);
        fit(&cache, 2); // evicts + spills corpus 1
        assert!(tmp.store.contains(k1));
        assert!(cache.evict(k1));
        assert!(!tmp.store.contains(k1));
        // A spill still queued for an evicted key is cancelled, not written later.
        let tasks = cache.admit(k1, fitted(1)); // evicts corpus 2, queueing its spill
        assert!(cache.evict(k2), "queued spill counts as existing");
        for task in tasks {
            assert!(!cache.spill(task));
        }
        assert!(
            !tmp.store.contains(k2),
            "cancelled spill must not be written"
        );
        assert!(cache.resolve(k2).is_none());
    }

    #[test]
    fn evict_invalidates_spill_tasks_already_in_flight() {
        // The race: an eviction hands out a spill; before it executes, an explicit evict
        // removes the model from every tier. The in-flight spill must not re-write the
        // snapshot afterwards — that would resurrect the handle the evict just killed.
        let tmp = TempStore::new("evict-race");
        let cache = tmp.cache(1);
        let k1 = key_of(1);
        cache.admit(k1, fitted(1));
        let tasks = cache.admit(key_of(2), fitted(2)); // k1's spill, now in flight
        assert_eq!(tasks.len(), 1);
        cache.evict(k1); // lands while the spill is still un-executed
        for task in tasks {
            assert!(!cache.spill(task), "cancelled spill must not write");
        }
        assert!(
            !tmp.store.contains(k1),
            "an in-flight spill must not resurrect an evicted model"
        );
        assert_eq!(stats(&cache).spills, 0);
        // Spills queued *after* the eviction belong to the key's new generation and
        // still work.
        let mut tasks = cache.admit(k1, fitted(1)); // evicts corpus 2
        tasks.extend(cache.admit(key_of(3), fitted(3))); // evicts k1
        for task in tasks {
            assert!(cache.spill(task));
        }
        assert!(tmp.store.contains(k1), "post-evict refits spill normally");
        assert_eq!(stats(&cache).spills, 2);
    }

    #[test]
    fn models_remain_resolvable_while_their_spill_is_queued_or_in_flight() {
        // Handing spills out must not open a window in which an evicted model resolves
        // nowhere: between the eviction and the (possibly slow) store write, lookups
        // re-promote the model from the spill bookkeeping instead of missing.
        let tmp = TempStore::new("resolvable");
        let cache = tmp.cache(1);
        let (k1, k2) = (key_of(1), key_of(2));
        cache.admit(k1, fitted(1));
        let tasks = cache.admit(k2, fitted(2)); // k1 evicted, spill handed out
        assert!(!tmp.store.contains(k1));
        // Handed out, not yet executed: k1 re-promotes as a memory hit. That evicts k2,
        // whose spill the lookup itself runs once the lock drops.
        let (_, served_from) = cache.resolve(k1).expect("in-flight spill must resolve");
        assert_eq!(served_from, ServedFrom::MemoryCache);
        assert!(is_resident(&cache, k1));
        assert!(tmp.store.contains(k2));
        assert_eq!(
            stats(&cache).misses,
            0,
            "the spill pipeline is never a miss"
        );
        // Executing the stale task afterwards is harmless.
        for task in tasks {
            cache.spill(task);
        }
        assert!(cache.resolve(k1).is_some());
        assert!(cache.resolve(k2).is_some());
        assert_eq!(stats(&cache).misses, 0);
    }

    #[test]
    fn evicting_one_key_does_not_cancel_in_flight_spills_of_others() {
        // Cancellation is per-key: an Evict for one handle must not discard the spill
        // of an unrelated model that happens to be in flight at the same moment —
        // that model's handle is supposed to survive eviction-and-restart.
        let tmp = TempStore::new("evict-unrelated");
        let cache = tmp.cache(1);
        let k1 = key_of(1);
        cache.admit(k1, fitted(1));
        let tasks = cache.admit(key_of(2), fitted(2)); // k1's spill, in flight
        assert_eq!(tasks.len(), 1);
        cache.evict(key_of(3)); // unrelated key
        for task in tasks {
            assert!(
                cache.spill(task),
                "unrelated evict must not cancel this spill"
            );
        }
        assert!(tmp.store.contains(k1));
        assert_eq!(stats(&cache).spills, 1);
    }

    #[test]
    fn concurrent_warm_starts_of_one_handle_decode_once() {
        // Eight threads resolve one spilled handle at once: one leads the store read,
        // the rest join it (or find the model resident afterwards). The accounting is
        // exact either way.
        const THREADS: usize = 8;
        let tmp = TempStore::new("warm-flight");
        let cache = tmp.cache(1);
        fit(&cache, 1);
        fit(&cache, 2); // spills corpus 1
        let before = stats(&cache);
        let barrier = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<(Arc<GemModel>, ServedFrom)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        cache.resolve(key_of(1)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let from_disk = outcomes
            .iter()
            .filter(|(_, sf)| *sf == ServedFrom::DiskStore)
            .count();
        assert_eq!(from_disk, 1, "exactly one decode across {THREADS}");
        let after = stats(&cache);
        assert_eq!(after.warm_starts - before.warm_starts, 1);
        assert_eq!(after.hits - before.hits, (THREADS - 1) as u64);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.coalesced_fits, 0);
        assert!(outcomes.iter().all(|(m, _)| Arc::ptr_eq(m, &outcomes[0].0)));
    }

    /// Put a FIFO where `key`'s snapshot belongs, so a store read of it blocks until
    /// the test writes the file's contents.
    #[cfg(unix)]
    fn fifo_snapshot(store: &ModelStore, key: ModelKey) -> std::path::PathBuf {
        let path = store.path_of(key);
        let made = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .unwrap();
        assert!(made.success(), "mkfifo failed");
        path
    }

    /// Open the FIFO for writing. This returns once a reader has opened it, so that
    /// reader is now blocked inside its store read.
    #[cfg(unix)]
    fn wait_for_reader(fifo: &std::path::Path) -> std::fs::File {
        std::fs::OpenOptions::new().write(true).open(fifo).unwrap()
    }

    #[cfg(unix)]
    #[test]
    fn an_evict_during_a_warm_start_does_not_resurrect_the_handle() {
        // The store read runs outside the lock, so an Evict can land while it is in
        // progress. The reader still answers its own caller, but must not make the
        // model resident: the evict already returned, and the handle stays gone.
        use std::io::Write;
        let tmp = TempStore::new("evict-mid-load");
        let key = key_of(1);
        let snapshot_path = tmp.store.save(key, &fitted(1)).unwrap();
        let snapshot = std::fs::read(&snapshot_path).unwrap();
        std::fs::remove_file(&snapshot_path).unwrap();
        let fifo = fifo_snapshot(&tmp.store, key);
        let cache = tmp.cache(2);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| cache.resolve(key));
            let mut writer = wait_for_reader(&fifo);
            assert!(cache.evict(key), "the snapshot existed");
            writer.write_all(&snapshot).unwrap();
            drop(writer);
            let (_, served_from) = reader.join().unwrap().expect("the read completed");
            assert_eq!(served_from, ServedFrom::DiskStore);
        });
        assert!(!is_resident(&cache, key));
        assert!(
            cache.resolve(key).is_none(),
            "the evicted handle stays gone"
        );
    }

    #[cfg(unix)]
    #[test]
    fn a_resolve_joins_an_in_flight_fit_of_its_key() {
        // A Fit leads its key's flight: it reads the store first (here a corrupt
        // snapshot, which it deletes) and then fits. A resolve of the same key meanwhile
        // waits for that flight and shares its model instead of answering unknown.
        use std::io::Write;
        let tmp = TempStore::new("join-fit");
        let key = key_of(1);
        let fifo = fifo_snapshot(&tmp.store, key);
        let cache = tmp.cache(2);
        std::thread::scope(|scope| {
            let fitter = scope.spawn(|| fit(&cache, 1));
            let mut writer = wait_for_reader(&fifo);
            let resolver = scope.spawn(|| cache.resolve(key));
            // The resolver has joined once it holds a third reference to the flight
            // (the registry and the leader hold the other two).
            while lock_or_recover(&cache.state)
                .flights
                .get(&key)
                .map_or(0, Arc::strong_count)
                < 3
            {
                std::thread::yield_now();
            }
            writer.write_all(b"{ not json").unwrap();
            drop(writer);
            let (fitted, fitted_from) = fitter.join().unwrap();
            let (joined, joined_from) = resolver.join().unwrap().expect("joined the fit");
            assert_eq!(fitted_from, ServedFrom::ColdFit);
            assert_eq!(joined_from, ServedFrom::MemoryCache);
            assert!(Arc::ptr_eq(&fitted, &joined));
        });
        let stats = stats(&cache);
        assert_eq!((stats.misses, stats.hits, stats.warm_starts), (1, 1, 0));
        assert_eq!(stats.store_errors, 1, "the corrupt snapshot was counted");
        assert_eq!(stats.coalesced_fits, 0, "a resolve is not a fit");
        assert!(!tmp.store.contains(key), "the corrupt snapshot was deleted");
    }

    #[test]
    fn warm_transform_matches_one_shot_embed_exactly() {
        let cache = cache(2);
        let cols = corpus(2);
        let (cold, cold_from) = fit(&cache, 2);
        assert_eq!(cold_from, ServedFrom::ColdFit);
        let (warm, warm_from) = fit(&cache, 2);
        assert_eq!(warm_from, ServedFrom::MemoryCache);
        assert_eq!(stats(&cache).hits, 1);
        let direct = gem_core::GemEmbedder::new(GemConfig::fast())
            .embed(&cols, FeatureSet::ds())
            .unwrap();
        assert_eq!(cold.transform(&cols).unwrap().matrix, direct.matrix);
        assert_eq!(warm.transform(&cols).unwrap().matrix, direct.matrix);
    }

    #[test]
    fn fit_update_derives_a_lineaged_handle_without_a_new_em_run() {
        let tmp = TempStore::new("fit-update");
        let cache = tmp.cache(4);
        let parent = key_of(11);
        let growth = vec![GemColumn::new(
            (0..60).map(|i| 500.0 + (i % 13) as f64 * 2.5).collect(),
            "grown",
        )];

        // An unknown parent is a typed miss, never a fabricated model.
        assert!(cache.fit_update(parent, &growth).is_none());

        fit(&cache, 11);
        let after_fit = stats(&cache);
        assert!(after_fit.fit_micros > 0);
        assert!(after_fit.em_iterations > 0);

        let (key, updated, served_from) = cache.fit_update(parent, &growth).unwrap();
        let updated = updated.unwrap();
        assert_ne!(key, parent);
        assert_eq!(served_from, ServedFrom::ColdFit);
        assert_eq!(updated.n_fit_columns(), corpus(11).len() + 1);
        // The update froze the parent's components: no EM ran, so the fit-cost
        // counters did not move.
        let after_update = stats(&cache);
        assert_eq!(after_update.fit_micros, after_fit.fit_micros);
        assert_eq!(after_update.em_iterations, after_fit.em_iterations);
        // Lineage was written to the store tier before the handle became resolvable.
        assert_eq!(tmp.store.parent_of(key).unwrap(), Some(parent));

        // The same growth again is a pure cache hit on the derived key.
        let (key_again, hit, from_again) = cache.fit_update(parent, &growth).unwrap();
        assert_eq!(key_again, key);
        assert_eq!(from_again, ServedFrom::MemoryCache);
        assert!(Arc::ptr_eq(&hit.unwrap(), &updated));
    }

    #[test]
    fn concurrent_duplicate_fits_coalesce_onto_one_em_run() {
        // Eight threads race the same cold Fit through one cache (the worker-pool
        // server's shape). Single-flight guarantees exactly one of them pays the EM
        // fit; the rest are either plain cache hits (they looked up after the leader
        // published) or coalesced onto the in-flight computation — and the accounting
        // is exact: duplicates = hits + coalesced_fits.
        const THREADS: usize = 8;
        let cache = cache(4);
        let barrier = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<(Arc<GemModel>, ServedFrom)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        fit(cache, 5)
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
        let stats = stats(&cache);
        assert_eq!(
            stats.coalesced_fits + stats.hits,
            (THREADS - 1) as u64,
            "every duplicate was a hit or coalesced: {stats:?}"
        );
        assert_eq!(stats.hits + stats.misses, THREADS as u64);
        assert_eq!(cache.resident_models().len(), 1);
        // All eight callers hold the same fitted model: the very same Arc.
        assert!(outcomes.iter().all(|(m, _)| Arc::ptr_eq(m, &outcomes[0].0)));
        assert_eq!(fit(&cache, 5).1, ServedFrom::MemoryCache);
    }

    #[test]
    fn published_models_resolve_like_fitted_ones() {
        // The PushModel path: an externally produced model enters via publish() and
        // the handle resolves without this cache ever fitting.
        let cache = cache(4);
        let key = key_of(6);
        let model = fitted(6);
        assert!(cache.resolve(key).is_none());
        cache.publish(key, Arc::clone(&model));
        let (resolved, served_from) = cache.resolve(key).expect("published model resolves");
        assert_eq!(served_from, ServedFrom::MemoryCache);
        assert!(Arc::ptr_eq(&resolved, &model));
    }
}
