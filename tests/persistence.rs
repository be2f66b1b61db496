//! The persistence contract, asserted as properties over the four corpus simulators:
//!
//! 1. A fitted `GemModel` saved to a `ModelStore` and reloaded (as a fresh process
//!    would) produces **bit-identical** `transform` output — exact `==` on every block,
//!    for every feature set the registry's Gem family feeds, every composition, and all
//!    four `CorpusKind` corpora. This is what lets a serving fleet restart without
//!    re-paying a single EM fit (mirrors tests/model_transform.rs for the fit/transform
//!    seam).
//! 2. Every fitted component round-trips exactly on its own (scaler, autoencoder, text
//!    embedder, config) — the envelope is only as good as its parts.
//! 3. Corrupt snapshots and foreign format versions fail **at load time** with a
//!    descriptive error, never at serve time with wrong numbers.
//! 4. The serving cache's two tiers compose: evictions spill to disk, fresh services
//!    warm-start from disk, the warm-started model is bit-identical, and the store read
//!    never blocks lookups of other models.

use gem::core::{
    Composition, FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry,
    GEM_MODEL_SCHEMA_VERSION,
};
use gem::data::{build_corpus, CorpusConfig, CorpusKind};
use gem::gmm::GmmConfig;
use gem::json::{FromJson, Json, ToJson};
use gem::serve::{CachePolicy, EmbedService, ServeRequest, ServedFrom};
use gem::store::{model_key, GcPolicy, ModelStore, StoreError, STORE_FORMAT_MIN_VERSION};
use std::path::PathBuf;
use std::sync::Arc;

const ALL_KINDS: [CorpusKind; 4] = [
    CorpusKind::Gds,
    CorpusKind::Wdc,
    CorpusKind::SatoTables,
    CorpusKind::GitTables,
];

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "gem-persistence-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn corpus_columns(kind: CorpusKind) -> Vec<GemColumn> {
    let dataset = build_corpus(
        kind,
        &CorpusConfig {
            scale: 0.02,
            min_values: 20,
            max_values: 40,
            seed: 11,
        },
    );
    dataset
        .columns
        .iter()
        .map(|c| GemColumn::new(c.values.clone(), c.header.clone()))
        .collect()
}

fn fast_config() -> GemConfig {
    GemConfig {
        gmm: GmmConfig::with_components(6).restarts(2).with_seed(7),
        text_dim: 32,
        ..GemConfig::default()
    }
}

fn unseen_queries() -> Vec<GemColumn> {
    vec![
        GemColumn::new((0..35).map(|i| 7.0 + (i % 23) as f64 * 1.3).collect(), "q0"),
        GemColumn::new(
            (0..35)
                .map(|i| 40_000.0 + (i % 17) as f64 * 900.0)
                .collect(),
            "q1",
        ),
        GemColumn::values_only(vec![]),
    ]
}

fn assert_bit_identical(a: &GemModel, b: &GemModel, columns: &[GemColumn], label: &str) {
    for input in [columns, &unseen_queries()[..]] {
        let x = a.transform(input).unwrap();
        let y = b.transform(input).unwrap();
        assert_eq!(x.matrix, y.matrix, "{label}: matrix");
        assert_eq!(x.signature, y.signature, "{label}: signature");
        assert_eq!(x.value_block, y.value_block, "{label}: value block");
        assert_eq!(x.header_block, y.header_block, "{label}: header block");
    }
    assert_eq!(a.dim(), b.dim(), "{label}: dim");
    assert_eq!(a.config(), b.config(), "{label}: config");
    assert_eq!(a.features(), b.features(), "{label}: features");
    assert_eq!(
        a.n_fit_columns(),
        b.n_fit_columns(),
        "{label}: n_fit_columns"
    );
}

#[test]
fn saved_models_transform_bit_identically_on_all_corpora_and_feature_sets() {
    let tmp = TempDir::new("all-corpora");
    let store = ModelStore::open(&tmp.0).unwrap();
    let config = fast_config();
    for kind in ALL_KINDS {
        let columns = corpus_columns(kind);
        for features in [
            FeatureSet::d(),
            FeatureSet::s(),
            FeatureSet::c(),
            FeatureSet::ds(),
            FeatureSet::cs(),
            FeatureSet::dc(),
            FeatureSet::dsc(),
        ] {
            let label = format!("{kind:?}/{}", features.label());
            let model = GemModel::fit(&columns, &config, features).unwrap();
            let key = model_key(&columns, &config, features);
            store.save(key, &model).unwrap();
            // Reload as a fresh process would: nothing shared with `model` but the file.
            let loaded = store.load(key).unwrap().unwrap();
            assert_bit_identical(&model, &loaded, &columns, &label);
        }
    }
    // Every (corpus, feature set) pair filed under its own key.
    assert_eq!(store.stats().unwrap().entries, 4 * 7);
}

#[test]
fn saved_models_transform_bit_identically_across_compositions() {
    let tmp = TempDir::new("compositions");
    let store = ModelStore::open(&tmp.0).unwrap();
    let columns = corpus_columns(CorpusKind::Gds);
    for composition in [
        Composition::Concatenation,
        Composition::Aggregation,
        Composition::Autoencoder {
            latent_dim: 8,
            epochs: 30,
        },
    ] {
        let config = fast_config().with_composition(composition);
        let model = GemModel::fit(&columns, &config, FeatureSet::dsc()).unwrap();
        let key = model_key(&columns, &config, FeatureSet::dsc());
        store.save(key, &model).unwrap();
        let loaded = store.load(key).unwrap().unwrap();
        assert_bit_identical(&model, &loaded, &columns, composition.label());
    }
}

#[test]
fn json_envelope_survives_text_round_trip_not_just_value_round_trip() {
    // Serialise → print → parse → deserialise, the exact path a file on disk takes.
    let columns = corpus_columns(CorpusKind::Wdc);
    let config = fast_config().with_composition(Composition::Autoencoder {
        latent_dim: 6,
        epochs: 20,
    });
    let model = GemModel::fit(&columns, &config, FeatureSet::dsc()).unwrap();
    for text in [
        model.to_json().to_compact_string(),
        model.to_json().to_pretty_string(),
    ] {
        let loaded = GemModel::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_bit_identical(&model, &loaded, &columns, "text round trip");
    }
}

#[test]
fn corrupt_files_and_version_mismatches_fail_at_load_time() {
    let tmp = TempDir::new("corruption");
    let store = ModelStore::open(&tmp.0).unwrap();
    let columns = corpus_columns(CorpusKind::SatoTables);
    let config = fast_config();
    let model = GemModel::fit(&columns, &config, FeatureSet::ds()).unwrap();
    let key = model_key(&columns, &config, FeatureSet::ds());
    let path = store.save(key, &model).unwrap();
    let pristine = std::fs::read_to_string(&path).unwrap();

    // Truncation, garbage, and flipped weight encodings are all Corrupt.
    for bad in [
        &pristine[..pristine.len() / 3],
        "not json at all",
        &pristine.replace("\"weights\"", "\"wights\""),
    ] {
        std::fs::write(&path, bad).unwrap();
        assert!(
            matches!(store.load(key), Err(StoreError::Corrupt { .. })),
            "should reject: {}",
            &bad[..bad.len().min(40)]
        );
    }

    // A foreign store format version is reported as a version mismatch. Plain saves
    // (no lineage) are written at the oldest expressible version.
    let version_needle = format!("\"format_version\":{STORE_FORMAT_MIN_VERSION}");
    assert!(
        pristine.contains(&version_needle),
        "snapshot header changed shape"
    );
    std::fs::write(
        &path,
        pristine.replace(&version_needle, "\"format_version\":999"),
    )
    .unwrap();
    assert!(matches!(
        store.load(key),
        Err(StoreError::VersionMismatch { found: 999, .. })
    ));

    // A foreign *model schema* version inside a valid envelope is also rejected.
    std::fs::write(
        &path,
        pristine.replace(
            &format!("\"schema_version\":{GEM_MODEL_SCHEMA_VERSION}"),
            "\"schema_version\":999",
        ),
    )
    .unwrap();
    match store.load(key) {
        Err(StoreError::Corrupt { reason, .. }) => {
            assert!(reason.contains("schema version"), "{reason}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Restoring the pristine bytes restores loadability — the checks above were about
    // the data, not some hidden state.
    std::fs::write(&path, &pristine).unwrap();
    let loaded = store.load(key).unwrap().unwrap();
    assert_bit_identical(&model, &loaded, &columns, "pristine after tampering");
}

/// A `Fit`-only service (no registry methods) over `store`.
fn service_over(store: &Arc<ModelStore>, capacity: usize) -> EmbedService {
    EmbedService::with_policy(MethodRegistry::new(), CachePolicy::with_capacity(capacity))
        .with_store(Arc::clone(store))
}

fn fit_request(columns: &Arc<Vec<GemColumn>>, features: FeatureSet) -> ServeRequest {
    ServeRequest::fit(Arc::clone(columns), fast_config(), features)
}

#[test]
fn cache_spill_and_warm_start_survive_a_simulated_restart() {
    let tmp = TempDir::new("restart");
    let columns = Arc::new(corpus_columns(CorpusKind::Gds));
    let key = model_key(&columns, &fast_config(), FeatureSet::ds());

    // Incarnation 1: capacity-1 cache; fitting a second model spills the first.
    let reference = {
        let store = Arc::new(ModelStore::open(&tmp.0).unwrap());
        let service = service_over(&store, 1);
        let fitted = service
            .serve_one(fit_request(&columns, FeatureSet::ds()))
            .unwrap();
        assert_eq!(fitted.handle().map(|h| h.key()), Some(key));
        let reference = service
            .serve_one(ServeRequest::embed(
                fitted.handle().unwrap(),
                columns.to_vec(),
            ))
            .unwrap()
            .into_matrix()
            .unwrap();
        service
            .serve_one(fit_request(&columns, FeatureSet::dsc()))
            .unwrap();
        assert_eq!(service.cache_stats().spills, 1);
        reference
    };

    // Incarnation 2: everything in-memory is gone; only the directory remains.
    let store = Arc::new(ModelStore::open(&tmp.0).unwrap());
    assert!(store.contains(key));
    let service = service_over(&store, 4);
    let refit = service
        .serve_one(fit_request(&columns, FeatureSet::ds()))
        .unwrap();
    assert_eq!(
        refit.served_from(),
        Some(ServedFrom::DiskStore),
        "restart must warm-start, not re-fit"
    );
    assert_eq!(service.cache_stats().warm_starts, 1);
    assert_eq!(service.cache_stats().misses, 0);
    let served = service
        .serve_one(ServeRequest::embed(
            refit.handle().unwrap(),
            columns.to_vec(),
        ))
        .unwrap();
    assert_eq!(served.into_matrix().unwrap(), reference);
}

/// A disk warm start reads the snapshot outside the cache lock: while one request is
/// stuck reading a spilled model (here: a FIFO that has no writer yet, standing in for
/// a hung disk), a request for a resident model still answers at once. A second request
/// for the stuck model waits for the same read instead of decoding it again.
#[cfg(unix)]
#[test]
fn warm_starts_read_the_store_off_the_cache_lock() {
    use std::io::Write;
    use std::sync::mpsc;
    use std::time::Duration;

    let tmp = TempDir::new("fifo");
    let store = Arc::new(ModelStore::open(&tmp.0).unwrap());
    let config = fast_config();
    let resident_cols = Arc::new(corpus_columns(CorpusKind::Gds));
    let spilled_cols = Arc::new(corpus_columns(CorpusKind::Wdc));
    let spilled = model_key(&spilled_cols, &config, FeatureSet::ds());

    // The spilled model's real snapshot, then a FIFO in its place.
    let spilled_model = GemModel::fit(&spilled_cols, &config, FeatureSet::ds()).unwrap();
    let path = store.save(spilled, &spilled_model).unwrap();
    let snapshot = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let made = std::process::Command::new("mkfifo")
        .arg(&path)
        .status()
        .unwrap();
    assert!(made.success(), "mkfifo failed");

    let service = Arc::new(service_over(&store, 4));
    let resident = service
        .serve_one(fit_request(&resident_cols, FeatureSet::ds()))
        .unwrap()
        .handle()
        .unwrap();
    let spilled = gem::serve::ModelHandle::from(spilled);
    let embed = |handle, queries: &Arc<Vec<GemColumn>>| {
        let (service, queries) = (Arc::clone(&service), queries.to_vec());
        std::thread::spawn(move || service.serve_one(ServeRequest::embed(handle, queries)))
    };

    let stuck = embed(spilled, &spilled_cols);
    // Opening the FIFO for writing returns once the stuck request has opened it for
    // reading, so from here on that request is blocked inside the store read.
    let mut writer = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let joiner = embed(spilled, &spilled_cols);
    let (answered, answer) = mpsc::channel();
    let hit = {
        let service = Arc::clone(&service);
        let queries = resident_cols.to_vec();
        std::thread::spawn(move || {
            let reply = service.serve_one(ServeRequest::embed(resident, queries));
            let _ = answered.send(());
            reply
        })
    };
    let hit_in_time = answer.recv_timeout(Duration::from_secs(2)).is_ok();
    // Feed the FIFO before asserting anything, so no thread is left blocked.
    writer.write_all(&snapshot).unwrap();
    drop(writer);
    let stuck = stuck.join().unwrap().unwrap();
    let joiner = joiner.join().unwrap().unwrap();
    let hit = hit.join().unwrap().unwrap();

    assert!(
        hit_in_time,
        "an embed of a resident model waited for another model's store read"
    );
    assert_eq!(hit.served_from(), Some(ServedFrom::MemoryCache));
    assert_eq!(stuck.served_from(), Some(ServedFrom::DiskStore));
    assert_eq!(joiner.served_from(), Some(ServedFrom::MemoryCache));
    let direct = spilled_model.transform(&spilled_cols).unwrap().matrix;
    assert_eq!(stuck.into_matrix().unwrap(), direct);
    assert_eq!(joiner.into_matrix().unwrap(), direct);
    let stats = service.cache_stats();
    assert_eq!(
        stats.warm_starts, 1,
        "the snapshot was decoded once: {stats:?}"
    );
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(
        stats.misses, 1,
        "only the resident model's fit missed: {stats:?}"
    );
    assert_eq!(stats.coalesced_fits, 0, "{stats:?}");
}

#[test]
fn embed_service_round_trips_through_the_store_for_every_gem_variant() {
    let tmp = TempDir::new("service");
    let store = Arc::new(ModelStore::open(&tmp.0).unwrap());
    let config = fast_config();
    let columns = Arc::new(corpus_columns(CorpusKind::Wdc));

    // Incarnation 1: serve (and therefore fit) a few variants with a tiny cache so
    // everything but the last model ends up spilled.
    let names = ["Gem", "Gem (D+S)", "D", "C+S"];
    let mut reference = Vec::new();
    {
        let mut service = EmbedService::with_policy(
            MethodRegistry::with_gem(&config),
            CachePolicy::with_capacity(1),
        )
        .with_store(Arc::clone(&store));
        service.register_gem_family(&config);
        for name in names {
            let response = service
                .serve_one(ServeRequest::embed_corpus(name, Arc::clone(&columns)))
                .unwrap();
            reference.push(response.into_matrix().unwrap());
        }
        // Overflow once more so the final resident model also spills.
        service
            .serve_one(ServeRequest::embed_corpus("S", Arc::clone(&columns)))
            .unwrap();
    }

    // Incarnation 2: every variant warm-starts from disk with bit-identical output.
    let mut service =
        EmbedService::new(MethodRegistry::with_gem(&config), 8).with_store(Arc::clone(&store));
    service.register_gem_family(&config);
    for (name, expected) in names.iter().zip(&reference) {
        let response = service
            .serve_one(ServeRequest::embed_corpus(*name, Arc::clone(&columns)))
            .unwrap();
        assert_eq!(
            response.served_from(),
            Some(ServedFrom::DiskStore),
            "{name} should warm-start"
        );
        assert_eq!(&response.into_matrix().unwrap(), expected, "{name}");
    }
    assert_eq!(service.cache_stats().warm_starts as usize, names.len());
}

#[test]
fn store_gc_and_stats_operate_across_persisted_models() {
    let tmp = TempDir::new("gc");
    let store = ModelStore::open(&tmp.0).unwrap();
    let config = fast_config();
    for kind in ALL_KINDS {
        let columns = corpus_columns(kind);
        let model = GemModel::fit(&columns, &config, FeatureSet::ds()).unwrap();
        store
            .save(model_key(&columns, &config, FeatureSet::ds()), &model)
            .unwrap();
    }
    let stats = store.stats().unwrap();
    assert_eq!(stats.entries, 4);
    assert!(stats.total_bytes > 0);
    // gc_plan previews without deleting; gc enforces.
    let plan = store
        .gc_plan(&GcPolicy {
            max_entries: Some(2),
            ..GcPolicy::default()
        })
        .unwrap();
    assert_eq!(plan.len(), 2);
    assert_eq!(store.stats().unwrap().entries, 4, "plan must not delete");
    let removed = store
        .gc(&GcPolicy {
            max_entries: Some(2),
            ..GcPolicy::default()
        })
        .unwrap();
    assert_eq!(removed.len(), 2);
    assert_eq!(store.stats().unwrap().entries, 2);
    // The survivors still load and transform.
    for entry in store.list().unwrap() {
        assert!(store.load(entry.key).unwrap().is_some());
    }
}
