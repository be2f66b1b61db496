//! Integration tests for the handle-based serving API: the fit-once/embed-by-handle
//! lifecycle end to end, and `EmbedService` under genuinely concurrent mixed traffic —
//! N threads fitting, embedding and evicting the same handles — asserting that every
//! successful embed is bit-identical to the serial path and that no cache-stat count is
//! lost to a race.

use gem::core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem::serve::{model_key, EmbedService, ModelHandle, ServeRequest, ServeResponse, ServedFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn corpus(seed: u64) -> Arc<Vec<GemColumn>> {
    Arc::new(
        (0..5)
            .map(|c| {
                GemColumn::new(
                    (0..45)
                        .map(|i| (seed * 500 + c * 40) as f64 + (i % 11) as f64 * 1.5)
                        .collect(),
                    format!("col_{seed}_{c}"),
                )
            })
            .collect(),
    )
}

fn queries(seed: u64) -> Vec<GemColumn> {
    vec![GemColumn::new(
        (0..30)
            .map(|i| (seed * 37) as f64 + (i % 8) as f64)
            .collect(),
        format!("query_{seed}"),
    )]
}

fn service(capacity: usize) -> EmbedService {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), capacity);
    service.register_gem_family(&config);
    service
}

#[test]
fn handle_lifecycle_fit_embed_evict_refit() {
    let service = service(8);
    let config = GemConfig::fast();
    let cols = corpus(1);

    // Fit -> handle (deterministic: the fingerprint of corpus + config).
    let fitted = service
        .serve_one(ServeRequest::fit(
            Arc::clone(&cols),
            config.clone(),
            FeatureSet::ds(),
        ))
        .unwrap();
    let handle = fitted.handle().unwrap();
    assert_eq!(
        handle,
        ModelHandle::from(model_key(&cols, &config, FeatureSet::ds())),
        "the handle is the model fingerprint, not a session-local token"
    );

    // Embed by handle, bit-identical to the in-process split.
    let served = service
        .serve_one(ServeRequest::embed(handle, queries(1)))
        .unwrap();
    let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
        .unwrap()
        .transform(&queries(1))
        .unwrap();
    assert_eq!(served.into_matrix().unwrap(), direct.matrix);

    // Evict -> the typed UnknownModel, with its stable code — never a silent refit.
    assert_eq!(
        service.serve_one(ServeRequest::evict(handle)).unwrap(),
        ServeResponse::Evicted { existed: true }
    );
    let err = service
        .serve_one(ServeRequest::embed(handle, queries(1)))
        .unwrap_err();
    assert_eq!(err.code(), "unknown_model");

    // Re-fit restores the *same* handle and the same bits.
    let refitted = service
        .serve_one(ServeRequest::fit(
            Arc::clone(&cols),
            config,
            FeatureSet::ds(),
        ))
        .unwrap();
    assert_eq!(refitted.handle(), Some(handle));
    let again = service
        .serve_one(ServeRequest::embed(handle, queries(1)))
        .unwrap();
    assert_eq!(again.into_matrix().unwrap(), direct.matrix);
}

#[test]
fn concurrent_mixed_fit_embed_evict_is_bit_identical_and_conserves_stats() {
    const THREADS: u64 = 8;
    const ITERATIONS: u64 = 12;
    const CORPORA: u64 = 3;

    let config = GemConfig::fast();
    // The serial reference path: one thread (`GemConfig::fast()` fits and transforms
    // without fan-out). Every concurrent embed must reproduce these matrices bit for bit.
    let serial = service(CORPORA as usize);
    let mut reference = Vec::new();
    let mut handles = Vec::new();
    for j in 0..CORPORA {
        let handle = serial
            .serve_one(ServeRequest::fit(
                corpus(j),
                config.clone(),
                FeatureSet::ds(),
            ))
            .unwrap()
            .handle()
            .unwrap();
        handles.push(handle);
        reference.push(
            serial
                .serve_one(ServeRequest::embed(handle, queries(j)))
                .unwrap()
                .into_matrix()
                .unwrap(),
        );
    }

    // The contended service: memory-only (so every lookup is exactly one hit or one
    // miss, making the conservation law below exact).
    let service = Arc::new(service(CORPORA as usize));
    let fits = AtomicU64::new(0);
    let embeds_ok = AtomicU64::new(0);
    let embeds_unknown = AtomicU64::new(0);
    let evict_ops = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            let config = &config;
            let handles = &handles;
            let reference = &reference;
            let (fits, embeds_ok, embeds_unknown, evict_ops) =
                (&fits, &embeds_ok, &embeds_unknown, &evict_ops);
            scope.spawn(move || {
                for i in 0..ITERATIONS {
                    let j = (t + i) % CORPORA;
                    // Fit: idempotent, always yields the deterministic handle.
                    let fitted = service
                        .serve_one(ServeRequest::fit(
                            corpus(j),
                            config.clone(),
                            FeatureSet::ds(),
                        ))
                        .unwrap();
                    fits.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(fitted.handle(), Some(handles[j as usize]));
                    // Embed: either bit-identical output or — when another thread
                    // evicted between our fit and embed — the typed UnknownModel.
                    match service.serve_one(ServeRequest::embed(handles[j as usize], queries(j))) {
                        Ok(response) => {
                            assert_eq!(
                                response.into_matrix().unwrap(),
                                reference[j as usize],
                                "concurrent embed diverged from the serial path"
                            );
                            embeds_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => {
                            assert_eq!(err.code(), "unknown_model", "{err}");
                            embeds_unknown.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A sprinkle of evictions to keep handles churning.
                    if (t + i) % 7 == 0 {
                        service
                            .serve_one(ServeRequest::evict(handles[j as usize]))
                            .unwrap();
                        evict_ops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let (fits, embeds_ok, embeds_unknown, evict_ops) = (
        fits.into_inner(),
        embeds_ok.into_inner(),
        embeds_unknown.into_inner(),
        evict_ops.into_inner(),
    );
    assert_eq!(fits, THREADS * ITERATIONS);
    assert_eq!(embeds_ok + embeds_unknown, THREADS * ITERATIONS);

    // Conservation of cache stats: every fit performs exactly one lookup (hit or miss)
    // and every embed performs exactly one resolve (hit, or miss surfacing as
    // UnknownModel) — so if no increment was lost to a race, hits + misses equals the
    // number of lookups exactly.
    let stats = service.stats();
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        fits + embeds_ok + embeds_unknown,
        "lost cache-stat counts under concurrency: {stats:?}"
    );
    // Every embed that resolved was a hit; every UnknownModel was a miss; cold fits
    // account for the rest of the misses.
    assert!(stats.cache.hits >= embeds_ok);
    assert!(stats.cache.misses >= embeds_unknown);
    assert_eq!(stats.cache.warm_starts, 0, "no store tier attached");
    // The request counter saw every operation exactly once.
    assert_eq!(
        stats.requests,
        fits + embeds_ok + embeds_unknown + evict_ops
    );

    // After the dust settles the service still serves bit-identical answers.
    for j in 0..CORPORA {
        service
            .serve_one(ServeRequest::fit(
                corpus(j),
                config.clone(),
                FeatureSet::ds(),
            ))
            .unwrap();
        let settled = service
            .serve_one(ServeRequest::embed(handles[j as usize], queries(j)))
            .unwrap();
        assert_eq!(settled.into_matrix().unwrap(), reference[j as usize]);
    }
}

#[test]
fn served_from_provenance_is_reported_per_tier() {
    let service = service(4);
    let config = GemConfig::fast();
    let cold = service
        .serve_one(ServeRequest::fit(
            corpus(9),
            config.clone(),
            FeatureSet::ds(),
        ))
        .unwrap();
    assert_eq!(cold.served_from(), Some(ServedFrom::ColdFit));
    let warm = service
        .serve_one(ServeRequest::fit(corpus(9), config, FeatureSet::ds()))
        .unwrap();
    assert_eq!(warm.served_from(), Some(ServedFrom::MemoryCache));
}
