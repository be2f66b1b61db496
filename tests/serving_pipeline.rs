//! Integration tests for the pipelined, multiplexed serving stack: out-of-order
//! correlation over a real TCP connection, single-flight coalescing of duplicate fits
//! under genuine cross-connection concurrency, and snapshot shipping (push/pull)
//! between replicas — each asserted bit-identical to the in-process serial path.

use gem::core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem::proto::{RequestBody, ResponseBody};
use gem::serve::{EmbedService, GemClient, GemServer, ServedFrom, ServerHandle};
use gem_numeric::Matrix;
use std::sync::{Arc, Barrier};

fn corpus(seed: u64, columns: usize, rows: usize) -> Vec<GemColumn> {
    (0..columns)
        .map(|c| {
            GemColumn::new(
                (0..rows)
                    .map(|i| (seed * 700 + c as u64 * 31) as f64 + (i % 13) as f64 * 1.25)
                    .collect(),
                format!("col_{seed}_{c}"),
            )
        })
        .collect()
}

fn start_server(workers: usize) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 16);
    service.register_gem_family(&config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .unwrap()
        .with_workers(workers);
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// The tentpole property: on ONE connection, cheap `Embed`s pipelined behind a slow
/// `Fit` are answered first (out-of-order responses), every response correlates to its
/// request id, and every embed is bit-identical to in-process `GemModel::fit` +
/// `transform`.
#[test]
fn pipelined_embeds_overtake_a_slow_fit_with_exact_correlation() {
    const N_EMBEDS: usize = 16;
    let (server, join) = start_server(4);
    let mut client = GemClient::connect(server.addr()).unwrap();

    // A small fast corpus for the embeds; its model is fitted up front (lockstep).
    let fast_corpus = corpus(1, 5, 45);
    let fast_config = GemConfig::fast();
    let fitted = client
        .fit(&fast_corpus, &fast_config, FeatureSet::ds())
        .unwrap();

    // In-process serial reference: one 1-row matrix per query.
    let local = GemModel::fit(&fast_corpus, &fast_config, FeatureSet::ds()).unwrap();
    let queries: Vec<GemColumn> = (0..N_EMBEDS)
        .map(|i| fast_corpus[i % fast_corpus.len()].clone())
        .collect();
    let reference: Vec<Matrix> = queries
        .iter()
        .map(|q| local.transform(std::slice::from_ref(q)).unwrap().matrix)
        .collect();

    // The slow request: a cold fit of a much bigger corpus with a heavier
    // configuration — orders of magnitude above a single-query transform.
    let slow_corpus = corpus(2, 40, 90);
    let slow_config = GemConfig::with_components(24);

    let fit_id = client
        .send(RequestBody::Fit {
            corpus: slow_corpus,
            config: slow_config,
            features: FeatureSet::ds(),
            composition: None,
        })
        .unwrap();
    let embed_ids: Vec<u64> = queries
        .iter()
        .map(|q| {
            client
                .send(RequestBody::Embed {
                    handle: fitted.handle.to_hex(),
                    queries: vec![q.clone()],
                })
                .unwrap()
        })
        .collect();
    assert_eq!(client.pending(), N_EMBEDS + 1);

    // Collect every response in completion order.
    let mut arrival: Vec<u64> = Vec::new();
    let mut verified = [false; N_EMBEDS];
    while client.pending() > 0 {
        let reply = client.recv_any().unwrap();
        arrival.push(reply.id);
        let body = reply.outcome.unwrap();
        if reply.id == fit_id {
            assert!(matches!(body, ResponseBody::Fitted { .. }));
            continue;
        }
        let index = embed_ids
            .iter()
            .position(|id| *id == reply.id)
            .expect("every reply correlates to a request this test sent");
        let ResponseBody::Embedded { matrix, .. } = body else {
            panic!("embed answered with a non-embedded body");
        };
        assert_eq!(
            matrix, reference[index],
            "pipelined embed {index} diverged from the in-process serial path"
        );
        assert!(!verified[index], "embed {index} answered twice");
        verified[index] = true;
    }
    assert!(verified.iter().all(|v| *v));
    assert_eq!(arrival.len(), N_EMBEDS + 1);

    // Out-of-order responses: the slow fit was sent FIRST but answered LAST — every
    // cheap embed overtook it. (The fit is ~two orders of magnitude slower than the 16
    // transforms combined, and the pool has 3 workers free while one runs the fit.)
    let fit_position = arrival.iter().position(|id| *id == fit_id).unwrap();
    assert_eq!(
        fit_position, N_EMBEDS,
        "the slow fit should be answered after every pipelined embed; arrival: {arrival:?}"
    );

    server.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!(server.counters().requests(), (N_EMBEDS + 2) as u64);
    assert_eq!(server.counters().protocol_errors(), 0);
    assert!(
        server.metrics().busy_workers_high_water() >= 2,
        "the pool must have actually run requests concurrently"
    );
}

/// Satellite: the same `Fit` fired from 8 threads (8 connections) pays exactly one EM
/// fit — the other seven either coalesce onto the in-flight computation or hit the
/// cache the leader populated, and the accounting is exact.
#[test]
fn duplicate_fits_from_eight_threads_pay_one_cold_fit() {
    const THREADS: usize = 8;
    let (server, join) = start_server(THREADS);
    let addr = server.addr();
    let cols = Arc::new(corpus(3, 6, 50));
    let config = GemConfig::fast();
    let barrier = Arc::new(Barrier::new(THREADS));

    let outcomes: Vec<(ServedFrom, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cols = Arc::clone(&cols);
                let config = config.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut client = GemClient::connect(addr).unwrap();
                    barrier.wait();
                    let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
                    (fitted.served_from, fitted.handle.to_hex())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Deterministic handles: all eight name the same model.
    assert!(outcomes.iter().all(|(_, h)| *h == outcomes[0].1));
    let cold = outcomes
        .iter()
        .filter(|(sf, _)| *sf == ServedFrom::ColdFit)
        .count();
    assert_eq!(
        cold, 1,
        "exactly one cold fit across {THREADS} concurrent identical fits: {outcomes:?}"
    );

    // Exact accounting: every duplicate was either a memory hit or a coalesced fit.
    let mut client = GemClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.coalesced_fits + stats.hits,
        (THREADS - 1) as u64,
        "duplicates = hits + coalesced_fits: {stats:?}"
    );

    server.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite: snapshot shipping. A model pulled from the origin and pushed to a fresh
/// server — which never sees the corpus — serves embeds bit-identical to in-process
/// `fit`+`transform`.
#[test]
fn pushed_snapshot_serves_bit_identically_on_a_fresh_server() {
    let (origin, origin_join) = start_server(2);
    let (replica, replica_join) = start_server(2);
    let cols = corpus(4, 6, 55);
    let config = GemConfig::fast();

    let mut origin_client = GemClient::connect(origin.addr()).unwrap();
    let fitted = origin_client.fit(&cols, &config, FeatureSet::ds()).unwrap();
    let pulled = origin_client.pull_model(fitted.handle).unwrap();
    assert_eq!(pulled.handle, fitted.handle);
    // The snapshot is the gem-store envelope and validates as one; it carries the
    // fitted model, not the corpus (fit once, ship everywhere).
    let (key, _) = gem::store::decode_snapshot(&pulled.snapshot, Some(fitted.handle.key()))
        .expect("pulled snapshots validate like store files");
    assert_eq!(key, fitted.handle.key());

    let mut replica_client = GemClient::connect(replica.addr()).unwrap();
    let pushed = replica_client.push_model(&pulled.snapshot).unwrap();
    assert_eq!(pushed.handle, fitted.handle);
    assert_eq!(pushed.dim, fitted.dim);

    // The replica resolves the handle without ever having fitted (or seen a corpus),
    // and its output is bit-identical to the in-process serial path.
    let queries = corpus(5, 2, 30);
    let served = replica_client.embed(fitted.handle, &queries).unwrap();
    assert_ne!(served.served_from, ServedFrom::ColdFit);
    let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
        .unwrap()
        .transform(&queries)
        .unwrap();
    assert_eq!(served.matrix, direct.matrix);

    // The replica's model arrived as an artifact: no miss, no cold fit ever happened
    // there (a Fit request would have counted a lookup).
    let stats = replica_client.stats().unwrap();
    assert_eq!(stats.misses, 0, "the replica never fitted: {stats:?}");

    origin.shutdown();
    replica.shutdown();
    origin_join.join().unwrap().unwrap();
    replica_join.join().unwrap().unwrap();
}
