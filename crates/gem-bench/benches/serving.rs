//! Serving benchmark: what the fit/transform split and the fingerprint-keyed model cache
//! buy under repeated traffic against the same corpus.
//!
//! Measurements on the 300-column scalability corpus (the same corpus the `scalability`
//! bench uses for Gem (D+S)). The in-process rows send one `EmbedCorpus("Gem (D+S)")`
//! request through `EmbedService::serve_one`:
//!
//! * `cold_fit` — a fresh service per iteration: every request pays the EM fit (the
//!   pre-split behaviour of `GemEmbedder::embed`),
//! * `warm_hit` — a pre-warmed service: every request is a cache hit and only pays the
//!   transform,
//! * `warm_start_disk` — a fresh service per iteration over a pre-populated
//!   `ModelStore`: the request misses memory, rehydrates the model from disk (no EM
//!   re-fit) and transforms — the cost of the first request after a process restart.
//! * `remote_round_trip` — one embed-by-handle request over a real loopback TCP
//!   connection to a `GemServer` (16 query columns): the serving protocol's wire
//!   overhead (JSON-line encode/decode, bit-pattern payloads, socket hop) on top of
//!   the warm transform.
//! * `binary_round_trip` / `json_round_trip` — the same warm embed at a 10× payload
//!   (160 query columns) over the negotiated binary codec (raw little-endian IEEE-754
//!   value bytes, streamed response rows) versus forced JSON (hex-string bit patterns,
//!   one response line). The gap is what the negotiated wire format buys; the binary
//!   number should sit within 2× of the in-process `warm_hit` even at this payload.
//! * `lockstep_round_trip` — a 16-query *mixed* batch (one slow cold fit + sixteen
//!   cheap single-query embeds) driven the only way the PR 4 client could: one request
//!   in flight at a time, so the embeds queue behind the fit (head-of-line blocking).
//!   Measured: time until the last embed response.
//! * `pipelined_round_trip` — the *same* mixed batch with all 17 requests in flight at
//!   once: the executor pool answers out of order, the embeds overtake the
//!   still-running fit, and the last embed lands in milliseconds. The ratio to
//!   `lockstep_round_trip` is the head-of-line-blocking win of the multiplexed
//!   protocol.
//!
//! Snapshot with `GEM_CRITERION_JSON=BENCH_serving.json cargo bench -p gem-bench --bench
//! serving`; the committed baseline lives at the repo root next to
//! `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gem_bench::{gem_config_with_components, strip_headers, to_gem_columns};
use gem_core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem_data::{gds, CorpusConfig};
use gem_serve::{EmbedService, GemClient, GemServer, ServeRequest, ServedFrom};
use gem_store::{model_key, ModelStore};
use std::sync::Arc;

const N_COLUMNS: usize = 300;

fn corpus() -> Arc<Vec<GemColumn>> {
    // Identical generation to the scalability bench so the two snapshots are comparable.
    let pool = gds(&CorpusConfig {
        scale: 0.35,
        min_values: 40,
        max_values: 80,
        seed: 13,
    });
    Arc::new(strip_headers(&to_gem_columns(&pool.truncated(N_COLUMNS))))
}

fn bench_config() -> GemConfig {
    gem_config_with_components(10)
}

/// A service serving the Gem family fitted with the bench configuration.
fn bench_service() -> EmbedService {
    let mut service = EmbedService::new(MethodRegistry::with_gem(&bench_config()), 4);
    service.register_gem_family(&bench_config());
    service
}

fn bench_serving(criterion: &mut Criterion) {
    let corpus = corpus();
    let request = || ServeRequest::embed_corpus("Gem (D+S)", Arc::clone(&corpus));

    let mut group = criterion.benchmark_group("serving");
    group.sample_size(10);

    // Cold: a fresh cache per iteration, so every embed pays the EM fit.
    group.bench_function(BenchmarkId::new("cold_fit", N_COLUMNS), |b| {
        b.iter(|| {
            let response = bench_service().serve_one(request()).expect("cold embed");
            assert!(!response.cache_hit());
            response
        })
    });

    // Warm: the model is cached once up front; each embed is transform-only.
    let warm_service = bench_service();
    assert!(!warm_service
        .serve_one(request())
        .expect("warming embed")
        .cache_hit());
    group.bench_function(BenchmarkId::new("warm_hit", N_COLUMNS), |b| {
        b.iter(|| {
            let response = warm_service.serve_one(request()).expect("warm embed");
            assert!(response.cache_hit());
            response
        })
    });

    // Warm start from disk: the model snapshot is on disk (as after a restart); each
    // iteration uses a fresh service whose memory tier is cold, so the request
    // rehydrates from the store — deserialisation + transform, no EM re-fit.
    let store_dir =
        std::env::temp_dir().join(format!("gem-serving-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Arc::new(ModelStore::open(&store_dir).expect("bench store directory"));
    let model =
        GemModel::fit(&corpus, &bench_config(), FeatureSet::ds()).expect("bench corpus fits");
    store
        .save(
            model_key(&corpus, &bench_config(), FeatureSet::ds()),
            &model,
        )
        .expect("snapshot writes");
    drop(model);
    group.bench_function(BenchmarkId::new("warm_start_disk", N_COLUMNS), |b| {
        b.iter(|| {
            let response = bench_service()
                .with_store(Arc::clone(&store))
                .serve_one(request())
                .expect("warm-start embed");
            assert_eq!(response.served_from(), Some(ServedFrom::DiskStore));
            response
        })
    });
    let _ = std::fs::remove_dir_all(&store_dir);

    // Remote round trip: a real GemServer on an ephemeral loopback port; the model is
    // fitted once (by handle), then every iteration is one embed request–response over
    // the socket with 16 query columns. Compare against `warm_hit` to read off the
    // protocol's wire overhead.
    let service = EmbedService::new(MethodRegistry::with_gem(&bench_config()), 4);
    let server =
        GemServer::bind(Arc::new(service), ("127.0.0.1", 0)).expect("bind loopback server");
    let server_handle = server.handle().expect("server handle");
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = GemClient::connect(server_handle.addr()).expect("connect");
    let fitted = client
        .fit(&corpus, &bench_config(), FeatureSet::ds())
        .expect("remote fit");
    let remote_queries: Vec<GemColumn> = corpus[..16].to_vec();
    assert_eq!(client.codec_name(), "binary", "client negotiates binary");
    group.bench_function(BenchmarkId::new("remote_round_trip", 16), |b| {
        b.iter(|| {
            let outcome = client
                .embed(fitted.handle, &remote_queries)
                .expect("remote embed");
            assert_eq!(outcome.matrix.rows(), 16);
            outcome
        })
    });

    // Codec face-off at a 10× payload: the same warm embed with 160 query columns,
    // once over the negotiated binary codec (raw value bytes, streamed rows) and once
    // over a connection forced to JSON (hex-string bit patterns, one line per
    // response). Same server, same model, same queries — the difference is pure
    // encode/decode and framing cost.
    let big_queries: Vec<GemColumn> = corpus[..160].to_vec();
    group.bench_function(BenchmarkId::new("binary_round_trip", 160), |b| {
        b.iter(|| {
            let outcome = client
                .embed(fitted.handle, &big_queries)
                .expect("binary embed");
            assert_eq!(outcome.matrix.rows(), 160);
            outcome
        })
    });
    let mut json_client = GemClient::connect_json(server_handle.addr()).expect("connect json");
    assert_eq!(json_client.codec_name(), "json", "forced-JSON client");
    group.bench_function(BenchmarkId::new("json_round_trip", 160), |b| {
        b.iter(|| {
            let outcome = json_client
                .embed(fitted.handle, &big_queries)
                .expect("json embed");
            assert_eq!(outcome.matrix.rows(), 160);
            outcome
        })
    });
    drop(json_client);

    // Lockstep vs pipelined on a 16-query MIXED batch: one deliberately slow cold Fit
    // (a heavier configuration, evicted after every iteration so it never becomes a
    // cache hit) plus sixteen cheap single-query embeds of the warm handle, all on one
    // connection. Measured: time until the LAST EMBED response arrives — the latency
    // this refactor exists to fix. The lockstep client cannot even send its first
    // embed until the fit returns (head-of-line blocking: fit + 16 round trips); the
    // pipelined client has all 17 requests in flight and its embeds overtake the fit
    // on the executor pool, so they complete in milliseconds while the fit is still
    // running (its response is drained outside the timed window).
    let single_queries: Vec<Vec<GemColumn>> =
        corpus[..16].iter().map(|c| vec![c.clone()]).collect();
    let slow_config = gem_config_with_components(12);
    group.bench_function(BenchmarkId::new("lockstep_round_trip", 16), |b| {
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let started = std::time::Instant::now();
                let slow = client
                    .fit(&corpus, &slow_config, FeatureSet::ds())
                    .expect("lockstep slow fit");
                for queries in &single_queries {
                    let outcome = client
                        .embed(fitted.handle, queries)
                        .expect("lockstep embed");
                    assert_eq!(outcome.matrix.rows(), 1);
                }
                total += started.elapsed();
                assert_eq!(slow.served_from, ServedFrom::ColdFit);
                assert!(client.evict(slow.handle).expect("evict slow handle"));
            }
            total
        })
    });
    group.bench_function(BenchmarkId::new("pipelined_round_trip", 16), |b| {
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let started = std::time::Instant::now();
                let fit_id = client
                    .send(gem_proto::RequestBody::Fit {
                        corpus: corpus.to_vec(),
                        config: slow_config.clone(),
                        features: FeatureSet::ds(),
                        composition: None,
                    })
                    .expect("pipelined slow fit send");
                for queries in &single_queries {
                    client
                        .send(gem_proto::RequestBody::Embed {
                            handle: fitted.handle.to_hex(),
                            queries: queries.clone(),
                        })
                        .expect("pipelined send");
                }
                let mut embeds_answered = 0;
                while embeds_answered < single_queries.len() {
                    let reply = client.recv_any().expect("pipelined recv");
                    if reply.id == fit_id {
                        continue; // the slow fit finishing early would end the timing
                    }
                    reply.outcome.expect("pipelined embed outcome");
                    embeds_answered += 1;
                }
                total += started.elapsed();
                // Drain the still-running fit and reset for the next iteration,
                // outside the timed window.
                while client.pending() > 0 {
                    client
                        .recv_any()
                        .expect("drain fit")
                        .outcome
                        .expect("fit ok");
                }
                let slow_handle = gem_serve::ModelHandle::from(model_key(
                    &corpus,
                    &slow_config,
                    FeatureSet::ds(),
                ));
                assert!(client.evict(slow_handle).expect("evict slow handle"));
            }
            total
        })
    });
    drop(client);
    server_handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");

    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
