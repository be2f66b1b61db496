//! Remote serving: fit once over TCP, embed by handle forever after.
//!
//! This is the serving protocol end to end — a real `GemServer` on an ephemeral
//! localhost port, a `GemClient` on the other side, `gem-proto` frames in between —
//! demonstrating the properties the handle-based API guarantees:
//!
//! 1. **Fit once, embed by handle.** The corpus crosses the wire exactly once (the
//!    `Fit` request); every `Embed` after that ships only the handle + query columns.
//! 2. **Bit-identical to in-process.** The matrix that comes back over the socket is
//!    asserted `==` against a local `GemModel::fit` + `transform` — column values and
//!    embeddings travel as IEEE-754 bit patterns, so not a single bit drifts.
//! 3. **Typed errors, never silent refits.** Embedding through an unknown handle
//!    returns the stable `unknown_model` error code; the server cannot refit because
//!    the request carries no corpus.
//! 4. **Out-of-order pipelining.** Many requests ride one connection at once; the
//!    server's executor pool answers them as they finish, so cheap embeds overtake a
//!    slow fit instead of queueing behind it (responses correlate by envelope id).
//! 5. **Snapshot shipping.** `pull_model` serializes a fitted model (the bit-exact
//!    `gem-store` envelope) and `push_model` installs it on a fresh replica — the
//!    handle resolves there without a refit and without the corpus on the wire.
//!
//! Run with `cargo run --release --example remote_serving`.

use gem::core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem::proto::RequestBody;
use gem::serve::{ClientError, EmbedService, GemClient, GemServer, ModelHandle, ServedFrom};
use std::sync::Arc;
use std::time::Instant;

fn corpus() -> Vec<GemColumn> {
    // A synthetic data lake: 120 columns from four semantic families — the same
    // generator `gem-client gen-corpus` writes to disk.
    gem::serve::demo::synthetic_corpus(120, 80, 7)
}

fn main() {
    let config = GemConfig::fast();

    // Server side: an EmbedService behind a TCP socket on an ephemeral port.
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
    service.register_gem_family(&config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0)).expect("bind");
    let handle = server.handle().expect("server handle");
    let server_thread = std::thread::spawn(move || server.run());
    println!("gem-served listening on {}\n", handle.addr());

    // Client side: fit once — the only time the corpus crosses the wire.
    let mut client = GemClient::connect(handle.addr()).expect("connect");
    let columns = corpus();
    let start = Instant::now();
    let fitted = client
        .fit(&columns, &config, FeatureSet::ds())
        .expect("remote fit");
    println!(
        "fit   ({} columns over the wire): {:>7.2} ms -> handle {}",
        columns.len(),
        start.elapsed().as_secs_f64() * 1e3,
        fitted.handle
    );
    assert_eq!(fitted.served_from, ServedFrom::ColdFit);

    // Embed by handle: only the handle + queries travel; the model is cache-resolved.
    let queries = vec![
        GemColumn::new((0..50).map(|i| 21.0 + (i % 55) as f64).collect(), "age_q"),
        GemColumn::new(
            (0..50)
                .map(|i| 10_000.0 + 400.0 * (i % 65) as f64)
                .collect(),
            "price_q",
        ),
    ];
    let start = Instant::now();
    let remote = client.embed(fitted.handle, &queries).expect("remote embed");
    println!(
        "embed ({} queries by handle):     {:>7.2} ms (served_from: {})",
        queries.len(),
        start.elapsed().as_secs_f64() * 1e3,
        remote.served_from.wire_name()
    );
    assert_ne!(
        remote.served_from,
        ServedFrom::ColdFit,
        "no refit by handle"
    );

    // The acceptance gate: the matrix that crossed the socket is bit-identical (==)
    // to an in-process GemModel::fit + transform of the same corpus and queries.
    let local = GemModel::fit(&columns, &config, FeatureSet::ds())
        .expect("local fit")
        .transform(&queries)
        .expect("local transform");
    assert_eq!(
        remote.matrix, local.matrix,
        "remote embedding must be bit-identical to in-process fit+transform"
    );
    println!(
        "check: remote matrix == in-process GemModel::fit+transform ({} x {}) ✓\n",
        remote.matrix.rows(),
        remote.matrix.cols()
    );

    // Pipelined, out-of-order: a deliberately slow cold fit plus a burst of cheap
    // embeds, all in flight on this one connection. The embeds are answered first —
    // the slow fit no longer head-of-line-blocks them.
    let fit_id = client
        .send(RequestBody::Fit {
            corpus: columns.clone(),
            config: GemConfig::with_components(24),
            features: FeatureSet::ds(),
            composition: None,
        })
        .expect("pipelined fit send");
    let embed_ids: Vec<u64> = (0..8)
        .map(|_| {
            client
                .send(RequestBody::Embed {
                    handle: fitted.handle.to_hex(),
                    queries: queries.clone(),
                })
                .expect("pipelined embed send")
        })
        .collect();
    let mut arrival = Vec::new();
    while client.pending() > 0 {
        let reply = client.recv_any().expect("pipelined recv");
        reply.outcome.expect("pipelined outcome");
        arrival.push(reply.id);
    }
    let fit_position = arrival.iter().position(|id| *id == fit_id).unwrap();
    assert!(
        embed_ids.iter().all(|id| arrival.contains(id)),
        "every pipelined embed correlates"
    );
    println!(
        "pipelined: slow fit sent first, answered {} of {} — {} cheap embeds overtook it ✓",
        fit_position + 1,
        arrival.len(),
        fit_position
    );

    // Snapshot shipping: pull the fitted model and push it to a brand-new replica that
    // has never seen the corpus. The same handle resolves there, bit-identically.
    let replica_config = GemConfig::fast();
    let mut replica_service = EmbedService::new(MethodRegistry::with_gem(&replica_config), 8);
    replica_service.register_gem_family(&replica_config);
    let replica = GemServer::bind(Arc::new(replica_service), ("127.0.0.1", 0)).expect("bind");
    let replica_handle = replica.handle().expect("replica handle");
    let replica_thread = std::thread::spawn(move || replica.run());
    let pulled = client.pull_model(fitted.handle).expect("pull");
    let mut replica_client = GemClient::connect(replica_handle.addr()).expect("connect replica");
    let pushed = replica_client.push_model(&pulled.snapshot).expect("push");
    assert_eq!(pushed.handle, fitted.handle);
    let shipped = replica_client
        .embed(fitted.handle, &queries)
        .expect("embed on replica");
    assert_eq!(
        shipped.matrix, local.matrix,
        "a pushed replica serves bit-identically — no corpus, no refit"
    );
    println!(
        "shipped {} to a fresh replica: embed there == in-process fit+transform ✓",
        fitted.handle
    );
    replica_handle.shutdown();
    replica_thread.join().expect("join replica").expect("run");

    // An unknown handle is a typed error with a stable code — never a silent refit.
    let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
    let err = client.embed(bogus, &queries).expect_err("bogus handle");
    assert_eq!(err.code(), Some("unknown_model"));
    match &err {
        ClientError::Server { code, message, .. } => {
            println!("unknown handle -> [{code}] {message}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // Handle lifecycle: evict, and the handle stops resolving.
    assert!(client.evict(fitted.handle).expect("evict"));
    let err = client.embed(fitted.handle, &queries).expect_err("evicted");
    assert_eq!(err.code(), Some("unknown_model"));
    println!(
        "evicted {} -> embed now fails with unknown_model ✓",
        fitted.handle
    );

    let stats = client.stats().expect("stats");
    println!(
        "\nserver stats: {} requests, {} hits, {} misses",
        stats.requests, stats.hits, stats.misses
    );

    handle.shutdown();
    server_thread.join().expect("join").expect("server run");
    println!(
        "server shut down cleanly after {} connections / {} requests",
        handle.counters().connections(),
        handle.counters().requests()
    );
}
