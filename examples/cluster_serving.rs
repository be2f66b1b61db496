//! Cluster serving: three replicas behind the `gem-router` tier, in one process.
//!
//! The router speaks the same `gem-proto` handshake and frames as a single
//! `gem-served`, so a `GemClient` pointed at it cannot tell the difference — except
//! that behind it a consistent-hash ring shards model handles across replicas, every
//! confirmed fit is snapshot-replicated to its ring successor, and killing the
//! replica that owns a handle does not lose it:
//!
//! 1. **Shard placement.** Fits land on the replica the ring assigns their handle;
//!    the router records the placement and prints the shard map.
//! 2. **Fail-over round trip.** One replica is shut down mid-session; the handles it
//!    owned keep answering — bit-identically — from the ring successor that received
//!    the write-through snapshot copy. No refit happens anywhere (the merged stats
//!    prove it: zero fit microseconds after the kill).
//! 3. **Merged fan-out.** `stats` and `list` aggregate over the live membership, so
//!    the one client sees cluster-wide counters and a deduplicated model listing.
//!
//! Run with `cargo run --release --example cluster_serving`.

use gem::core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem::router::{Cluster, RouterMetrics, RouterServer};
use gem::serve::{EmbedService, GemClient, GemServer, ServedFrom, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

fn start_replica(
    config: &GemConfig,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let mut service = EmbedService::new(MethodRegistry::with_gem(config), 16);
    service.register_gem_family(config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .expect("bind replica")
        .with_workers(2);
    let handle = server.handle().expect("replica handle");
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn corpus(seed: u64) -> Vec<GemColumn> {
    gem::serve::demo::synthetic_corpus(24, 48, seed)
}

fn main() {
    let config = GemConfig::fast();

    // ---- Three replicas + the router, all on ephemeral localhost ports. ----
    let replicas: Vec<(ServerHandle, _)> = (0..3).map(|_| start_replica(&config)).collect();
    let addrs: Vec<String> = replicas.iter().map(|(h, _)| h.addr().to_string()).collect();
    let metrics = Arc::new(RouterMetrics::new());
    let cluster = Arc::new(Cluster::with_options(
        &addrs,
        Arc::clone(&metrics),
        64,
        1,
        Duration::from_millis(200),
        Duration::from_secs(2),
    ));
    let router = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).expect("bind router");
    let router_handle = router.handle();
    let router_addr = router.local_addr();
    let router_join = std::thread::spawn(move || router.run());
    println!("gem-routed listening on {router_addr}");
    for (i, addr) in addrs.iter().enumerate() {
        println!("  replica {i}: {addr}");
    }

    // ---- Fit a handful of models through the router; watch the shard placement. ----
    let mut client = GemClient::connect(router_addr).expect("connect router");
    let mut handles = Vec::new();
    println!("\nshard placement (consistent-hash ring, 64 vnodes/replica):");
    for seed in 0..4u64 {
        let cols = corpus(seed);
        let fitted = client
            .fit(&cols, &config, FeatureSet::ds())
            .expect("fit through router");
        let owner = cluster
            .placement_of(&fitted.handle.to_hex())
            .expect("placement recorded");
        println!("  model {} -> {owner}", fitted.handle);
        handles.push((fitted.handle, cols));
    }

    // In-process references for the bit-exactness checks below.
    let references: Vec<_> = handles
        .iter()
        .map(|(_, cols)| {
            let queries: Vec<GemColumn> = cols.iter().take(3).cloned().collect();
            let local = GemModel::fit(cols, &config, FeatureSet::ds()).expect("local fit");
            let matrix = local.transform(&queries).expect("local transform").matrix;
            (queries, matrix)
        })
        .collect();

    // ---- Kill one replica that owns at least one handle. ----
    let victim = cluster
        .placement_of(&handles[0].0.to_hex())
        .expect("placement recorded");
    let at = addrs.iter().position(|a| *a == victim).expect("a member");
    println!(
        "\nkilling replica {at} ({victim}) — it owns model {}",
        handles[0].0
    );
    let mut survivors = Vec::new();
    for (i, (handle, join)) in replicas.into_iter().enumerate() {
        if i == at {
            handle.shutdown();
            join.join().expect("join victim").expect("victim run");
        } else {
            survivors.push((handle, join));
        }
    }

    // Baseline before the fail-over round trips: the survivors' own cold fits are in
    // here, so "no refit during fail-over" means these numbers do not grow.
    let baseline = client.stats().expect("baseline stats");

    // ---- Every handle still answers, bit-identically, and nothing refits. ----
    for ((handle, _), (queries, reference)) in handles.iter().zip(&references) {
        let outcome = loop {
            match client.embed(*handle, queries) {
                Ok(outcome) => break outcome,
                // A request in flight on the dying connection surfaces as the typed,
                // retryable error while the router re-routes; back off and go again.
                Err(e) if e.code() == Some("replica_unavailable") => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("embed through fail-over failed: {e}"),
            }
        };
        assert_eq!(
            &outcome.matrix, reference,
            "fail-over must not change a single bit"
        );
        assert_ne!(
            outcome.served_from,
            ServedFrom::ColdFit,
            "fail-over serves the shipped snapshot, never refits"
        );
        let now = cluster
            .route_handle(&handle.to_hex())
            .expect("a live route");
        println!(
            "  model {handle} now served by {now} ({})",
            outcome.served_from.wire_name()
        );
    }

    // ---- Merged stats across the live membership: no cold fit served the kill. ----
    let stats = client.stats().expect("merged stats");
    println!(
        "\nmerged stats over {} live replicas: {} requests, {} hits, {} misses, fit_micros {}",
        cluster.live_replicas().len(),
        stats.requests,
        stats.hits,
        stats.misses,
        stats.fit_micros
    );
    assert_eq!(
        stats.fit_micros, baseline.fit_micros,
        "fail-over spent zero fit time — every post-kill embed was served from a \
         shipped snapshot"
    );
    assert_eq!(stats.misses, baseline.misses, "no fail-over embed missed");
    assert!(
        stats.hits > baseline.hits,
        "the fail-over embeds were cache hits"
    );
    let models = client.list_models().expect("merged listing");
    println!(
        "merged model listing: {} models resolve cluster-wide",
        models.len()
    );
    for (handle, _) in &handles {
        assert!(
            models.iter().any(|m| m.handle == handle.to_hex()),
            "{handle} missing from the merged listing"
        );
    }

    // The Prometheus exposition the router serves on --metrics-addr.
    let text = metrics.render();
    assert!(text.contains(&format!("router_replica_state{{replica=\"{victim}\"}} 0")));
    println!("router metrics report {victim} as down (router_replica_state 0) ✓");

    drop(client);
    router_handle.shutdown();
    router_join
        .join()
        .expect("join router")
        .expect("router run");
    for (handle, join) in survivors {
        handle.shutdown();
        join.join().expect("join survivor").expect("survivor run");
    }
    println!("\ncluster shut down cleanly");
}
