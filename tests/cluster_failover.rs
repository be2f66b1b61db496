//! Acceptance test for the sharded cluster tier: a two-replica cluster behind
//! `gem-routed`'s library core serves fit/embed **bit-identical** to the in-process
//! `GemModel::fit` + `transform` path; when the replica owning a handle is killed, the
//! handle keeps answering from the survivor via the write-through snapshot copy —
//! never a refit (the survivor's merged stats show zero cold fits after the kill) —
//! and the router's Prometheus exposition reports the dead replica.

use gem::core::{Composition, FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
use gem::router::{Cluster, RouterMetrics, RouterServer};
use gem::serve::client::ClientError;
use gem::serve::{EmbedService, GemClient, GemServer, ServedFrom, ServerHandle};
use gem::store::{model_key, updated_model_key};
use std::sync::Arc;
use std::time::Duration;

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

fn start_replica() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 16);
    service.register_gem_family(&config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .unwrap()
        .with_workers(2);
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// Retry an operation through the router across the fail-over window: a request
/// in flight on the dying connection surfaces as the typed, retryable
/// `replica_unavailable` error; the retry re-routes to the fail-over owner. Anything
/// else is a real failure.
fn retry_through_failover<T>(
    mut op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut last: Option<ClientError> = None;
    for _ in 0..50 {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) if e.code() == Some("replica_unavailable") => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(ClientError::Unexpected {
        detail: "retry loop never ran".to_string(),
    }))
}

#[test]
fn cluster_serves_bit_identical_and_fails_over_via_snapshots_never_refits() {
    let (replica_a, join_a) = start_replica();
    let (replica_b, join_b) = start_replica();
    let addr_a = replica_a.addr().to_string();
    let addr_b = replica_b.addr().to_string();

    let metrics = Arc::new(RouterMetrics::new());
    let cluster = Arc::new(Cluster::with_options(
        &[addr_a.clone(), addr_b.clone()],
        Arc::clone(&metrics),
        64,
        1,
        Duration::from_millis(100),
        Duration::from_secs(2),
    ));
    let router = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).unwrap();
    let router_handle = router.handle();
    let router_addr = router.local_addr();
    let router_join = std::thread::spawn(move || router.run());

    // ---- Fit + embed through the router, checked against the in-process path. ----
    let mut client = GemClient::connect(router_addr).unwrap();
    let cols = corpus(7, 6, 40);
    let config = GemConfig::fast();
    let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();

    let local = GemModel::fit(&cols, &config, FeatureSet::ds()).unwrap();
    let queries: Vec<GemColumn> = cols.iter().take(3).cloned().collect();
    let reference = local.transform(&queries).unwrap().matrix;
    let embedded = client.embed(fitted.handle, &queries).unwrap();
    assert_eq!(
        embedded.matrix, reference,
        "embed through the router diverged from in-process fit+transform"
    );

    // A fit-update derivative, to prove placement-first routing survives fail-over
    // for handles living off their ring slot.
    let growth = corpus(8, 2, 40);
    let updated = client.fit_update(fitted.handle, &growth).unwrap();
    assert_eq!(
        updated.handle.key(),
        updated_model_key(fitted.handle.key(), &growth),
        "the router and the replica must derive the same update key"
    );
    let local_updated = local.fit_update(&growth).unwrap();
    let updated_reference = local_updated.transform(&queries).unwrap().matrix;
    let updated_embedded = client.embed(updated.handle, &queries).unwrap();
    assert_eq!(updated_embedded.matrix, updated_reference);

    // The router knew both placements without asking anyone.
    let owner = cluster
        .placement_of(&fitted.handle.to_hex())
        .expect("a tracked fit records its placement");
    assert!(owner == addr_a || owner == addr_b);
    assert_eq!(
        cluster.placement_of(&updated.handle.to_hex()).as_deref(),
        Some(owner.as_str()),
        "a derived model is created on its parent's replica"
    );

    // ---- Kill the owner. ----
    let (survivor, survivor_handle, owner_join, survivor_join) = if owner == addr_a {
        (addr_b.clone(), &replica_b, join_a, join_b)
    } else {
        (addr_a.clone(), &replica_a, join_b, join_a)
    };
    if owner == addr_a {
        replica_a.shutdown();
    } else {
        replica_b.shutdown();
    }
    owner_join.join().unwrap().unwrap();

    // Both handles keep answering — bit-identically — from the survivor, which got
    // the snapshots via write-through replication *before* the fits were confirmed.
    let after = retry_through_failover(|| client.embed(fitted.handle, &queries)).unwrap();
    assert_eq!(after.matrix, reference, "fail-over changed the embedding");
    assert_ne!(
        after.served_from,
        ServedFrom::ColdFit,
        "fail-over must serve the shipped snapshot, never refit"
    );
    let after_updated = retry_through_failover(|| client.embed(updated.handle, &queries)).unwrap();
    assert_eq!(after_updated.matrix, updated_reference);
    assert_ne!(after_updated.served_from, ServedFrom::ColdFit);

    // Post-kill routing agrees with the survivor.
    assert_eq!(
        cluster.route_handle(&fitted.handle.to_hex()).as_deref(),
        Some(survivor.as_str())
    );

    // Merged stats now cover exactly the live membership (the survivor): zero cold
    // fits — the snapshots were pushed, not refitted — and zero misses.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.fit_micros, 0,
        "the survivor never ran a fit: {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "every post-kill embed was a cache hit: {stats:?}"
    );
    assert!(stats.hits >= 2, "both fail-over embeds hit: {stats:?}");

    // Merged model listing resolves both handles on the cluster.
    let models = client.list_models().unwrap();
    for handle in [fitted.handle, updated.handle] {
        assert!(
            models.iter().any(|m| m.handle == handle.to_hex()),
            "{} missing from merged listing {models:?}",
            handle.to_hex()
        );
    }

    // The Prometheus exposition reports the dead replica as state 0 and the survivor
    // as state 2.
    let text = metrics.render();
    assert!(
        text.contains(&format!("router_replica_state{{replica=\"{owner}\"}} 0")),
        "{text}"
    );
    assert!(
        text.contains(&format!("router_replica_state{{replica=\"{survivor}\"}} 2")),
        "{text}"
    );

    // Health is answered by the router itself and reflects the impaired cluster.
    let health = client.health().unwrap();
    assert_eq!(health.state.wire_name(), "degraded");

    drop(client);
    router_handle.shutdown();
    router_join.join().unwrap().unwrap();
    survivor_handle.shutdown();
    survivor_join.join().unwrap().unwrap();
}

/// Membership rebalancing: a replica added at runtime receives snapshot copies of the
/// handles it now owns — shipped, never refitted — so routing to it works immediately.
#[test]
fn added_replicas_receive_snapshots_through_rebalance() {
    let (replica_a, join_a) = start_replica();
    let (replica_b, join_b) = start_replica();
    let addr_a = replica_a.addr().to_string();
    let addr_b = replica_b.addr().to_string();

    let metrics = Arc::new(RouterMetrics::new());
    // Start with ONLY replica A in the membership.
    let cluster = Arc::new(Cluster::with_options(
        std::slice::from_ref(&addr_a),
        Arc::clone(&metrics),
        64,
        1,
        Duration::from_millis(100),
        Duration::from_secs(2),
    ));
    let router = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).unwrap();
    let router_handle = router.handle();
    let router_addr = router.local_addr();
    let router_join = std::thread::spawn(move || router.run());

    let mut client = GemClient::connect(router_addr).unwrap();
    let cols = corpus(11, 5, 36);
    let config = GemConfig::fast();
    let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
    let queries: Vec<GemColumn> = cols.iter().take(2).cloned().collect();
    let before = client.embed(fitted.handle, &queries).unwrap();

    // Admin surface: add replica B, rebalance ships snapshots to new owners and
    // successors. With 2 members every model must exist on both afterwards.
    assert!(cluster.add_replica(&addr_b));
    let report = cluster.rebalance();
    assert!(report.failures.is_empty(), "{report:?}");
    assert!(report.examined >= 1);

    // Kill A — the original fit host. B must answer from its shipped copy.
    replica_a.shutdown();
    join_a.join().unwrap().unwrap();
    let after = retry_through_failover(|| client.embed(fitted.handle, &queries)).unwrap();
    assert_eq!(after.matrix, before.matrix);
    assert_ne!(after.served_from, ServedFrom::ColdFit);
    let stats = client.stats().unwrap();
    assert_eq!(stats.fit_micros, 0, "replica B never fitted: {stats:?}");

    drop(client);
    router_handle.shutdown();
    router_join.join().unwrap().unwrap();
    replica_b.shutdown();
    join_b.join().unwrap().unwrap();
}

/// A `Fit` carrying a composition override is placed on the replica that addresses it:
/// the router and the replica derive the handle with the same function
/// (`gem_store::fit_model_key`), override included.
#[test]
fn fit_composition_override_routes_to_the_replica_that_computes_its_handle() {
    let (replica_a, join_a) = start_replica();
    let (replica_b, join_b) = start_replica();
    let addrs = [replica_a.addr().to_string(), replica_b.addr().to_string()];
    let cluster = Arc::new(Cluster::with_options(
        &addrs,
        Arc::new(RouterMetrics::new()),
        64,
        1,
        Duration::from_millis(100),
        Duration::from_secs(2),
    ));
    let router = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).unwrap();
    let router_handle = router.handle();
    let router_addr = router.local_addr();
    let router_join = std::thread::spawn(move || router.run());

    let mut client = GemClient::connect(router_addr).unwrap();
    let cols = corpus(13, 5, 40);
    let config = GemConfig::fast();
    let fitted = client
        .fit_with_composition(
            &cols,
            &config,
            FeatureSet::ds(),
            Some(Composition::Aggregation),
        )
        .unwrap();
    assert_eq!(fitted.served_from, ServedFrom::ColdFit);
    let overridden = config.clone().with_composition(Composition::Aggregation);
    assert_eq!(
        fitted.handle.key(),
        model_key(&cols, &overridden, FeatureSet::ds()),
        "the handle names the model fitted with the override"
    );
    assert_ne!(
        fitted.handle.key(),
        model_key(&cols, &config, FeatureSet::ds())
    );

    // The placement names the replica that ran the fit; the other one only received
    // the write-through snapshot.
    let placed = cluster
        .placement_of(&fitted.handle.to_hex())
        .expect("a tracked fit records its placement");
    for addr in &addrs {
        let stats = GemClient::connect(addr.as_str()).unwrap().stats().unwrap();
        assert_eq!(
            stats.fit_micros > 0,
            *addr == placed,
            "{addr} (placement {placed}): {stats:?}"
        );
    }
    let direct = GemModel::fit(&cols, &overridden, FeatureSet::ds())
        .unwrap()
        .transform(&cols)
        .unwrap()
        .matrix;
    assert_eq!(client.embed(fitted.handle, &cols).unwrap().matrix, direct);

    drop(client);
    router_handle.shutdown();
    router_join.join().unwrap().unwrap();
    for (replica, join) in [(replica_a, join_a), (replica_b, join_b)] {
        replica.shutdown();
        join.join().unwrap().unwrap();
    }
}
