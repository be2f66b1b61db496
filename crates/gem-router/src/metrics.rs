//! Router telemetry: cluster-wide counters plus lazily registered per-replica
//! instrument sets, rendered as one Prometheus exposition.
//!
//! The serving tier's [`gem_telemetry::MetricsRegistry`] expects `&mut self` during
//! registration, but the router learns its replica set at runtime (membership changes,
//! fail-over). [`RouterMetrics`] therefore keeps the registry behind a mutex and
//! registers each replica's instruments the first time that address is observed; hot
//! paths hold only the returned `Arc` handles, so recording a forward or a latency
//! never touches the registry lock.
//!
//! Exported families (all prefixed `router_` to stay disjoint from the per-replica
//! `gem_*` namespace each `gem-served` exports itself):
//!
//! * `router_requests_total` — client requests accepted by the front-end.
//! * `router_fanouts_total` — fan-out requests (`stats` / `list-models` / `evict`).
//! * `router_replications_total` — write-through snapshot copies shipped to a successor.
//! * `router_failover_moves_total` — handles re-homed by fail-over or rebalancing.
//! * `router_no_replica_total` — requests refused because no live replica could own them.
//! * `router_replica_state{replica=..}` — 2 = up, 1 = degraded, 0 = down.
//! * `router_replica_forwards_total{replica=..}` / `router_replica_errors_total{..}` —
//!   requests forwarded over clients' upstream links, and the failures forwarding
//!   saw. Fan-out legs ride control connections and count in neither.
//! * `router_replica_probes_total{replica=..}` / `router_replica_probe_failures_total{..}`.
//! * `router_replica_request_seconds{replica=..}` — forward round-trip latency summary
//!   (forwards only, like `router_replica_forwards_total`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gem_serve::sync::lock_or_recover;
use gem_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// The gauge value rendered for a replica in the `up` state.
pub const STATE_UP: u64 = 2;
/// The gauge value rendered for a replica in the `degraded` state.
pub const STATE_DEGRADED: u64 = 1;
/// The gauge value rendered for a replica in the `down` state.
pub const STATE_DOWN: u64 = 0;

/// The instrument handles for one replica. Cloning clones the `Arc`s, so call sites
/// keep their own copy and record without any locking.
#[derive(Debug, Clone)]
pub struct ReplicaInstruments {
    /// Requests forwarded to this replica over clients' upstream links (fan-out legs
    /// ride control connections and are not counted).
    pub forwards: Arc<Counter>,
    /// Forwarding failures observed against this replica (connect, write, or a
    /// connection that died with requests in flight).
    pub errors: Arc<Counter>,
    /// Health probes sent to this replica.
    pub probes: Arc<Counter>,
    /// Health probes that failed (connect error or transport error mid-probe).
    pub probe_failures: Arc<Counter>,
    /// Last observed state: 2 = up, 1 = degraded, 0 = down.
    pub state: Arc<Gauge>,
    /// Forward round-trip latency (request written → response line received).
    pub latency: Arc<Histogram>,
}

/// Everything the registry lock protects: the registry itself plus the map of
/// already-registered replica instrument sets.
#[derive(Debug, Default)]
struct Inner {
    registry: MetricsRegistry,
    replicas: HashMap<String, ReplicaInstruments>,
}

/// Cluster-wide router metrics. See the module docs for the exported families.
#[derive(Debug)]
pub struct RouterMetrics {
    inner: Mutex<Inner>,
    requests: Arc<Counter>,
    fanouts: Arc<Counter>,
    replications: Arc<Counter>,
    failover_moves: Arc<Counter>,
    no_replica: Arc<Counter>,
}

impl Default for RouterMetrics {
    fn default() -> Self {
        RouterMetrics::new()
    }
}

impl RouterMetrics {
    /// A fresh metrics set with the cluster-wide families registered (per-replica
    /// families appear on first use of each address).
    pub fn new() -> Self {
        let mut inner = Inner::default();
        let requests = inner.registry.counter(
            "router_requests_total",
            "client requests accepted by the routing front-end",
        );
        let fanouts = inner.registry.counter(
            "router_fanouts_total",
            "requests fanned out to every live replica",
        );
        let replications = inner.registry.counter(
            "router_replications_total",
            "write-through snapshot copies shipped to a ring successor",
        );
        let failover_moves = inner.registry.counter(
            "router_failover_moves_total",
            "model handles re-homed by fail-over or membership rebalancing",
        );
        let no_replica = inner.registry.counter(
            "router_no_replica_total",
            "requests refused because no live replica could own the route",
        );
        RouterMetrics {
            inner: Mutex::new(inner),
            requests,
            fanouts,
            replications,
            failover_moves,
            no_replica,
        }
    }

    /// Count one accepted client request.
    pub fn inc_request(&self) {
        self.requests.inc();
    }

    /// Count one fan-out request.
    pub fn inc_fanout(&self) {
        self.fanouts.inc();
    }

    /// Count one write-through snapshot replication.
    pub fn inc_replication(&self) {
        self.replications.inc();
    }

    /// Count `n` handles re-homed by fail-over or rebalancing.
    pub fn add_failover_moves(&self, n: u64) {
        self.failover_moves.add(n);
    }

    /// Count one request refused with the `no_replica` error.
    pub fn inc_no_replica(&self) {
        self.no_replica.inc();
    }

    /// The instrument set for `addr`, registering the per-replica families on first
    /// sight of the address. New replicas start in the `up` state.
    pub fn replica(&self, addr: &str) -> ReplicaInstruments {
        let mut inner = lock_or_recover(&self.inner);
        if let Some(existing) = inner.replicas.get(addr) {
            return existing.clone();
        }
        let labels = [("replica", addr)];
        let instruments = ReplicaInstruments {
            forwards: inner.registry.labeled_counter(
                "router_replica_forwards_total",
                "requests forwarded to this replica",
                &labels,
            ),
            errors: inner.registry.labeled_counter(
                "router_replica_errors_total",
                "forwarding failures observed against this replica",
                &labels,
            ),
            probes: inner.registry.labeled_counter(
                "router_replica_probes_total",
                "health probes sent to this replica",
                &labels,
            ),
            probe_failures: inner.registry.labeled_counter(
                "router_replica_probe_failures_total",
                "health probes this replica failed",
                &labels,
            ),
            state: inner.registry.labeled_gauge(
                "router_replica_state",
                "replica state: 2 = up, 1 = degraded, 0 = down",
                &labels,
            ),
            latency: inner.registry.labeled_histogram(
                "router_replica_request_seconds",
                "forward round-trip latency against this replica",
                &labels,
            ),
        };
        instruments.state.set(STATE_UP);
        inner.replicas.insert(addr.to_string(), instruments.clone());
        instruments
    }

    /// Render the full Prometheus exposition (what `gem-routed --metrics-addr` serves).
    pub fn render(&self) -> String {
        lock_or_recover(&self.inner).registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn replica_instruments_register_once_and_render_labeled_series() {
        let metrics = RouterMetrics::new();
        let a = metrics.replica("127.0.0.1:7001");
        let again = metrics.replica("127.0.0.1:7001");
        let b = metrics.replica("127.0.0.1:7002");

        a.forwards.inc();
        again.forwards.inc(); // same underlying series — registration is idempotent
        b.forwards.inc();
        a.state.set(STATE_DOWN);
        b.latency.record(Duration::from_micros(420));
        metrics.inc_request();
        metrics.inc_request();
        metrics.add_failover_moves(3);

        let text = metrics.render();
        assert!(text.contains("router_requests_total 2"), "{text}");
        assert!(text.contains("router_failover_moves_total 3"), "{text}");
        assert!(
            text.contains("router_replica_forwards_total{replica=\"127.0.0.1:7001\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("router_replica_forwards_total{replica=\"127.0.0.1:7002\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("router_replica_state{replica=\"127.0.0.1:7001\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("router_replica_state{replica=\"127.0.0.1:7002\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(
                "router_replica_request_seconds{replica=\"127.0.0.1:7002\",quantile=\"0.99\"}"
            ),
            "{text}"
        );
        // One TYPE declaration per family even with two replicas registered.
        assert_eq!(
            text.matches("# TYPE router_replica_forwards_total counter")
                .count(),
            1
        );
    }
}
