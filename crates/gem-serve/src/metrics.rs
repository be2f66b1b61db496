//! Server-side metric assembly: the bridge between the serving hot path and
//! `gem-telemetry`'s instruments.
//!
//! [`ServerMetrics`] owns every live instrument the replica exports — per-request-shape
//! end-to-end latency histograms, per-shape × per-phase (queue wait, decode, execute,
//! encode) histograms, admission gauges (queue depth, busy workers, pool size, queue
//! capacity), and a scrape-to-scrape request rate — and renders them, together with the
//! lifetime [`ServerCounters`] and the service's cache
//! statistics, as one Prometheus text exposition document
//! ([`ServerMetrics::render`]). `gem-served --metrics-addr` serves exactly this
//! document to scrapers; the `Health` wire request derives its `ok|degraded|overloaded`
//! verdict from the same gauges.
//!
//! Recording costs a handful of relaxed atomic adds per request (no locks, no
//! allocation), so the instruments are always on — there is no sampling knob to forget
//! to enable before an incident.

use crate::net::ServerCounters;
use crate::service::ServiceStats;
use gem_proto::{RequestBody, WireLatency};
use gem_telemetry::{Counter, FloatGauge, Gauge, Histogram, MetricsRegistry, RateWindow};
use std::sync::Arc;
use std::time::Duration;

/// The request shapes latency is tracked under — one histogram series per shape, so a
/// slow `fit` tail cannot hide inside a flood of fast `embed`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestShape {
    /// A `fit` request (cold EM fit, cache hit, or warm start).
    Fit,
    /// A `fit_update` request (incremental growth of a fitted model).
    FitUpdate,
    /// An `embed` request against a fitted handle.
    Embed,
    /// An `embed_corpus` one-shot request.
    EmbedCorpus,
    /// A `push_model` snapshot install.
    PushModel,
    /// A `pull_model` snapshot fetch.
    PullModel,
    /// A `stats` request.
    Stats,
    /// A `health` probe.
    Health,
    /// A `list_models` request.
    ListModels,
    /// An `evict` request.
    Evict,
    /// A line that failed UTF-8 validation or protocol decoding — answered with a
    /// typed error, and timed like any other request so a flood of garbage is visible
    /// in the same place as real traffic.
    ProtocolError,
}

/// Every shape, in the order series are registered and reported.
pub const SHAPES: [RequestShape; 11] = [
    RequestShape::Fit,
    RequestShape::FitUpdate,
    RequestShape::Embed,
    RequestShape::EmbedCorpus,
    RequestShape::PushModel,
    RequestShape::PullModel,
    RequestShape::Stats,
    RequestShape::Health,
    RequestShape::ListModels,
    RequestShape::Evict,
    RequestShape::ProtocolError,
];

impl RequestShape {
    /// The stable label value this shape exports (`shape="fit"`, …) — the same names
    /// the wire protocol uses for request bodies.
    pub fn name(self) -> &'static str {
        match self {
            RequestShape::Fit => "fit",
            RequestShape::FitUpdate => "fit_update",
            RequestShape::Embed => "embed",
            RequestShape::EmbedCorpus => "embed_corpus",
            RequestShape::PushModel => "push_model",
            RequestShape::PullModel => "pull_model",
            RequestShape::Stats => "stats",
            RequestShape::Health => "health",
            RequestShape::ListModels => "list_models",
            RequestShape::Evict => "evict",
            RequestShape::ProtocolError => "protocol_error",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestShape::Fit => 0,
            RequestShape::FitUpdate => 1,
            RequestShape::Embed => 2,
            RequestShape::EmbedCorpus => 3,
            RequestShape::PushModel => 4,
            RequestShape::PullModel => 5,
            RequestShape::Stats => 6,
            RequestShape::Health => 7,
            RequestShape::ListModels => 8,
            RequestShape::Evict => 9,
            RequestShape::ProtocolError => 10,
        }
    }

    /// Classify a decoded request body.
    pub(crate) fn of_body(body: &RequestBody) -> Self {
        match body {
            RequestBody::Fit { .. } => RequestShape::Fit,
            RequestBody::FitUpdate { .. } => RequestShape::FitUpdate,
            RequestBody::Embed { .. } => RequestShape::Embed,
            RequestBody::EmbedCorpus { .. } => RequestShape::EmbedCorpus,
            RequestBody::PushModel { .. } => RequestShape::PushModel,
            RequestBody::PullModel { .. } => RequestShape::PullModel,
            RequestBody::Stats => RequestShape::Stats,
            RequestBody::Health => RequestShape::Health,
            RequestBody::ListModels => RequestShape::ListModels,
            RequestBody::Evict { .. } => RequestShape::Evict,
        }
    }
}

/// The five histograms one shape records into: end-to-end plus the four phases.
#[derive(Debug)]
struct ShapeInstruments {
    total: Arc<Histogram>,
    queue: Arc<Histogram>,
    decode: Arc<Histogram>,
    execute: Arc<Histogram>,
    encode: Arc<Histogram>,
}

/// Every live instrument a serving replica exports. Built once at bind time, shared as
/// an `Arc` by the queue, the executors and the scrape listener.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: MetricsRegistry,
    shapes: Vec<ShapeInstruments>,
    depth_gauge: Arc<Gauge>,
    capacity_gauge: Arc<Gauge>,
    busy_gauge: Arc<Gauge>,
    workers_gauge: Arc<Gauge>,
    /// Execute-phase latency across all shapes — feeds the retry-after hint (how long
    /// one queued request takes to serve, times the backlog ahead of you).
    service_time: Arc<Histogram>,
    requests_per_second: Arc<FloatGauge>,
    rate: RateWindow,
    wire_bytes_read: Arc<Counter>,
    wire_bytes_written: Arc<Counter>,
    conn_inflight: Arc<Gauge>,
    conn_inflight_peak: Arc<Gauge>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Build the full instrument set (one-time cost; a few hundred KiB of buckets).
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let depth_gauge = registry.gauge(
            "gem_queue_depth",
            "frames waiting in the shared work queue for an executor",
        );
        let capacity_gauge = registry.gauge(
            "gem_queue_capacity",
            "work-queue bound above which new requests are shed",
        );
        let busy_gauge = registry.gauge("gem_workers_busy", "executors currently inside a request");
        let workers_gauge = registry.gauge("gem_workers", "executor-pool size");
        let requests_per_second = registry.float_gauge(
            "gem_requests_per_second",
            "request rate over the window since the previous scrape",
        );
        let service_time = registry.histogram(
            "gem_service_seconds",
            "execute-phase latency across all request shapes",
        );
        let wire_bytes_read = registry.counter(
            "gem_wire_bytes_read_total",
            "frame bytes read off client sockets after the hello (payload and framing)",
        );
        let wire_bytes_written = registry.counter(
            "gem_wire_bytes_written_total",
            "bytes written to client sockets (handshake verdicts and reply frames)",
        );
        let conn_inflight = registry.gauge(
            "gem_connection_inflight_depth",
            "in-flight pipeline depth of the connection that most recently changed",
        );
        let conn_inflight_peak = registry.gauge(
            "gem_connection_inflight_peak",
            "deepest any single connection's pipeline has ever been",
        );
        let shapes = SHAPES
            .iter()
            .map(|shape| {
                let labels = [("shape", shape.name())];
                let total = registry.labeled_histogram(
                    "gem_request_seconds",
                    "end-to-end request latency (queue wait + decode + execute + encode) by shape",
                    &labels,
                );
                let phase = |registry: &mut MetricsRegistry, phase: &str| {
                    registry.labeled_histogram(
                        "gem_request_phase_seconds",
                        "request latency split by phase and shape",
                        &[("shape", shape.name()), ("phase", phase)],
                    )
                };
                ShapeInstruments {
                    total,
                    queue: phase(&mut registry, "queue"),
                    decode: phase(&mut registry, "decode"),
                    execute: phase(&mut registry, "execute"),
                    encode: phase(&mut registry, "encode"),
                }
            })
            .collect();
        ServerMetrics {
            registry,
            shapes,
            depth_gauge,
            capacity_gauge,
            busy_gauge,
            workers_gauge,
            service_time,
            requests_per_second,
            rate: RateWindow::new(),
            wire_bytes_read,
            wire_bytes_written,
            conn_inflight,
            conn_inflight_peak,
        }
    }

    /// Record one answered request: its shape and the four phase durations.
    pub(crate) fn observe(
        &self,
        shape: RequestShape,
        queue: Duration,
        decode: Duration,
        execute: Duration,
        encode: Duration,
    ) {
        let Some(instruments) = self.shapes.get(shape.index()) else {
            return; // unreachable by construction; never worth a panic on the hot path
        };
        instruments.total.record(queue + decode + execute + encode);
        instruments.queue.record(queue);
        instruments.decode.record(decode);
        instruments.execute.record(execute);
        instruments.encode.record(encode);
        self.service_time.record(execute);
    }

    /// The live queue-depth gauge (updated by the work queue under its own lock).
    pub(crate) fn depth_gauge(&self) -> &Gauge {
        &self.depth_gauge
    }

    /// The live busy-executors gauge.
    pub(crate) fn busy_gauge(&self) -> &Gauge {
        &self.busy_gauge
    }

    /// Count frame bytes read off a client socket.
    pub(crate) fn count_wire_read(&self, bytes: u64) {
        self.wire_bytes_read.add(bytes);
    }

    /// Count bytes written to a client socket.
    pub(crate) fn count_wire_written(&self, bytes: u64) {
        self.wire_bytes_written.add(bytes);
    }

    /// Record that some connection's in-flight pipeline depth changed: the depth gauge
    /// follows the most recent change, the peak gauge only ratchets upward — the
    /// fairness signal (who flooded the queue) survives the offender disconnecting.
    pub(crate) fn observe_connection_depth(&self, depth: u64) {
        self.conn_inflight.set(depth);
        self.conn_inflight_peak.ratchet(depth);
    }

    /// Total bytes read off client sockets.
    pub fn wire_bytes_read(&self) -> u64 {
        self.wire_bytes_read.get()
    }

    /// Total bytes written to client sockets.
    pub fn wire_bytes_written(&self) -> u64 {
        self.wire_bytes_written.get()
    }

    /// The deepest any single connection's pipeline has ever been.
    pub fn connection_inflight_peak(&self) -> u64 {
        self.conn_inflight_peak.get()
    }

    /// Pin the pool-size and queue-capacity gauges (once, at server start).
    pub(crate) fn set_shape_of_pool(&self, workers: u64, queue_capacity: u64) {
        self.workers_gauge.set(workers);
        self.capacity_gauge.set(queue_capacity);
    }

    /// Frames currently waiting for an executor.
    pub fn queue_depth(&self) -> u64 {
        self.depth_gauge.get()
    }

    /// The deepest the queue has ever been.
    pub fn queue_depth_high_water(&self) -> u64 {
        self.depth_gauge.high_water()
    }

    /// Executors currently inside a request.
    pub fn busy_workers(&self) -> u64 {
        self.busy_gauge.get()
    }

    /// The most executors ever busy at one instant: how close the pool came to
    /// saturation (equal to the pool size means requests queued behind busy workers).
    pub fn busy_workers_high_water(&self) -> u64 {
        self.busy_gauge.high_water()
    }

    /// The configured work-queue bound.
    pub fn queue_capacity(&self) -> u64 {
        self.capacity_gauge.get()
    }

    /// The configured executor-pool size.
    pub fn workers(&self) -> u64 {
        self.workers_gauge.get()
    }

    /// End-to-end request count recorded under `shape` (the conservation invariant:
    /// summed over every shape this equals `ServerCounters::requests`, because every
    /// popped frame is recorded under exactly one shape and shed frames never pop).
    pub fn shape_count(&self, shape: RequestShape) -> u64 {
        self.shapes
            .get(shape.index())
            .map(|i| i.total.count())
            .unwrap_or(0)
    }

    /// Per-shape latency quantiles for every shape that has served at least one
    /// request, in [`SHAPES`] order — the table a `stats` response carries.
    pub fn latency_table(&self) -> Vec<WireLatency> {
        SHAPES
            .iter()
            .zip(&self.shapes)
            .filter(|(_, instruments)| instruments.total.count() > 0)
            .map(|(shape, instruments)| WireLatency {
                shape: shape.name().to_string(),
                count: instruments.total.count(),
                p50_us: instruments.total.p50(),
                p90_us: instruments.total.p90(),
                p99_us: instruments.total.p99(),
            })
            .collect()
    }

    /// How long a shed (or backlogged) client should wait before retrying: the backlog
    /// ahead of it times the median service time, clamped to a sane band. With no
    /// latency data yet (cold server under a flood), a flat 100 ms.
    pub(crate) fn retry_hint_ms(&self, queue_depth: u64) -> u64 {
        let p50_us = self.service_time.p50();
        let per_request_ms = if p50_us == 0 {
            100
        } else {
            (p50_us / 1_000).max(1)
        };
        queue_depth
            .max(1)
            .saturating_mul(per_request_ms)
            .clamp(25, 5_000)
    }

    /// Render the full Prometheus text exposition document: the lifetime counters and
    /// cache/service statistics (mirrored at scrape time), then every live instrument.
    /// Pass `None` for `stats` to render without touching the service (the scrape
    /// listener passes `Some` so cache tiers and fit costs are exported too).
    pub fn render(&self, counters: &ServerCounters, stats: Option<&ServiceStats>) -> String {
        self.requests_per_second
            .set(self.rate.observe(counters.requests()));
        let mut out = String::new();
        let mut push = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        push(
            "gem_requests_total",
            "counter",
            "protocol lines answered (including error responses)",
            counters.requests().to_string(),
        );
        push(
            "gem_requests_shed_total",
            "counter",
            "requests shed at admission because the work queue was full",
            counters.requests_shed().to_string(),
        );
        push(
            "gem_connections_total",
            "counter",
            "connections accepted",
            counters.connections().to_string(),
        );
        push(
            "gem_protocol_errors_total",
            "counter",
            "lines that failed UTF-8 validation or protocol decoding",
            counters.protocol_errors().to_string(),
        );
        push(
            "gem_lock_recoveries_total",
            "counter",
            "work-queue locks recovered after a holder panicked",
            counters.lock_recoveries().to_string(),
        );
        push(
            "gem_workers_busy_high_water",
            "gauge",
            "most executors ever busy at one instant",
            self.busy_gauge.high_water().to_string(),
        );
        push(
            "gem_queue_depth_high_water",
            "gauge",
            "deepest the work queue has ever been",
            self.depth_gauge.high_water().to_string(),
        );
        if let Some(stats) = stats {
            push(
                "gem_cache_hits_total",
                "counter",
                "lookups served from resident memory",
                stats.cache.hits.to_string(),
            );
            push(
                "gem_cache_warm_starts_total",
                "counter",
                "lookups rehydrated from the store tier",
                stats.cache.warm_starts.to_string(),
            );
            push(
                "gem_cache_misses_total",
                "counter",
                "lookups that found the model in neither tier",
                stats.cache.misses.to_string(),
            );
            push(
                "gem_cache_evictions_total",
                "counter",
                "models evicted to respect the cache capacity",
                stats.cache.evictions.to_string(),
            );
            push(
                "gem_coalesced_fits_total",
                "counter",
                "duplicate in-flight fits coalesced onto one EM run",
                stats.cache.coalesced_fits.to_string(),
            );
            push(
                "gem_cache_spills_total",
                "counter",
                "evicted entries written to the store tier",
                stats.cache.spills.to_string(),
            );
            push(
                "gem_store_errors_total",
                "counter",
                "store reads or writes that failed",
                stats.cache.store_errors.to_string(),
            );
            push(
                "gem_fit_seconds_total",
                "counter",
                "seconds spent inside cold EM fits",
                format!("{}", stats.cache.fit_micros as f64 / 1e6),
            );
            push(
                "gem_em_iterations_total",
                "counter",
                "EM iterations across cold fits' winning restarts",
                stats.cache.em_iterations.to_string(),
            );
            push(
                "gem_resident_models",
                "gauge",
                "models resident in the memory tier",
                stats.resident_models.to_string(),
            );
            push(
                "gem_resident_bytes",
                "gauge",
                "approximate bytes of the resident models",
                stats.resident_bytes.to_string(),
            );
            if let (Some(entries), Some(bytes)) = (stats.store_entries, stats.store_bytes) {
                push(
                    "gem_store_entries",
                    "gauge",
                    "snapshots in the store tier",
                    entries.to_string(),
                );
                push(
                    "gem_store_bytes",
                    "gauge",
                    "total bytes of the store tier",
                    bytes.to_string(),
                );
            }
        }
        out.push_str(&self.registry.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_enumerate_every_request_body_and_have_stable_indices() {
        for (at, shape) in SHAPES.iter().enumerate() {
            assert_eq!(shape.index(), at, "SHAPES order must match index()");
        }
        // A fresh metrics set has zero everywhere and an empty latency table.
        let metrics = ServerMetrics::new();
        assert_eq!(metrics.queue_depth(), 0);
        assert!(metrics.latency_table().is_empty());
        for shape in SHAPES {
            assert_eq!(metrics.shape_count(shape), 0);
        }
    }

    #[test]
    fn observations_land_in_their_shape_and_the_latency_table() {
        let metrics = ServerMetrics::new();
        let us = Duration::from_micros;
        metrics.observe(RequestShape::Fit, us(10), us(200), us(60_000), us(30));
        metrics.observe(RequestShape::Embed, us(5), us(40), us(900), us(25));
        metrics.observe(RequestShape::Embed, us(5), us(40), us(1_100), us(25));
        assert_eq!(metrics.shape_count(RequestShape::Fit), 1);
        assert_eq!(metrics.shape_count(RequestShape::Embed), 2);
        assert_eq!(metrics.shape_count(RequestShape::Stats), 0);

        let table = metrics.latency_table();
        assert_eq!(table.len(), 2, "only shapes that served requests appear");
        assert_eq!(table[0].shape, "fit");
        assert_eq!(table[1].shape, "embed");
        assert_eq!(table[1].count, 2);
        // The fit took ~60ms end-to-end; the quantile is log-bucketed but must land in
        // the right decade.
        assert!(
            (60_000..=80_000).contains(&table[0].p50_us),
            "{}",
            table[0].p50_us
        );
        assert!(table[1].p99_us >= table[1].p50_us);
    }

    #[test]
    fn retry_hints_scale_with_backlog_and_service_time() {
        let metrics = ServerMetrics::new();
        // Cold server: flat 100 ms per queued request.
        assert_eq!(metrics.retry_hint_ms(10), 1_000);
        // After observing ~2ms executes, the hint is backlog × median, clamped.
        for _ in 0..100 {
            metrics.observe(
                RequestShape::Embed,
                Duration::ZERO,
                Duration::ZERO,
                Duration::from_micros(2_000),
                Duration::ZERO,
            );
        }
        let hint = metrics.retry_hint_ms(8);
        assert!((16..=40).contains(&hint), "8 × ~2ms ≈ {hint}");
        assert_eq!(metrics.retry_hint_ms(0), 25, "floor");
        assert_eq!(metrics.retry_hint_ms(1_000_000), 5_000, "ceiling");
    }

    #[test]
    fn render_covers_counters_gauges_and_per_shape_summaries() {
        let metrics = ServerMetrics::new();
        metrics.set_shape_of_pool(4, 256);
        metrics.observe(
            RequestShape::Stats,
            Duration::from_micros(3),
            Duration::from_micros(9),
            Duration::from_micros(120),
            Duration::from_micros(7),
        );
        let counters = ServerCounters::default();
        let text = metrics.render(&counters, None);
        for needle in [
            "# TYPE gem_requests_total counter",
            "# TYPE gem_requests_shed_total counter",
            "# TYPE gem_queue_depth gauge",
            "# TYPE gem_request_seconds summary",
            "# TYPE gem_request_phase_seconds summary",
            "gem_queue_capacity 256",
            "gem_workers 4",
            "gem_request_seconds{shape=\"stats\",quantile=\"0.99\"}",
            "gem_request_phase_seconds{shape=\"stats\",phase=\"execute\",quantile=\"0.5\"}",
            "gem_request_seconds_count{shape=\"stats\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Every non-comment sample traces back to a TYPE declaration.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name.trim_end_matches("_count").trim_end_matches("_sum");
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "sample `{line}` lacks a TYPE line"
            );
        }
    }
}
