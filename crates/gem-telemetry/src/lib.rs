//! # gem-telemetry
//!
//! Zero-dependency runtime telemetry for the serving stack: the instruments a live
//! `gem-served` exports so an operator (or a load balancer) can *see* the replica —
//! latency distributions, queue depth, shed load — instead of inferring its health from
//! timeouts.
//!
//! Four instrument types, all lock-free (shared atomics, `Ordering::Relaxed` — the
//! hot-path cost of recording is one or two atomic RMWs, and scrapes read a consistent
//! *enough* snapshot for monitoring):
//!
//! * [`Counter`] — a monotonically increasing event count (`gem_requests_shed_total`).
//! * [`Gauge`] — an instantaneous integer level with built-in high-water tracking
//!   (`gem_queue_depth`, `gem_busy_workers`).
//! * [`FloatGauge`] — an instantaneous float level, for derived values like rates.
//! * [`Histogram`] — a log-scaled fixed-bucket latency distribution: 4 sub-buckets per
//!   power of two of microseconds (≤ ~19% relative error), with total count and sum, and
//!   quantile readout ([`Histogram::p50`] / [`Histogram::p90`] / [`Histogram::p99`]).
//!
//! [`RateWindow`] derives a per-second rate from any monotone counter with the
//! delta/elapsed idiom (observe the total, divide the growth by the time since the last
//! observation), so scrape-time rates need no background thread.
//!
//! [`MetricsRegistry`] names the instruments (with optional fixed label sets, e.g.
//! `shape="fit"`) and renders them all as Prometheus text exposition format
//! ([`MetricsRegistry::render`]): counters and gauges as their value, histograms as a
//! `summary` with `quantile="0.5" / 0.9 / 0.99"` series plus `_count` and `_sum` (in
//! seconds). [`spawn_exposition_listener`] serves a rendered document over bare HTTP:
//! it is what `gem-served --metrics-addr` and `gem-routed --metrics-addr` answer
//! scrapers with.
//!
//! ```
//! use gem_telemetry::MetricsRegistry;
//! use std::time::Duration;
//!
//! let mut registry = MetricsRegistry::new();
//! let shed = registry.counter("gem_requests_shed_total", "requests shed at admission");
//! let depth = registry.gauge("gem_queue_depth", "frames waiting for an executor");
//! let lat = registry.labeled_histogram(
//!     "gem_request_seconds",
//!     "request latency by shape",
//!     &[("shape", "fit")],
//! );
//! shed.inc();
//! depth.set(3);
//! lat.record(Duration::from_micros(250));
//! let text = registry.render();
//! assert!(text.contains("# TYPE gem_requests_shed_total counter"));
//! assert!(text.contains("gem_request_seconds{shape=\"fit\",quantile=\"0.99\"}"));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events at once.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous integer level (queue depth, busy workers, resident models) with a
/// built-in high-water mark: every increase also ratchets [`Gauge::high_water`], so the
/// worst observed level survives between scrapes even if the spike itself does not.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the level outright (also ratchets the high-water mark).
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// Raise the level to `value` if it is higher, never lowering it — a monotone
    /// "peak" gauge (e.g. the deepest any connection's pipeline has ever been) that
    /// concurrent observers can feed without a read-modify-write race.
    pub fn ratchet(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// Raise the level by one; returns the new level.
    pub fn inc(&self) -> u64 {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Lower the level by one (saturating at zero: a stray extra `dec` must not wrap
    /// the gauge to 2^64, which would poison every scrape after it).
    pub fn dec(&self) {
        // CAS loop instead of fetch_sub so concurrent decrements at zero saturate.
        let mut current = self.value.load(Ordering::Relaxed);
        while current > 0 {
            match self.value.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// An instantaneous float level — for derived values (rates, ratios) a scraper should
/// read as a gauge. Stored as IEEE-754 bits in an atomic, so it is lock-free like
/// everything else here.
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        FloatGauge::default()
    }

    /// Set the level.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: values 0–3 µs exactly, then 4 sub-buckets per power of
/// two up to 2^31 µs (~36 minutes) — far beyond any serving latency this stack produces.
const N_BUCKETS: usize = 124;
/// Index of the overflow bucket (everything ≥ 2^31 µs).
const LAST_BUCKET: usize = N_BUCKETS - 1;

/// A log-scaled fixed-bucket latency histogram.
///
/// Recording is one bucket `fetch_add` plus count/sum updates — no allocation, no lock,
/// no floating point. The bucket layout is log-linear (4 linear sub-buckets per power of
/// two of microseconds), so quantile readouts overestimate by at most one sub-bucket
/// (≤ ~19% relative): good enough to tell a 2 ms p99 from a 200 ms one, which is what a
/// latency SLO needs, at a fixed 1 KiB per instrument.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// Which bucket holds a value: 0–3 µs map to buckets 0–3; above that, bucket
/// `(octave - 1) * 4 + sub` where `octave = floor(log2(µs))` and `sub` is the two bits
/// after the leading one — 4 linear sub-buckets per octave.
fn bucket_index(micros: u64) -> usize {
    if micros < 4 {
        return micros as usize;
    }
    let octave = 63 - u64::from(micros.leading_zeros());
    if octave > 31 {
        return LAST_BUCKET;
    }
    let sub = (micros >> (octave - 2)) & 3;
    ((octave - 1) * 4 + sub) as usize
}

/// The exclusive upper bound of a bucket, in microseconds — what quantile readouts
/// report (conservative: never *under* the true quantile).
fn bucket_upper_micros(index: usize) -> u64 {
    if index < 4 {
        return index as u64 + 1;
    }
    let octave = (index / 4 + 1) as u64;
    let sub = (index % 4) as u64 + 1;
    (1u64 << octave) + (sub << (octave - 2))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one duration.
    pub fn record(&self, duration: Duration) {
        self.record_micros(u64::try_from(duration.as_micros()).unwrap_or(u64::MAX));
    }

    /// Record one latency given in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// How many durations were recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The sum of every recorded duration, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) in microseconds: the upper bound of the
    /// bucket holding the target observation. Returns 0 when nothing was recorded.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_micros(index);
            }
        }
        bucket_upper_micros(LAST_BUCKET)
    }

    /// The median latency, in microseconds.
    pub fn p50(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// The 90th-percentile latency, in microseconds.
    pub fn p90(&self) -> u64 {
        self.quantile_micros(0.90)
    }

    /// The 99th-percentile latency, in microseconds.
    pub fn p99(&self) -> u64 {
        self.quantile_micros(0.99)
    }
}

/// A per-second rate derived from a monotone total with the delta/elapsed idiom: each
/// [`RateWindow::observe`] divides the total's growth by the time since the previous
/// observation. No background thread, no sample ring — the scraper's own cadence *is*
/// the window.
#[derive(Debug)]
pub struct RateWindow {
    origin: Instant,
    last_total: AtomicU64,
    last_micros: AtomicU64,
    rate_bits: AtomicU64,
}

impl Default for RateWindow {
    fn default() -> Self {
        RateWindow {
            origin: Instant::now(),
            last_total: AtomicU64::new(0),
            last_micros: AtomicU64::new(0),
            rate_bits: AtomicU64::new(0),
        }
    }
}

impl RateWindow {
    /// A window starting now, with a total of zero.
    pub fn new() -> Self {
        RateWindow::default()
    }

    /// Feed the current monotone total; returns events per second since the previous
    /// observation. Back-to-back observations (under a microsecond apart) and totals
    /// that went backwards return the previously computed rate instead of dividing by
    /// zero or inventing a negative rate.
    pub fn observe(&self, total: u64) -> f64 {
        let now = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        let then = self.last_micros.swap(now, Ordering::Relaxed);
        let previous = self.last_total.swap(total, Ordering::Relaxed);
        let elapsed = now.saturating_sub(then);
        if elapsed == 0 || total < previous {
            return f64::from_bits(self.rate_bits.load(Ordering::Relaxed));
        }
        let rate = (total - previous) as f64 / (elapsed as f64 / 1e6);
        self.rate_bits.store(rate.to_bits(), Ordering::Relaxed);
        rate
    }

    /// The most recently computed rate, without feeding a new observation.
    pub fn last_rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Float(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

/// One series: an instrument plus its fixed labels (`[("shape", "fit")]`).
#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A named family of series sharing one `# TYPE` declaration.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// The set of named instruments a process exports, and the renderer that turns them
/// into Prometheus text exposition format.
///
/// Register instruments while building (requires `&mut self`), then share the registry
/// behind an [`Arc`] — every instrument handle is itself an `Arc`, so hot paths keep
/// their own clones and never touch the registry again.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn family(&mut self, name: &str, help: &str) -> &mut Family {
        if let Some(at) = self.families.iter().position(|f| f.name == name) {
            return &mut self.families[at];
        }
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            series: Vec::new(),
        });
        let last = self.families.len() - 1;
        &mut self.families[last]
    }

    fn push(&mut self, name: &str, help: &str, labels: &[(&str, &str)], instrument: Instrument) {
        self.family(name, help).series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            instrument,
        });
    }

    /// Register an unlabeled counter.
    pub fn counter(&mut self, name: &str, help: &str) -> Arc<Counter> {
        self.labeled_counter(name, help, &[])
    }

    /// Register one counter series under `name` with fixed labels; call again with the
    /// same name and different labels to grow the family.
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.push(
            name,
            help,
            labels,
            Instrument::Counter(Arc::clone(&counter)),
        );
        counter
    }

    /// Register an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, help: &str) -> Arc<Gauge> {
        self.labeled_gauge(name, help, &[])
    }

    /// Register one gauge series under `name` with fixed labels.
    pub fn labeled_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::new());
        self.push(name, help, labels, Instrument::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Register an unlabeled float gauge.
    pub fn float_gauge(&mut self, name: &str, help: &str) -> Arc<FloatGauge> {
        let gauge = Arc::new(FloatGauge::new());
        self.push(name, help, &[], Instrument::Float(Arc::clone(&gauge)));
        gauge
    }

    /// Register an unlabeled histogram.
    pub fn histogram(&mut self, name: &str, help: &str) -> Arc<Histogram> {
        self.labeled_histogram(name, help, &[])
    }

    /// Register one histogram series under `name` with fixed labels (one series per
    /// request shape is the serving stack's layout).
    pub fn labeled_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.push(
            name,
            help,
            labels,
            Instrument::Histogram(Arc::clone(&histogram)),
        );
        histogram
    }

    /// Render every family as Prometheus text exposition format: `# HELP` and `# TYPE`
    /// lines per family, one sample line per series (histograms as a `summary`:
    /// `quantile="0.5" / 0.9 / 0.99"` plus `_count` and `_sum`, in seconds). Families
    /// render in registration order, so output is deterministic and diffable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let kind = match family.series.first().map(|s| &s.instrument) {
                Some(Instrument::Histogram(_)) => "summary",
                Some(Instrument::Counter(_)) => "counter",
                _ => "gauge",
            };
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, kind));
            for series in &family.series {
                match &series.instrument {
                    Instrument::Counter(c) => {
                        sample(
                            &mut out,
                            &family.name,
                            &series.labels,
                            &[],
                            &c.get().to_string(),
                        );
                    }
                    Instrument::Gauge(g) => {
                        sample(
                            &mut out,
                            &family.name,
                            &series.labels,
                            &[],
                            &g.get().to_string(),
                        );
                    }
                    Instrument::Float(g) => {
                        sample(
                            &mut out,
                            &family.name,
                            &series.labels,
                            &[],
                            &format!("{}", g.get()),
                        );
                    }
                    Instrument::Histogram(h) => {
                        for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                            let seconds = h.quantile_micros(q) as f64 / 1e6;
                            sample(
                                &mut out,
                                &family.name,
                                &series.labels,
                                &[("quantile", label)],
                                &format!("{seconds}"),
                            );
                        }
                        let count_name = format!("{}_count", family.name);
                        sample(
                            &mut out,
                            &count_name,
                            &series.labels,
                            &[],
                            &h.count().to_string(),
                        );
                        let sum_name = format!("{}_sum", family.name);
                        let sum_seconds = h.sum_micros() as f64 / 1e6;
                        sample(
                            &mut out,
                            &sum_name,
                            &series.labels,
                            &[],
                            &format!("{sum_seconds}"),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Append one sample line: `name{labels,extra} value`.
fn sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (key, val) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{key}=\"{val}\""));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Serve the Prometheus text exposition over bare HTTP on a thread of its own, and
/// return the bound address (port 0 picks an ephemeral one).
///
/// One short-lived connection per scrape: the request head is drained (the path is
/// ignored — every request gets the full document), `render` renders the document, and
/// the socket closes. The thread is detached; it dies with the process.
///
/// # Errors
/// The bind failure, or the failure to start the thread.
pub fn spawn_exposition_listener(
    addr: impl ToSocketAddrs,
    render: impl Fn() -> String + Send + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new().spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let mut head = [0u8; 1024];
            let _ = stream.read(&mut head);
            let body = render();
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        }
    })?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_track_levels_and_high_water() {
        let counter = Counter::new();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = Gauge::new();
        assert_eq!(gauge.inc(), 1);
        assert_eq!(gauge.inc(), 2);
        gauge.dec();
        assert_eq!(gauge.get(), 1);
        assert_eq!(gauge.high_water(), 2);
        gauge.set(7);
        assert_eq!(gauge.high_water(), 7);
        gauge.set(0);
        // Saturating: extra decrements never wrap to 2^64.
        gauge.dec();
        gauge.dec();
        assert_eq!(gauge.get(), 0);

        let rate = FloatGauge::new();
        rate.set(12.5);
        assert_eq!(rate.get(), 12.5);
    }

    #[test]
    fn bucket_layout_is_monotone_and_self_consistent() {
        // Every value lands in a bucket whose upper bound exceeds it, and bucket
        // indices never decrease as values grow.
        let mut previous_index = 0;
        for micros in (0..4096).chain([1 << 20, 1 << 30, u64::MAX]) {
            let index = bucket_index(micros);
            assert!(index >= previous_index, "non-monotone at {micros}");
            assert!(index < N_BUCKETS);
            if index < LAST_BUCKET {
                assert!(
                    bucket_upper_micros(index) > micros,
                    "upper bound {} does not cover {micros}",
                    bucket_upper_micros(index)
                );
            }
            previous_index = index;
        }
        // The log-linear promise: the upper bound overestimates by at most ~19% + 1µs.
        for micros in [10u64, 100, 1_000, 55_555, 1_000_000] {
            let upper = bucket_upper_micros(bucket_index(micros));
            assert!(
                (upper as f64) <= micros as f64 * 1.25 + 1.0,
                "{micros} -> {upper}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_true_values() {
        let h = Histogram::new();
        assert_eq!(h.p99(), 0, "empty histograms read zero");
        // 90 fast requests at ~100µs, 10 slow ones at ~80ms.
        for _ in 0..90 {
            h.record_micros(100);
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(80));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_micros(), 90 * 100 + 10 * 80_000);
        let p50 = h.p50();
        assert!((100..=125).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((80_000..=100_000).contains(&p99), "p99 {p99}");
        assert!(h.p90() <= p99);
    }

    #[test]
    fn histograms_are_safe_under_concurrent_recording() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for micros in 0..1000 {
                        h.record_micros(micros);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        let bucket_total: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucket_total, 4000, "no recording is lost or double-counted");
    }

    #[test]
    fn rate_windows_divide_delta_by_elapsed() {
        let window = RateWindow::new();
        std::thread::sleep(Duration::from_millis(20));
        let rate = window.observe(100);
        // 100 events over ≥20ms: between 0 and 5000/s, and certainly positive.
        assert!(rate > 0.0 && rate <= 5_000.0, "rate {rate}");
        // A total that goes backwards (counter reset) keeps the previous rate instead
        // of going negative.
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(window.observe(50), rate);
        assert_eq!(window.last_rate(), rate);
    }

    #[test]
    fn registry_renders_prometheus_exposition_text() {
        let mut registry = MetricsRegistry::new();
        let shed = registry.counter("gem_requests_shed_total", "requests shed at admission");
        let depth = registry.gauge("gem_queue_depth", "frames awaiting an executor");
        let rate = registry.float_gauge("gem_requests_per_second", "scrape-to-scrape rate");
        let fit = registry.labeled_histogram("gem_request_seconds", "latency", &[("shape", "fit")]);
        let embed =
            registry.labeled_histogram("gem_request_seconds", "latency", &[("shape", "embed")]);
        shed.add(2);
        depth.set(5);
        rate.set(1.5);
        fit.record(Duration::from_micros(300));
        embed.record(Duration::from_micros(40));
        let text = registry.render();

        for type_line in [
            "# TYPE gem_requests_shed_total counter",
            "# TYPE gem_queue_depth gauge",
            "# TYPE gem_requests_per_second gauge",
            "# TYPE gem_request_seconds summary",
        ] {
            assert!(
                text.contains(type_line),
                "missing `{type_line}` in:\n{text}"
            );
        }
        assert!(text.contains("gem_requests_shed_total 2"));
        assert!(text.contains("gem_queue_depth 5"));
        assert!(text.contains("gem_requests_per_second 1.5"));
        // Both labeled series render under one family, each with the three quantiles
        // plus count and sum.
        for series in [
            "gem_request_seconds{shape=\"fit\",quantile=\"0.5\"}",
            "gem_request_seconds{shape=\"embed\",quantile=\"0.99\"}",
            "gem_request_seconds_count{shape=\"fit\"} 1",
            "gem_request_seconds_sum{shape=\"embed\"}",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // Exactly one TYPE line for the two-series family.
        assert_eq!(
            text.matches("# TYPE gem_request_seconds summary").count(),
            1
        );
        // Every sample line's metric name traces back to a TYPE declaration (the
        // well-formedness CI asserts on the live endpoint).
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name.trim_end_matches("_count").trim_end_matches("_sum");
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "sample `{line}` has no TYPE declaration"
            );
        }
    }

    #[test]
    fn the_exposition_listener_answers_every_request_with_the_rendered_document() {
        let scrapes = Arc::new(Counter::new());
        let rendered = Arc::clone(&scrapes);
        let addr = spawn_exposition_listener(("127.0.0.1", 0), move || {
            rendered.inc();
            format!("gem_scrapes_total {}\n", rendered.get())
        })
        .unwrap();
        for (path, expected) in [("/metrics", 1), ("/anything", 2)] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let body = format!("gem_scrapes_total {expected}\n");
            assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
            assert!(
                response.contains(&format!("Content-Length: {}\r\n", body.len())),
                "{response}"
            );
            assert!(response.ends_with(&format!("\r\n\r\n{body}")), "{response}");
        }
        assert_eq!(scrapes.get(), 2);
    }
}
