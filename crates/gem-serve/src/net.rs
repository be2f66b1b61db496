//! The socket front-end: [`GemServer`] serves the handle-based protocol over TCP with a
//! **shared executor pool and out-of-order responses**.
//!
//! Every connection starts as newline-delimited `gem-proto` JSON (one
//! [`gem_proto::RequestEnvelope`] per line in, one [`gem_proto::ResponseEnvelope`] per
//! line out, lines capped at [`gem_proto::MAX_JSON_LINE_BYTES`]), so any language with
//! sockets and JSON can speak to it. A client may negotiate the **binary codec** by
//! sending the `gem_proto::binary` hello as its first line: the reader answers the
//! accept line and the connection switches to `[u32 len][u8 kind][payload]` frames —
//! f64 payloads as raw little-endian IEEE-754 bytes, `Fit`/`FitUpdate` corpora too
//! large for one frame streamed as chunked uploads (reassembled in the reader, in
//! order), and `Embed` responses streamed as row slices while the transform batches
//! complete. Servers built [`GemServer::with_json_only`] decline the hello exactly like
//! a pre-v5 build (an uncorrelated `protocol_error` line), which is what clients treat
//! as "negotiate down to JSON". The server is deliberately `std::net`-only — the
//! expensive work (EM fits, transforms) is CPU-bound, so a bounded pool of OS threads
//! *is* the right executor; an async reactor would add a dependency without adding
//! throughput.
//!
//! ## Architecture: reader → shared queue → executor pool → per-connection writer
//!
//! The PR 4 design ran one thread per connection in lockstep (read a line, execute it,
//! write the response, repeat), so one slow `Fit` stalled every queued request on that
//! connection and N clients cost N service threads. Now each connection costs two
//! *cheap* threads (a blocking reader and a blocking writer — both I/O-bound) while all
//! CPU work is multiplexed onto one bounded pool:
//!
//! * the **reader** splits the byte stream into frames and pushes them onto a shared
//!   MPMC work queue (it never decodes or executes anything);
//! * **executors** ([`GemServer::with_workers`], default [`default_workers`]) pop
//!   frames from the queue in arrival order — *across all connections* — decode,
//!   execute through [`EmbedService`], and hand the encoded response to the owning
//!   connection's writer;
//! * the **writer** serializes completed responses onto the socket *as they finish*:
//!   a cheap `Stats` or `Embed` pipelined behind a slow `Fit` overtakes it (out-of-order
//!   responses, correlated by envelope id — see the `gem-proto` docs), fits for
//!   distinct handles run concurrently on distinct executors, and duplicate in-flight
//!   fits for the *same* handle coalesce onto one EM run (the engine's single-flight,
//!   counted in `CacheStats::coalesced_fits`).
//!
//! Operational properties:
//!
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] flips a flag and nudges the
//!   acceptor awake; readers stop feeding the queue within their read-timeout tick,
//!   executors drain what was already queued, writers flush every produced response,
//!   and all of them are joined before [`GemServer::run`] returns.
//! * **Request counters** — connections accepted, requests served, protocol errors and
//!   the executor-pool high-water mark are counted on shared atomics
//!   ([`ServerCounters`]), readable while running; [`shutdown_summary`] renders them as
//!   the one-line structured record `gem-served` logs on graceful shutdown.
//! * **Typed errors end-to-end** — serving failures travel as their stable
//!   [`crate::ServeError::code`]s; malformed lines get `protocol_error` /
//!   `version_mismatch` bodies — with the request id salvaged when possible and
//!   `in_reply_to: null` when not — instead of a dropped connection.

use crate::error::ServeError;
use crate::framing::{pump_frames, write_responses, ReadStep};
use crate::handle::ModelHandle;
use crate::metrics::{RequestShape, ServerMetrics};
use crate::service::{EmbedService, ModelInfo, ServeRequest, ServeResponse, ServiceStats};
use crate::{CacheTier, ServedFrom};
use gem_numeric::Matrix;
use gem_proto::{self as proto, binary, RequestBody, ResponseBody};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often an idle reader or executor wakes to check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// The default work-queue bound: deliberately generous (deeper than any sane backlog —
/// at that depth tail latency is already seconds), so shedding only fires under a
/// genuine flood, never under a bursty-but-healthy workload.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Pause after a failed `accept` so persistent errors (e.g. fd exhaustion) degrade to
/// slow retries instead of a busy spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// The default executor-pool size: the machine's available parallelism, clamped to
/// `[2, 8]` — at least two so cheap requests can overtake a slow fit even on a
/// single-core box, and bounded so a big machine isn't saturated by default.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Monotonic counters shared by the acceptor, every reader, and every executor.
#[derive(Debug, Default)]
pub struct ServerCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    requests_shed: AtomicU64,
    protocol_errors: AtomicU64,
    busy_workers: AtomicU64,
    workers_high_water: AtomicU64,
    lock_recoveries: AtomicU64,
}

impl ServerCounters {
    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Protocol lines answered so far (including error responses).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests shed at admission because the work queue was full. Shed requests are
    /// answered (with the typed `overloaded` error) but never executed, so they are
    /// *not* part of [`ServerCounters::requests`].
    pub fn requests_shed(&self) -> u64 {
        self.requests_shed.load(Ordering::Relaxed)
    }

    /// Lines that failed to decode (answered with `protocol_error`/`version_mismatch`).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// The most executors ever busy at one instant — how close the pool came to
    /// saturation (equal to the pool size means requests queued behind busy workers).
    pub fn workers_high_water(&self) -> u64 {
        self.workers_high_water.load(Ordering::Relaxed)
    }

    /// Work-queue locks recovered after a holder panicked. Serving continued — a
    /// poisoned queue mutex must not wedge the replica — but a non-zero value means
    /// some executor died mid-request and is worth investigating.
    pub fn lock_recoveries(&self) -> u64 {
        self.lock_recoveries.load(Ordering::Relaxed)
    }

    fn note_lock_recovery(&self) {
        self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    fn enter_work(&self) {
        let busy = self.busy_workers.fetch_add(1, Ordering::Relaxed) + 1;
        self.workers_high_water.fetch_max(busy, Ordering::Relaxed);
    }

    fn leave_work(&self) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The one-line structured record `gem-served` logs on graceful shutdown, so soak runs
/// leave a debuggable trace: every field is `key=value`, greppable and stable.
pub fn shutdown_summary(counters: &ServerCounters, stats: &ServiceStats) -> String {
    format!(
        "gem-served shutdown summary: requests={} requests_shed={} connections={} \
         protocol_errors={} coalesced_fits={} workers_high_water={} lock_recoveries={} \
         cache_hits={} cache_misses={}",
        counters.requests(),
        counters.requests_shed(),
        counters.connections(),
        counters.protocol_errors(),
        stats.cache.coalesced_fits,
        counters.workers_high_water(),
        counters.lock_recoveries(),
        stats.cache.hits,
        stats.cache.misses,
    )
}

/// Which codec a connection (and therefore each of its frames) speaks. Selected once
/// per connection by the hello negotiation; never changes mid-connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Codec {
    /// Newline-delimited JSON envelopes — every connection's starting state.
    Json,
    /// Length-prefixed `gem_proto::binary` frames.
    Binary,
}

/// The undecoded request a reader queued, in whichever shape the codec delivered it.
/// Decoding stays on the executor (the reader never parses payloads) — except chunked
/// uploads, which the reader must reassemble in arrival order.
enum FramePayload {
    /// A JSON-codec line, raw bytes (UTF-8 validated by the executor).
    JsonLine(Vec<u8>),
    /// A binary-codec frame (split from the stream, payload not yet decoded).
    Binary(binary::Frame),
    /// A request the reader already assembled from a chunked upload sequence.
    Assembled(Box<proto::RequestEnvelope>),
}

impl FramePayload {
    /// Best-effort request id for correlating an error response without decoding.
    fn salvage_id(&self) -> Option<u64> {
        match self {
            FramePayload::JsonLine(line) => std::str::from_utf8(line)
                .ok()
                .and_then(proto::salvage_request_id),
            FramePayload::Binary(frame) => frame.correlation_id(),
            FramePayload::Assembled(envelope) => Some(envelope.id),
        }
    }
}

/// One frame read off a connection, awaiting an executor: the undecoded payload, the
/// connection's codec, and the sending half of the owning connection's writer channel
/// (so the response lands on the right socket no matter which executor runs it, and no
/// matter in which order it finishes).
struct Frame {
    payload: FramePayload,
    codec: Codec,
    reply: mpsc::Sender<Vec<u8>>,
    /// When the reader queued the frame — the start of the queue-wait phase.
    enqueued_at: Instant,
    /// The owning connection's in-flight depth (shared with its reader): incremented
    /// at enqueue, decremented when the frame is answered or shed — the
    /// per-connection fairness signal surfaced through `ServerMetrics`.
    depth: Arc<AtomicU64>,
}

impl Frame {
    /// Mark the frame answered (or shed): drop it from its connection's in-flight
    /// depth and surface the new depth.
    fn retire(&self, metrics: &ServerMetrics) {
        let before = self.depth.fetch_sub(1, Ordering::Relaxed);
        metrics.observe_connection_depth(before.saturating_sub(1));
    }
}

/// Encode an error (or any) response body as exact wire bytes for `codec` — JSON lines
/// include their trailing newline; binary bodies become complete frames.
fn encode_error_bytes(codec: Codec, id: Option<u64>, body: ResponseBody) -> Vec<u8> {
    let envelope = match id {
        Some(id) => proto::ResponseEnvelope::new(id, body),
        None => proto::ResponseEnvelope::uncorrelated(body),
    };
    match codec {
        Codec::Json => proto::encode_response(&envelope).into_bytes(),
        // Error bodies always fit a frame; an encode failure here would mean the
        // message itself exceeded the frame bound, in which case nothing useful can be
        // said — send nothing rather than corrupt the stream.
        Codec::Binary => {
            binary::wrap_response_line(envelope.in_reply_to, &proto::encode_response(&envelope))
                .unwrap_or_default()
        }
    }
}

/// The shared MPMC work queue between readers and executors — **bounded**: a push
/// beyond `capacity` is refused and the caller sheds the frame with a typed
/// `overloaded` response ([`WorkQueue::shed`]) instead of letting an unbounded backlog
/// stall every connection behind it. Work already admitted always completes.
struct WorkQueue {
    frames: Mutex<VecDeque<Frame>>,
    ready: Condvar,
    capacity: usize,
    /// For counting poisoned-lock recoveries where operators see them
    /// ([`ServerCounters::lock_recoveries`], rendered in the shutdown summary).
    counters: Arc<ServerCounters>,
    /// Queue-depth gauge and retry-hint source (updated under the queue lock, so the
    /// gauge never drifts from the real backlog).
    metrics: Arc<ServerMetrics>,
}

impl WorkQueue {
    fn new(counters: Arc<ServerCounters>, metrics: Arc<ServerMetrics>, capacity: usize) -> Self {
        WorkQueue {
            frames: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
            counters,
            metrics,
        }
    }

    /// Take the queue lock, recovering (and counting) if a previous holder panicked:
    /// a poisoned queue mutex must degrade to one lost request, never to every reader
    /// and executor thread aborting — that would wedge the whole replica.
    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<Frame>> {
        crate::sync::lock_or_recover_with(&self.frames, || self.counters.note_lock_recovery())
    }

    /// Admit a frame, or hand it back when the queue is at capacity (the caller sheds
    /// it — outside the lock, so response encoding never serializes the queue).
    fn push(&self, frame: Frame) -> Result<(), Frame> {
        {
            let mut frames = self.locked();
            if frames.len() >= self.capacity {
                return Err(frame);
            }
            frames.push_back(frame);
            self.metrics.depth_gauge().set(frames.len() as u64);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Answer a refused frame with the typed `overloaded` error — correlated to the
    /// request's id when one is salvageable, encoded for the connection's codec — and
    /// count the shed. The frame never reaches an executor: shedding is O(1) no matter
    /// how expensive the request was.
    fn shed(&self, frame: Frame) {
        self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
        let queue_depth = self.metrics.queue_depth();
        let error = ServeError::Overloaded {
            queue_depth,
            retry_after_ms: self.metrics.retry_hint_ms(queue_depth),
        };
        let body = error_body(&error);
        let bytes = encode_error_bytes(frame.codec, frame.payload.salvage_id(), body);
        // A send failure means the connection is already gone — nothing to shed to.
        let _ = frame.reply.send(bytes);
        frame.retire(&self.metrics);
    }

    /// Pop the next frame, blocking until one arrives. Returns `None` only when
    /// `inputs_closed` is set *and* the queue is drained. The flag must be raised only
    /// after every producer (reader) has been joined — NOT at shutdown-request time —
    /// otherwise all executors could retire in the instant the queue is empty while a
    /// reader is still finishing a read, stranding its final frame forever (its writer
    /// would never see channel closure, and `GemServer::run` would hang joining the
    /// reader). Accepted work is always answered.
    fn pop(&self, inputs_closed: &AtomicBool) -> Option<Frame> {
        let mut frames = self.locked();
        loop {
            if let Some(frame) = frames.pop_front() {
                self.metrics.depth_gauge().set(frames.len() as u64);
                return Some(frame);
            }
            if inputs_closed.load(Ordering::SeqCst) {
                return None;
            }
            frames = crate::sync::wait_timeout_or_recover(&self.ready, frames, READ_TICK, || {
                self.counters.note_lock_recovery()
            });
        }
    }
}

/// A remote control for a running [`GemServer`]: address, counters, shutdown.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    metrics: Arc<ServerMetrics>,
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live request counters.
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// The live telemetry instruments (histograms, gauges, the Prometheus render).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Render the Prometheus text exposition document for this server, without cache
    /// statistics (use [`ServerMetrics::render`] with the service's stats for those).
    pub fn render_metrics(&self) -> String {
        self.metrics.render(&self.counters, None)
    }

    /// Ask the server to stop: no new connections are accepted, queued and in-flight
    /// requests finish and their responses are flushed, idle connections close within
    /// one read-timeout tick. Safe to call more than once.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection wakes it so it can
        // observe the flag without waiting for real traffic.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A TCP server over an [`EmbedService`]. Bind, then [`GemServer::run`] (blocking) or
/// hold the [`ServerHandle`] from [`GemServer::handle`] to stop it from another thread.
#[derive(Debug)]
pub struct GemServer {
    listener: TcpListener,
    service: Arc<EmbedService>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    metrics: Arc<ServerMetrics>,
    workers: usize,
    queue_capacity: usize,
    json_only: bool,
}

impl GemServer {
    /// Bind `addr` (use port 0 for an ephemeral port; read it back with
    /// [`GemServer::local_addr`]). The executor pool defaults to [`default_workers`];
    /// override with [`GemServer::with_workers`].
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(service: Arc<EmbedService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(GemServer {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(ServerCounters::default()),
            metrics: Arc::new(ServerMetrics::new()),
            workers: default_workers(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            json_only: false,
        })
    }

    /// Decline binary-codec negotiation: the hello line is answered like any malformed
    /// request (an uncorrelated `protocol_error`), exactly as a pre-v5 build would, so
    /// negotiating clients downgrade to JSON on the same connection. For debugging and
    /// for testing the downgrade path (`gem-served --json-only`).
    pub fn with_json_only(mut self) -> Self {
        self.json_only = true;
        self
    }

    /// Whether this server declines binary-codec negotiation.
    pub fn json_only(&self) -> bool {
        self.json_only
    }

    /// Set the executor-pool size: how many requests (across all connections) execute
    /// concurrently. A size of 1 serializes execution — responses still return as they
    /// finish, but nothing overtakes.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the executor pool needs at least one worker");
        self.workers = workers;
        self
    }

    /// The executor-pool size [`GemServer::run`] will spawn.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bound the work queue: a request arriving while `capacity` frames already wait
    /// is shed with a typed `overloaded` error (and a retry-after hint) instead of
    /// joining an unbounded backlog. Default [`DEFAULT_QUEUE_CAPACITY`].
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a queue that sheds everything serves nothing).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "the work queue needs room for at least one frame"
        );
        self.queue_capacity = capacity;
        self
    }

    /// The work-queue bound [`GemServer::run`] will enforce.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The live telemetry instruments (shareable; scrape listeners clone this).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The bound address (ephemeral port resolved).
    ///
    /// # Errors
    /// Propagates the socket-introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for observing and stopping the server from other threads.
    ///
    /// # Errors
    /// Propagates the socket-introspection failure.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            counters: Arc::clone(&self.counters),
            metrics: Arc::clone(&self.metrics),
        })
    }

    /// Accept connections until [`ServerHandle::shutdown`] is called. Each connection
    /// gets a reader (and, lazily, a writer); all execution happens on the shared
    /// executor pool. Joins every reader, writer and executor before returning — when
    /// this returns, every accepted request has been answered and flushed (or its
    /// connection is gone).
    ///
    /// # Errors
    /// Propagates accept failures (transient per-connection errors are skipped).
    pub fn run(self) -> std::io::Result<()> {
        self.metrics
            .set_shape_of_pool(self.workers as u64, self.queue_capacity as u64);
        let queue = Arc::new(WorkQueue::new(
            Arc::clone(&self.counters),
            Arc::clone(&self.metrics),
            self.queue_capacity,
        ));
        // Raised only once every reader is joined (see `WorkQueue::pop`): executors
        // must outlive all producers, or a frame pushed during shutdown could be
        // stranded with no executor left to answer it.
        let inputs_closed = Arc::new(AtomicBool::new(false));
        let executors: Vec<std::thread::JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&self.service);
                let inputs_closed = Arc::clone(&inputs_closed);
                let counters = Arc::clone(&self.counters);
                let metrics = Arc::clone(&self.metrics);
                std::thread::spawn(move || {
                    executor_loop(&queue, &service, &inputs_closed, &counters, &metrics)
                })
            })
            .collect();
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(stream) => stream,
                // A failed accept (peer vanished mid-handshake, fd exhaustion, …)
                // should not take the server down — but a *persistent* error (EMFILE
                // under a connection flood) would otherwise turn this loop into a
                // 100%-CPU spin, so back off briefly before retrying.
                Err(_) => {
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                }
            };
            self.counters.connections.fetch_add(1, Ordering::Relaxed);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&self.shutdown);
            let json_only = self.json_only;
            readers.push(std::thread::spawn(move || {
                read_connection(stream, &queue, &shutdown, json_only);
            }));
            readers.retain(|r| !r.is_finished());
        }
        // Shutdown: readers stop feeding the queue within one tick (each one joins its
        // connection's writer, which exits once the executors — guaranteed to still be
        // running, because `inputs_closed` is not raised yet — have answered
        // everything that was queued for it).
        for reader in readers {
            let _ = reader.join();
        }
        // Only now can no new frame appear: let the executors drain what remains and
        // retire.
        inputs_closed.store(true, Ordering::SeqCst);
        queue.ready.notify_all();
        for executor in executors {
            let _ = executor.join();
        }
        Ok(())
    }
}

/// One executor: pop frames (from any connection, in arrival order), decode + execute +
/// encode, and hand the response line to the owning connection's writer. Responses
/// therefore complete — and are written — in *finish* order, not request order.
fn executor_loop(
    queue: &WorkQueue,
    service: &EmbedService,
    inputs_closed: &AtomicBool,
    counters: &ServerCounters,
    metrics: &ServerMetrics,
) {
    while let Some(frame) = queue.pop(inputs_closed) {
        let queue_wait = frame.enqueued_at.elapsed();
        counters.enter_work();
        metrics.busy_gauge().inc();
        counters.requests.fetch_add(1, Ordering::Relaxed);
        // `respond_frame` streams intermediate frames (embed rows) to the writer
        // itself but hands the *final* frame back, so the gauges drop before the
        // reply that completes the request leaves: a lockstep client that reacts to
        // the reply instantly must not see its previous request still counted as
        // busy or in flight. A send failure means the connection (and its writer)
        // are gone; the work is simply dropped, like any response to a vanished
        // peer.
        let final_frame = respond_frame(service, &frame, queue_wait, counters, metrics);
        metrics.busy_gauge().dec();
        frame.retire(metrics);
        counters.leave_work();
        if let Some(bytes) = final_frame {
            let _ = frame.reply.send(bytes);
        }
    }
}

/// How many query columns a streamed binary embed transforms per flushed row frame:
/// small enough that the first rows reach the client while later batches still
/// compute, large enough that framing overhead stays negligible.
const EMBED_STREAM_BATCH: usize = 32;

/// How many result rows ride one `embed_rows` frame when a fully-materialized matrix
/// (e.g. an `embed_corpus` response) is sliced for the binary codec.
const EMBED_ROWS_PER_FRAME: usize = 512;

/// Obtain the request envelope from whatever shape the reader queued, or the id to
/// correlate the decode error with.
fn decode_payload(
    payload: &FramePayload,
) -> Result<proto::RequestEnvelope, (Option<u64>, proto::ProtoError)> {
    match payload {
        FramePayload::JsonLine(line) => {
            // Invalid UTF-8 is *rejected*, not lossily replaced: replacement
            // characters inside a JSON string would parse fine and silently mutate a
            // header that participates in the corpus fingerprint. Nothing
            // correlatable survives, so the error is uncorrelated.
            let Ok(text) = std::str::from_utf8(line) else {
                return Err((
                    None,
                    proto::ProtoError::Parse {
                        message: "request line is not valid UTF-8".to_string(),
                    },
                ));
            };
            proto::decode_request(text).map_err(|e| (proto::salvage_request_id(text), e))
        }
        FramePayload::Binary(frame) => {
            binary::decode_request_frame(frame).map_err(|e| (frame.correlation_id(), e))
        }
        FramePayload::Assembled(envelope) => Ok((**envelope).clone()),
    }
}

/// Slice a fully-materialized embedding matrix into `embed_rows` frames plus the
/// closing `embed_done` — the binary rendering of an `Embedded` body.
fn matrix_frames(id: u64, served_from: &str, matrix: &Matrix) -> Vec<u8> {
    let cols = matrix.cols();
    let mut out = Vec::new();
    if cols > 0 {
        for rows in matrix
            .as_slice()
            .chunks(EMBED_ROWS_PER_FRAME.saturating_mul(cols))
        {
            match binary::embed_rows_frame(id, served_from, cols, rows) {
                Ok(frame) => out.extend_from_slice(&frame),
                Err(_) => return Vec::new(),
            }
        }
    }
    match binary::embed_done_frame(id, served_from, cols, matrix.rows()) {
        Ok(frame) => {
            out.extend_from_slice(&frame);
            out
        }
        Err(_) => Vec::new(),
    }
}

/// Encode a response body as exact wire bytes for `codec`.
fn encode_body_bytes(codec: Codec, id: u64, body: ResponseBody) -> Vec<u8> {
    match codec {
        Codec::Json => proto::encode_response(&proto::ResponseEnvelope::new(id, body)).into_bytes(),
        Codec::Binary => match &body {
            ResponseBody::Embedded {
                matrix,
                served_from,
            } => matrix_frames(id, served_from, matrix),
            _ => encode_error_bytes(Codec::Binary, Some(id), body),
        },
    }
}

/// Serve a binary-codec `Embed` as a row stream: resolve the handle once, transform the
/// query columns in batches against that model and flush each batch's rows as an
/// `embed_rows` frame the moment it completes, closing with `embed_done` — the client
/// starts receiving rows while later batches are still computing. A failure mid-stream
/// becomes the typed error frame; the client discards the partial rows it accumulated
/// for this id. Returns the closing frame (`embed_done` or the typed error) for the
/// executor to send after the accounting gauges drop; only intermediate row frames are
/// sent here.
#[allow(clippy::too_many_arguments)]
fn stream_embed(
    service: &EmbedService,
    id: u64,
    handle: ModelHandle,
    queries: Vec<gem_core::GemColumn>,
    reply: &mpsc::Sender<Vec<u8>>,
    queue_wait: Duration,
    decode: Duration,
    metrics: &ServerMetrics,
) -> Option<Vec<u8>> {
    let execute_started = Instant::now();
    let observe = |encode_time: Duration| {
        metrics.observe(
            RequestShape::Embed,
            queue_wait,
            decode,
            execute_started.elapsed().saturating_sub(encode_time),
            encode_time,
        );
    };
    let error_frame = |error: &ServeError| {
        Some(encode_error_bytes(
            Codec::Binary,
            Some(id),
            error_body(error),
        ))
    };
    // One request, one resolve: the stream's batches all transform against this model.
    let (model, served_from) = match service.resolve_embed(handle) {
        Ok(resolved) => resolved,
        Err(error) => {
            observe(Duration::ZERO);
            return error_frame(&error);
        }
    };
    let served_from = served_from.wire_name();
    let mut encode_time = Duration::ZERO;
    let mut sent_rows = 0usize;
    let mut cols = 0usize;
    // Zero queries still run one empty transform, so they answer exactly as on the
    // JSON path. Each batch's columns move out of `queries`; none of their values are
    // copied.
    let batches = queries.len().div_ceil(EMBED_STREAM_BATCH).max(1);
    let mut queries = queries.into_iter();
    for _ in 0..batches {
        let batch: Vec<gem_core::GemColumn> = queries.by_ref().take(EMBED_STREAM_BATCH).collect();
        let matrix = match model.transform(&batch) {
            Ok(embedding) => embedding.matrix,
            Err(error) => {
                // The error frame supersedes any rows already streamed: the client
                // drops its partial accumulation for this id on seeing it.
                observe(encode_time);
                return error_frame(&ServeError::Transform(error));
            }
        };
        cols = matrix.cols();
        sent_rows = sent_rows.saturating_add(matrix.rows());
        let encode_started = Instant::now();
        let frame = if cols > 0 || matrix.rows() == 0 {
            binary::embed_rows_frame(id, served_from, cols, matrix.as_slice())
        } else {
            Err(proto::ProtoError::Parse {
                message: "embed produced rows without columns".to_string(),
            })
        };
        let sent = match frame {
            Ok(bytes) => reply.send(bytes).is_ok(),
            Err(_) => false,
        };
        encode_time += encode_started.elapsed();
        if !sent {
            // The connection is gone (or the frame was unencodable); stop
            // transforming for a peer that cannot receive the rows.
            observe(encode_time);
            return None;
        }
    }
    let encode_started = Instant::now();
    let done = binary::embed_done_frame(id, served_from, cols, sent_rows).ok();
    encode_time += encode_started.elapsed();
    observe(encode_time);
    done
}

/// Decode, execute and encode one frame, recording each phase's duration under the
/// request's shape. Intermediate frames (streamed binary embed rows) go to the
/// owning connection's writer directly; the *final* frame is returned so the
/// executor can drop the accounting gauges before it leaves. Never panics on
/// foreign input: every failure becomes an error response body with a stable code
/// (malformed payloads are timed under the `protocol_error` shape), correlated when
/// an id is salvageable and `in_reply_to: null` when not — never a sentinel a real
/// id could collide with.
fn respond_frame(
    service: &EmbedService,
    frame: &Frame,
    queue_wait: Duration,
    counters: &ServerCounters,
    metrics: &ServerMetrics,
) -> Option<Vec<u8>> {
    let decode_started = Instant::now();
    let envelope = match decode_payload(&frame.payload) {
        Ok(envelope) => envelope,
        Err((id, error)) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let decode = decode_started.elapsed();
            let body = ResponseBody::Error {
                code: error.code().to_string(),
                message: error.to_string(),
                retry_after_ms: None,
            };
            let encode_started = Instant::now();
            let bytes = encode_error_bytes(frame.codec, id, body);
            metrics.observe(
                RequestShape::ProtocolError,
                queue_wait,
                decode,
                Duration::ZERO,
                encode_started.elapsed(),
            );
            return Some(bytes);
        }
    };
    let decode = decode_started.elapsed();
    let shape = RequestShape::of_body(&envelope.body);
    // Binary embeds stream: rows are flushed as transform batches complete instead of
    // materializing the whole matrix before the first byte leaves.
    if frame.codec == Codec::Binary {
        if let RequestBody::Embed { handle, queries } = envelope.body {
            return match parse_handle(&handle) {
                Ok(handle) => stream_embed(
                    service,
                    envelope.id,
                    handle,
                    queries,
                    &frame.reply,
                    queue_wait,
                    decode,
                    metrics,
                ),
                Err(error) => {
                    let encode_started = Instant::now();
                    let bytes =
                        encode_error_bytes(Codec::Binary, Some(envelope.id), error_body(&error));
                    metrics.observe(
                        shape,
                        queue_wait,
                        decode,
                        Duration::ZERO,
                        encode_started.elapsed(),
                    );
                    Some(bytes)
                }
            };
        }
    }
    let execute_started = Instant::now();
    let mut body = if matches!(envelope.body, RequestBody::Health) {
        // Health is answered from the network layer's own gauges — it must stay cheap
        // and lock-free precisely when the service is saturated.
        health_body(metrics)
    } else {
        match wire_to_request(envelope.body) {
            Ok(request) => match service.serve_one(request) {
                Ok(response) => response_to_wire(response),
                Err(error) => error_body(&error),
            },
            Err(error) => error_body(&error),
        }
    };
    // Stats responses carry the per-shape latency table, which lives here in the
    // network layer — the service beneath has no notion of wire shapes.
    if let ResponseBody::Stats(stats) = &mut body {
        stats.latencies = metrics.latency_table();
    }
    let execute = execute_started.elapsed();
    let encode_started = Instant::now();
    let bytes = encode_body_bytes(frame.codec, envelope.id, body);
    metrics.observe(shape, queue_wait, decode, execute, encode_started.elapsed());
    Some(bytes)
}

/// The replica's admission-control view of itself, derived from the live gauges:
/// `overloaded` while the queue is at capacity (new work is being shed), `degraded`
/// when the backlog passes half the bound or every executor is busy, `ok` otherwise.
fn health_body(metrics: &ServerMetrics) -> ResponseBody {
    let queue_depth = metrics.queue_depth();
    let queue_capacity = metrics.queue_capacity();
    let busy_workers = metrics.busy_workers();
    let workers = metrics.workers();
    let (state, retry_after_ms) = if queue_capacity > 0 && queue_depth >= queue_capacity {
        ("overloaded", Some(metrics.retry_hint_ms(queue_depth)))
    } else if (queue_capacity > 0 && queue_depth > queue_capacity / 2)
        || (workers > 0 && busy_workers >= workers)
    {
        ("degraded", Some(metrics.retry_hint_ms(queue_depth.max(1))))
    } else {
        ("ok", None)
    };
    ResponseBody::Health {
        state: state.to_string(),
        queue_depth,
        queue_capacity,
        busy_workers,
        workers,
        retry_after_ms,
    }
}

/// Best-effort id salvage for a line too large to parse: the protocol's own encoder
/// always emits `{"id":N,` first, so a prefix scan recovers the id from conforming
/// clients in O(digits) instead of an O(line) JSON parse — an oversized line must
/// never monopolize its reader just to be rejected. Foreign encodings that put `id`
/// elsewhere salvage as `None`, which is the documented best-effort contract.
fn salvage_oversized_id(line: &[u8]) -> Option<u64> {
    let digits: Vec<u8> = line
        .strip_prefix(b"{\"id\":")?
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Queue one frame (incrementing the connection's in-flight depth first, so the depth
/// covers shed frames too); a full queue refuses it and it is shed with the typed
/// `overloaded` error instead of blocking the reader (which would stall the connection
/// and, transitively, the client's pipeline).
fn enqueue(
    queue: &WorkQueue,
    payload: FramePayload,
    codec: Codec,
    reply: &mpsc::Sender<Vec<u8>>,
    depth: &Arc<AtomicU64>,
) {
    let now_in_flight = depth.fetch_add(1, Ordering::Relaxed) + 1;
    queue.metrics.observe_connection_depth(now_in_flight);
    let frame = Frame {
        payload,
        codec,
        reply: reply.clone(),
        enqueued_at: Instant::now(),
        depth: Arc::clone(depth),
    };
    if let Err(refused) = queue.push(frame) {
        queue.shed(refused);
    }
}

/// One connection's reader: split the byte stream into frames and queue them. Spawns
/// the connection's writer immediately and joins it before exiting, so a reader
/// finishing (EOF or shutdown) never abandons responses that are still in flight.
///
/// Every connection starts in the JSON codec. Unless the server is `json_only`, the
/// *first* line may be the `gem_proto::binary` hello: the reader answers the accept
/// line itself (no executor round-trip — the handshake must resolve before any queued
/// response could interleave with it) and hands the rest of the stream to
/// [`read_binary_frames`]. A version-mismatched hello is declined with an uncorrelated
/// `version_mismatch` line and the connection stays JSON; under `json_only` the hello
/// is not intercepted at all and fails as the malformed JSON line it is — exactly the
/// pre-v5 behaviour clients treat as "negotiate down".
fn read_connection(stream: TcpStream, queue: &WorkQueue, shutdown: &AtomicBool, json_only: bool) {
    // The read timeout is a shutdown tick, not a deadline: on timeout the partial line
    // is kept and reading resumes, so slow writers lose nothing.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Out-of-order responses are written as many small buffers; Nagle would batch them
    // behind delayed ACKs and hand the latency win right back.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer_metrics = Arc::clone(&queue.metrics);
    let writer =
        std::thread::spawn(move || write_responses(write_half, &reply_rx, &writer_metrics));
    let mut reader = BufReader::new(stream);
    // The connection's in-flight depth: shared with every frame this reader queues.
    let depth = Arc::new(AtomicU64::new(0));
    // Lines are accumulated as raw bytes, NOT via `read_line`: `read_line`'s built-in
    // UTF-8 validation (a) turns any invalid byte into an error that would drop the
    // connection without a response, and (b) *discards* bytes already consumed from the
    // stream when a read-timeout tick fires mid-multibyte character — a slow writer
    // would silently lose part of a valid request. `read_until` keeps every byte across
    // ticks; UTF-8 is validated by the executor, where a failure can be answered
    // properly.
    let mut line: Vec<u8> = Vec::new();
    let mut awaiting_first_line = !json_only;
    // Set after an oversized line was answered: the rest of that line (still in
    // flight on the socket) is discarded up to its newline, then parsing resumes.
    let mut discarding = false;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF
            Ok(n) => {
                queue.metrics.count_wire_read(n as u64);
                if discarding {
                    if line.ends_with(b"\n") {
                        discarding = false;
                    }
                    line.clear();
                    continue;
                }
                if line.len() > proto::MAX_JSON_LINE_BYTES {
                    // Answer directly (never queue a rejected line). The id is
                    // salvaged with a prefix scan, NOT `salvage_request_id`: parsing
                    // megabytes of JSON just to reject them would let an oversized
                    // line monopolize this reader.
                    queue
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let id = salvage_oversized_id(&line);
                    let body = ResponseBody::Error {
                        code: "protocol_error".to_string(),
                        message: format!(
                            "request line exceeds the {} byte JSON cap; negotiate the \
                             binary codec and use a chunked corpus upload",
                            proto::MAX_JSON_LINE_BYTES
                        ),
                        retry_after_ms: None,
                    };
                    let _ = reply_tx.send(encode_error_bytes(Codec::Json, id, body));
                    discarding = !line.ends_with(b"\n");
                    line.clear();
                    awaiting_first_line = false;
                    continue;
                }
                if awaiting_first_line {
                    awaiting_first_line = false;
                    if let Some(version) = std::str::from_utf8(&line)
                        .ok()
                        .and_then(binary::parse_hello)
                    {
                        if version == proto::PROTOCOL_VERSION {
                            let _ = reply_tx.send(binary::accept_line().into_bytes());
                            line.clear();
                            read_binary_frames(&mut reader, queue, shutdown, &reply_tx, &depth);
                            break;
                        }
                        // A hello from a different protocol generation: decline it
                        // (typed, uncorrelated) and keep speaking JSON.
                        queue
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        let body = ResponseBody::Error {
                            code: "version_mismatch".to_string(),
                            message: format!(
                                "binary hello speaks protocol version {version}, \
                                 this server speaks {}",
                                proto::PROTOCOL_VERSION
                            ),
                            retry_after_ms: None,
                        };
                        let _ = reply_tx.send(encode_error_bytes(Codec::Json, None, body));
                        line.clear();
                        continue;
                    }
                    // Not a hello: fall through and treat it as the JSON line it is.
                }
                // A line without a trailing newline means EOF-mid-line; it is answered
                // best-effort like any other, and the next read will report EOF.
                if !line.iter().all(u8::is_ascii_whitespace) {
                    enqueue(
                        queue,
                        FramePayload::JsonLine(std::mem::take(&mut line)),
                        Codec::Json,
                        &reply_tx,
                        &depth,
                    );
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue; // shutdown tick; keep any partial line (bytes, not chars)
            }
            Err(_) => break,
        }
    }
    // Drop this reader's sender; the writer exits once every frame queued for this
    // connection has been answered (each frame holds a sender clone) — executors keep
    // draining concurrently, so this join cannot deadlock.
    drop(reply_tx);
    let _ = writer.join();
}

/// The binary half of a negotiated connection: pump bytes into a
/// [`binary::FrameAssembler`], queue complete frames, and reassemble chunked corpus
/// uploads in arrival order (chunk sequencing is stateful, so it *must* happen here in
/// the reader — executors see only complete requests).
///
/// Error discipline mirrors the codec's: a payload-level violation inside valid
/// framing (a chunk out of sequence, an unknown upload id) is answered with a
/// correlated typed error and the connection — including other in-flight uploads —
/// survives; a framing-level violation (zero or oversized length prefix) means the
/// stream position is unrecoverable, so the error is sent uncorrelated and the
/// connection closes.
fn read_binary_frames(
    reader: &mut BufReader<TcpStream>,
    queue: &WorkQueue,
    shutdown: &AtomicBool,
    reply_tx: &mpsc::Sender<Vec<u8>>,
    depth: &Arc<AtomicU64>,
) {
    let mut assembler = binary::FrameAssembler::new();
    let mut chunks = binary::ChunkAssembler::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Drain every complete frame the assembler holds before reading again.
        loop {
            match assembler.next_frame() {
                Ok(Some(frame)) => {
                    if binary::ChunkAssembler::is_chunk_kind(frame.kind) {
                        match chunks.accept(&frame, |_| {}) {
                            Ok(Some(envelope)) => enqueue(
                                queue,
                                FramePayload::Assembled(Box::new(envelope)),
                                Codec::Binary,
                                reply_tx,
                                depth,
                            ),
                            Ok(None) => {}
                            Err(error) => {
                                // The violating upload's state is dropped, but the
                                // framing is intact: answer and keep serving.
                                queue
                                    .counters
                                    .protocol_errors
                                    .fetch_add(1, Ordering::Relaxed);
                                let body = ResponseBody::Error {
                                    code: error.code().to_string(),
                                    message: error.to_string(),
                                    retry_after_ms: None,
                                };
                                let _ = reply_tx.send(encode_error_bytes(
                                    Codec::Binary,
                                    frame.correlation_id(),
                                    body,
                                ));
                            }
                        }
                    } else {
                        enqueue(
                            queue,
                            FramePayload::Binary(frame),
                            Codec::Binary,
                            reply_tx,
                            depth,
                        );
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    // Framing lost: nothing after this point can be trusted.
                    queue
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let body = ResponseBody::Error {
                        code: error.code().to_string(),
                        message: error.to_string(),
                        retry_after_ms: None,
                    };
                    let _ = reply_tx.send(encode_error_bytes(Codec::Binary, None, body));
                    return;
                }
            }
        }
        match pump_frames(reader, &mut assembler, &queue.metrics) {
            ReadStep::Bytes | ReadStep::Tick => {}
            ReadStep::Eof | ReadStep::Failed => return,
        }
    }
}

fn parse_handle(text: &str) -> Result<ModelHandle, ServeError> {
    ModelHandle::parse(text).map_err(|reason| ServeError::InvalidRequest { reason })
}

/// Lower a wire request body into the service's typed request.
pub(crate) fn wire_to_request(body: RequestBody) -> Result<ServeRequest, ServeError> {
    Ok(match body {
        RequestBody::Fit {
            corpus,
            config,
            features,
            composition,
        } => ServeRequest::Fit {
            corpus: Arc::new(corpus),
            config,
            features,
            composition,
        },
        RequestBody::FitUpdate { handle, corpus } => ServeRequest::FitUpdate {
            handle: parse_handle(&handle)?,
            corpus: Arc::new(corpus),
        },
        RequestBody::Embed { handle, queries } => ServeRequest::Embed {
            handle: parse_handle(&handle)?,
            queries,
        },
        RequestBody::EmbedCorpus {
            method,
            corpus,
            queries,
            labels,
        } => ServeRequest::EmbedCorpus {
            method,
            corpus: Arc::new(corpus),
            queries,
            labels,
        },
        RequestBody::PushModel { snapshot } => {
            // The snapshot is validated exactly like a store file (magic, format
            // version, key well-formedness) before any of the model is trusted; a
            // malformed artifact is the *request's* fault.
            let (key, model) = gem_store::decode_snapshot(&snapshot, None).map_err(|e| {
                ServeError::InvalidRequest {
                    reason: format!("snapshot rejected: {e}"),
                }
            })?;
            ServeRequest::PushModel {
                handle: ModelHandle::from(key),
                model: Arc::new(model),
            }
        }
        RequestBody::PullModel { handle } => ServeRequest::PullModel {
            handle: parse_handle(&handle)?,
        },
        RequestBody::Stats => ServeRequest::Stats,
        // Health is intercepted in `respond_frame` (it is answered from the network
        // layer's gauges, which the service cannot see); reaching here means a caller
        // lowered it out of context.
        RequestBody::Health => {
            return Err(ServeError::InvalidRequest {
                reason: "health requests are answered by the serving front-end".to_string(),
            })
        }
        RequestBody::ListModels => ServeRequest::ListModels,
        RequestBody::Evict { handle } => ServeRequest::Evict {
            handle: parse_handle(&handle)?,
        },
    })
}

fn tier_wire_name(tier: CacheTier) -> &'static str {
    match tier {
        CacheTier::Memory => "memory",
        CacheTier::Disk => "disk",
    }
}

fn stats_to_wire(stats: ServiceStats) -> proto::WireStats {
    proto::WireStats {
        hits: stats.cache.hits,
        warm_starts: stats.cache.warm_starts,
        misses: stats.cache.misses,
        evictions: stats.cache.evictions,
        expirations: stats.cache.expirations,
        coalesced_fits: stats.cache.coalesced_fits,
        spills: stats.cache.spills,
        store_errors: stats.cache.store_errors,
        fit_micros: stats.cache.fit_micros,
        em_iterations: stats.cache.em_iterations,
        resident_models: stats.resident_models as u64,
        resident_bytes: stats.resident_bytes,
        store_entries: stats.store_entries,
        store_bytes: stats.store_bytes,
        requests: stats.requests,
        // Filled by `respond_frame`: latency lives in the network layer, not the
        // service.
        latencies: Vec::new(),
    }
}

fn model_info_to_wire(info: ModelInfo) -> proto::WireModelInfo {
    proto::WireModelInfo {
        handle: info.handle.to_hex(),
        tier: tier_wire_name(info.tier).to_string(),
        dim: info.dim.map(|d| d as u64),
        bytes: info.bytes,
    }
}

/// Raise a service response into its wire body.
pub(crate) fn response_to_wire(response: ServeResponse) -> ResponseBody {
    match response {
        ServeResponse::Fitted {
            handle,
            dim,
            served_from,
        } => ResponseBody::Fitted {
            handle: handle.to_hex(),
            dim: dim as u64,
            served_from: served_from.wire_name().to_string(),
        },
        ServeResponse::Embedded {
            matrix,
            served_from,
        } => ResponseBody::Embedded {
            matrix,
            served_from: served_from.wire_name().to_string(),
        },
        ServeResponse::Pushed { handle, dim } => ResponseBody::Pushed {
            handle: handle.to_hex(),
            dim: dim as u64,
        },
        ServeResponse::Snapshot {
            handle,
            snapshot,
            served_from,
        } => ResponseBody::Snapshot {
            handle: handle.to_hex(),
            snapshot,
            served_from: served_from.wire_name().to_string(),
        },
        ServeResponse::Stats(stats) => ResponseBody::Stats(stats_to_wire(stats)),
        ServeResponse::Models(models) => {
            ResponseBody::Models(models.into_iter().map(model_info_to_wire).collect())
        }
        ServeResponse::Evicted { existed } => ResponseBody::Evicted { existed },
    }
}

fn error_body(error: &ServeError) -> ResponseBody {
    ResponseBody::Error {
        code: error.code().to_string(),
        message: error.to_string(),
        retry_after_ms: match error {
            ServeError::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        },
    }
}

/// Parse a wire `served_from` back into the typed provenance (client side).
pub(crate) fn served_from_of(name: &str) -> Result<ServedFrom, crate::client::ClientError> {
    ServedFrom::from_wire_name(name).ok_or_else(|| crate::client::ClientError::Unexpected {
        detail: format!("unknown served_from `{name}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, GemClient};
    use gem_core::{FeatureSet, GemColumn, GemConfig, GemModel, MethodRegistry};
    use std::io::Write;

    fn corpus() -> Vec<GemColumn> {
        (0..5)
            .map(|c| {
                GemColumn::new(
                    (0..40)
                        .map(|i| (c * 60) as f64 + (i % 9) as f64 * 2.0)
                        .collect(),
                    format!("col_{c}"),
                )
            })
            .collect()
    }

    fn start_server() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .unwrap()
            .with_workers(4);
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    #[test]
    fn poisoned_work_queue_recovers_instead_of_wedging() {
        // Regression: a worker panicking while holding the queue mutex used to poison
        // it, so the next `push`/`pop` aborted the reader or executor that touched it —
        // one panicked worker wedged the whole replica. Now both paths recover and the
        // event is counted.
        let counters = Arc::new(ServerCounters::default());
        let metrics = Arc::new(ServerMetrics::new());
        let queue = Arc::new(WorkQueue::new(
            Arc::clone(&counters),
            Arc::clone(&metrics),
            DEFAULT_QUEUE_CAPACITY,
        ));
        {
            let queue = Arc::clone(&queue);
            let _ = std::thread::spawn(move || {
                let _guard = queue.frames.lock();
                panic!("worker dies while holding the queue lock");
            })
            .join();
        }
        assert!(queue.frames.lock().is_err(), "the mutex must be poisoned");

        let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
        let pushed = queue.push(Frame {
            payload: FramePayload::JsonLine(b"{}".to_vec()),
            codec: Codec::Json,
            reply: reply_tx,
            enqueued_at: Instant::now(),
            depth: Arc::new(AtomicU64::new(1)),
        });
        assert!(pushed.is_ok(), "an empty queue admits the frame");
        assert_eq!(metrics.queue_depth(), 1);
        let inputs_closed = AtomicBool::new(false);
        let frame = queue
            .pop(&inputs_closed)
            .expect("the pushed frame survives");
        match &frame.payload {
            FramePayload::JsonLine(line) => assert_eq!(line, b"{}"),
            _ => panic!("expected the JSON line back, got a different payload shape"),
        }
        assert_eq!(metrics.queue_depth(), 0, "the depth gauge tracks the drain");
        assert!(counters.lock_recoveries() >= 1);
        drop(reply_rx);

        // Drained + closed: pop still works on the recovered mutex and retires cleanly.
        inputs_closed.store(true, Ordering::SeqCst);
        assert!(queue.pop(&inputs_closed).is_none());
    }

    #[test]
    fn full_queues_shed_with_typed_overloaded_responses() {
        let counters = Arc::new(ServerCounters::default());
        let metrics = Arc::new(ServerMetrics::new());
        let queue = WorkQueue::new(Arc::clone(&counters), Arc::clone(&metrics), 2);
        let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
        let frame = |id: u64| Frame {
            payload: FramePayload::JsonLine(
                format!("{{\"id\":{id},\"version\":5,\"body\":{{\"type\":\"stats\"}}}}")
                    .into_bytes(),
            ),
            codec: Codec::Json,
            reply: reply_tx.clone(),
            enqueued_at: Instant::now(),
            depth: Arc::new(AtomicU64::new(1)),
        };
        assert!(queue.push(frame(1)).is_ok());
        assert!(queue.push(frame(2)).is_ok());
        assert_eq!(metrics.queue_depth(), 2);

        // The third frame is refused, shed, and answered without ever executing.
        let refused = match queue.push(frame(7)) {
            Err(frame) => frame,
            Ok(()) => panic!("a full queue must refuse the frame"),
        };
        queue.shed(refused);
        assert_eq!(counters.requests_shed(), 1);
        assert_eq!(counters.requests(), 0, "shed work is never executed");
        let bytes = reply_rx.try_recv().expect("the shed response is immediate");
        let line = std::str::from_utf8(&bytes).unwrap();
        let response = proto::decode_response(line).unwrap();
        assert_eq!(
            response.in_reply_to,
            Some(7),
            "correlated via the salvaged id"
        );
        match response.body {
            ResponseBody::Error {
                code,
                message,
                retry_after_ms,
            } => {
                assert_eq!(code, "overloaded");
                assert!(
                    retry_after_ms.is_some(),
                    "shed responses carry a retry hint"
                );
                assert!(message.contains("retry"), "{message}");
            }
            other => panic!("expected an overloaded error, got {other:?}"),
        }

        // A garbage line sheds too, with `in_reply_to: null` (nothing salvageable).
        let garbage = Frame {
            payload: FramePayload::JsonLine(b"\xff\xfe not even utf-8".to_vec()),
            codec: Codec::Json,
            reply: reply_tx.clone(),
            enqueued_at: Instant::now(),
            depth: Arc::new(AtomicU64::new(1)),
        };
        queue.shed(garbage);
        let bytes = reply_rx.try_recv().unwrap();
        let line = std::str::from_utf8(&bytes).unwrap();
        assert_eq!(proto::decode_response(line).unwrap().in_reply_to, None);
    }

    #[test]
    fn fit_embed_round_trip_is_bit_identical_over_tcp() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let cols = corpus();
        let config = GemConfig::fast();

        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(fitted.served_from, ServedFrom::ColdFit);
        let served = client.embed(fitted.handle, &cols).unwrap();
        assert!(served.served_from != ServedFrom::ColdFit);

        // The matrix that crossed the wire equals the in-process fit+transform exactly.
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(served.matrix, direct.matrix);

        // Idempotent fit: same handle, now cache-served.
        let again = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(again.handle, fitted.handle);
        assert_eq!(again.served_from, ServedFrom::MemoryCache);

        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().connections(), 1);
        assert_eq!(server.counters().requests(), 3);
        assert_eq!(server.counters().protocol_errors(), 0);
        assert!(server.counters().workers_high_water() >= 1);
    }

    #[test]
    fn fit_update_chains_resolve_end_to_end_over_tcp() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let cols = corpus();
        let config = GemConfig::fast();
        let growth_a = vec![GemColumn::new(
            (0..40).map(|i| 900.0 + (i % 7) as f64 * 4.0).collect(),
            "grown_a",
        )];
        let growth_b = vec![GemColumn::new(
            (0..40).map(|i| 1500.0 + (i % 5) as f64 * 11.0).collect(),
            "grown_b",
        )];

        // Three steps: fit, grow, grow again — each handle chains off the previous.
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let step_1 = client.fit_update(fitted.handle, &growth_a).unwrap();
        let step_2 = client.fit_update(step_1.handle, &growth_b).unwrap();
        assert_ne!(step_1.handle, fitted.handle);
        assert_ne!(step_2.handle, step_1.handle);
        assert_eq!(step_1.served_from, ServedFrom::ColdFit);
        assert_eq!(step_2.served_from, ServedFrom::ColdFit);
        assert_eq!(step_1.dim, fitted.dim);

        // The chained handle embeds the original columns bit-identically to the
        // in-process parent fit: components were frozen, never re-estimated.
        let served = client.embed(step_2.handle, &cols).unwrap();
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(served.matrix, direct.matrix);

        // Replaying the chain is pure cache: same handles, no cold work.
        let replay = client.fit_update(fitted.handle, &growth_a).unwrap();
        assert_eq!(replay.handle, step_1.handle);
        assert_eq!(replay.served_from, ServedFrom::MemoryCache);

        // The fit-cost breakdown crossed the wire: exactly one EM run was paid.
        let stats = client.stats().unwrap();
        assert!(stats.fit_micros > 0);
        assert!(stats.em_iterations > 0);

        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().protocol_errors(), 0);
    }

    #[test]
    fn unknown_handles_surface_their_stable_code_over_tcp() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        let err = client.embed(bogus, &corpus()).unwrap_err();
        match &err {
            ClientError::Server { code, message, .. } => {
                assert_eq!(code, "unknown_model");
                assert!(
                    message.contains("Fit"),
                    "message names the remedy: {message}"
                );
            }
            other => panic!("expected a server error, got {other:?}"),
        }
        assert_eq!(err.code(), Some("unknown_model"));
        // Zero queries still resolve the handle, so they surface the same code.
        let empty = client.embed(bogus, &[]).unwrap_err();
        assert_eq!(empty.code(), Some("unknown_model"));
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn stats_list_evict_and_embed_corpus_work_over_tcp() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let cols = corpus();
        let config = GemConfig::fast();

        // One-shot path (no handle): a Gem variant by registry name.
        let one_shot = client.embed_corpus("Gem (D+S)", &cols, None, None).unwrap();
        assert_eq!(one_shot.matrix.rows(), cols.len());

        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let models = client.list_models().unwrap();
        assert!(models.iter().any(|m| m.handle == fitted.handle.to_hex()));
        let stats = client.stats().unwrap();
        assert!(stats.resident_models >= 1);
        assert!(stats.requests >= 2);

        assert!(client.evict(fitted.handle).unwrap());
        assert!(
            !client.evict(fitted.handle).unwrap(),
            "second evict is a no-op"
        );
        let err = client.embed(fitted.handle, &cols).unwrap_err();
        assert_eq!(err.code(), Some("unknown_model"));

        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_lines_get_protocol_error_responses_not_disconnects() {
        let (server, join) = start_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"this is not json\n{\"id\":7,\"version\":99,\"body\":{\"type\":\"stats\"}}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // The two error responses may return in either order (shared executor pool);
        // collect both and match on correlation.
        let mut replies = Vec::new();
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            replies.push(gem_proto::decode_response(&line).unwrap());
        }
        let unsalvageable = replies
            .iter()
            .find(|r| r.in_reply_to.is_none())
            .expect("the non-JSON line has no salvageable id");
        assert!(matches!(
            &unsalvageable.body,
            ResponseBody::Error { code, .. } if code == "protocol_error"
        ));
        let salvaged = replies
            .iter()
            .find(|r| r.in_reply_to == Some(7))
            .expect("the id is salvaged from version-mismatched lines");
        assert!(matches!(
            &salvaged.body,
            ResponseBody::Error { code, .. } if code == "version_mismatch"
        ));
        // The connection survived both bad lines: a valid request still answers.
        let mut client = GemClient::connect(server.addr()).unwrap();
        assert!(client.stats().is_ok());
        assert_eq!(server.counters().protocol_errors(), 2);
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_clients_share_the_executor_pool() {
        let (server, join) = start_server();
        let addr = server.addr();
        let cols = Arc::new(corpus());
        let config = GemConfig::fast();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let cols = Arc::clone(&cols);
                let config = config.clone();
                std::thread::spawn(move || {
                    let mut client = GemClient::connect(addr).unwrap();
                    let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
                    client.embed(fitted.handle, &cols).unwrap().matrix
                })
            })
            .collect();
        let matrices: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        for m in &matrices[1..] {
            assert_eq!(m, &matrices[0], "all clients see bit-identical output");
        }
        assert_eq!(server.counters().connections(), 4);
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn nan_columns_embed_without_killing_executors() {
        // Regression: a NaN made the statistical block's sort comparator inconsistent,
        // the sort panicked, and the panic killed the executor running the embed. Two
        // such embeds took down both executors of this server, so every later request
        // went unanswered; nothing restarts a dead executor.
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .unwrap()
            .with_workers(2);
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());
        let mut client = GemClient::connect_timeout(handle.addr(), Duration::from_secs(5)).unwrap();
        let cols = corpus();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let nan_column = [GemColumn::new(
            (0..21)
                .map(|i| {
                    if i % 3 == 0 {
                        f64::NAN
                    } else {
                        (21 - i) as f64
                    }
                })
                .collect(),
            "nan_col",
        )];
        for _ in 0..2 {
            let served = client.embed(fitted.handle, &nan_column).unwrap();
            assert_eq!(served.matrix.rows(), 1);
            assert!(served.matrix.all_finite());
        }
        let healthy = client.embed(fitted.handle, &cols).unwrap();
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(healthy.matrix, direct.matrix);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn connect_negotiates_binary_and_counts_wire_bytes() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        assert_eq!(client.codec_name(), "binary");
        let cols = corpus();
        let config = GemConfig::fast();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let served = client.embed(fitted.handle, &cols).unwrap();

        // The raw-IEEE-754 path is bit-identical to the in-process fit+transform,
        // also when the rows stream back over several batches, the last one partial.
        let model = GemModel::fit(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(served.matrix, model.transform(&cols).unwrap().matrix);
        let many: Vec<GemColumn> = (0..2 * EMBED_STREAM_BATCH + 1)
            .map(|i| {
                let values = cols[i % cols.len()].values.iter().map(|v| v + i as f64);
                GemColumn::new(values.collect(), format!("q{i}"))
            })
            .collect();
        let before = client.stats().unwrap();
        let streamed = client.embed(fitted.handle, &many).unwrap();
        let after = client.stats().unwrap();
        assert_eq!(streamed.matrix, model.transform(&many).unwrap().matrix);
        // A streamed embed is one request and one handle resolve however many batches
        // its rows travel in; the `after` stats call counts itself.
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.requests, before.requests + 2);

        // The wire-bytes telemetry saw both directions, and the fairness gauge saw
        // this connection's in-flight frames.
        assert!(server.metrics().wire_bytes_read() > 0);
        assert!(server.metrics().wire_bytes_written() > 0);
        assert!(server.metrics().connection_inflight_peak() >= 1);
        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().protocol_errors(), 0);
    }

    #[test]
    fn json_only_servers_downgrade_negotiating_clients_on_the_same_connection() {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .unwrap()
            .with_workers(2)
            .with_json_only();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());

        // The hello is answered like any malformed JSON line; the client consumes the
        // decline and keeps working — same connection, JSON codec.
        let mut client = GemClient::connect(handle.addr()).unwrap();
        assert_eq!(client.codec_name(), "json");
        let cols = corpus();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let served = client.embed(fitted.handle, &cols).unwrap();
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(served.matrix, direct.matrix);
        assert_eq!(
            handle.counters().connections(),
            1,
            "the downgrade must not reconnect"
        );
        // The declined hello is the connection's one protocol error.
        assert_eq!(handle.counters().protocol_errors(), 1);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn chunked_fit_handles_match_one_shot_fits_and_in_process_keys() {
        let (server, join) = start_server();
        let cols = corpus();
        let config = GemConfig::fast();

        // A 1 KiB chunk budget (the clamp floor) forces this corpus through the
        // begin/chunk/end upload path.
        assert!(gem_proto::binary::corpus_wire_bytes(&cols) > 1024);
        let mut chunked = GemClient::connect(server.addr())
            .unwrap()
            .with_chunk_bytes(1);
        assert_eq!(chunked.codec_name(), "binary");
        let via_chunks = chunked.fit(&cols, &config, FeatureSet::ds()).unwrap();

        // One-shot over the same wire, and the in-process key derivation, agree.
        let mut one_shot = GemClient::connect(server.addr()).unwrap();
        let direct = one_shot.fit(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(via_chunks.handle, direct.handle);
        assert_eq!(
            via_chunks.handle,
            ModelHandle::from(crate::model_key(&cols, &config, FeatureSet::ds())),
            "the chunked upload fingerprints to the same ModelKey as in-process"
        );
        assert_eq!(direct.served_from, ServedFrom::MemoryCache);

        // The chunked handle serves embeds bit-identically.
        let served = chunked.embed(via_chunks.handle, &cols).unwrap();
        let in_process = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(served.matrix, in_process.matrix);
        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().protocol_errors(), 0);
    }

    #[test]
    fn chunk_sequence_violations_answer_typed_errors_and_spare_the_connection() {
        let (server, join) = start_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(binary::hello_line().as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut accept = String::new();
        reader.read_line(&mut accept).unwrap();
        assert_eq!(binary::parse_accept(&accept), Some(5));

        // A corpus_chunk with no begin_fit before it: a payload-level violation inside
        // valid framing. Payload = correlation header only (has_id=1, id=9) plus a
        // column count of zero.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        let frame = binary::frame_bytes(binary::KIND_CORPUS_CHUNK, &payload).unwrap();
        stream.write_all(&frame).unwrap();

        let mut assembler = binary::FrameAssembler::new();
        let mut partials = binary::EmbedPartials::new();
        let envelope = loop {
            let mut buf = [0u8; 4096];
            let n = std::io::Read::read(&mut reader, &mut buf).unwrap();
            assert!(n > 0, "server must answer, not hang up");
            assembler.push(&buf[..n]);
            if let Some(frame) = assembler.next_frame().unwrap() {
                if let Some(envelope) =
                    binary::decode_response_frame(&frame, &mut partials).unwrap()
                {
                    break envelope;
                }
            }
        };
        assert_eq!(
            envelope.in_reply_to,
            Some(9),
            "correlated via the chunk's id"
        );
        assert!(matches!(
            &envelope.body,
            ResponseBody::Error { code, .. } if code == "protocol_error"
        ));

        // Framing stayed intact: the same connection still serves real requests.
        drop(stream);
        let mut client = GemClient::connect(server.addr()).unwrap();
        assert!(client.stats().is_ok());
        assert!(server.counters().protocol_errors() >= 1);
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_length_prefixes_close_the_connection_with_a_typed_error() {
        let (server, join) = start_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(binary::hello_line().as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut accept = String::new();
        reader.read_line(&mut accept).unwrap();
        assert_eq!(binary::parse_accept(&accept), Some(5));

        // A length prefix beyond MAX_FRAME_LEN: framing is unrecoverable.
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&(u32::MAX).to_le_bytes());
        bogus.push(binary::KIND_EMBED);
        stream.write_all(&bogus).unwrap();

        let mut assembler = binary::FrameAssembler::new();
        let mut partials = binary::EmbedPartials::new();
        let mut closed = false;
        let mut saw_error = false;
        while !saw_error {
            let mut buf = [0u8; 4096];
            let n = std::io::Read::read(&mut reader, &mut buf).unwrap_or(0);
            if n == 0 {
                closed = true;
                break;
            }
            assembler.push(&buf[..n]);
            while let Ok(Some(frame)) = assembler.next_frame() {
                if let Ok(Some(envelope)) = binary::decode_response_frame(&frame, &mut partials) {
                    assert_eq!(envelope.in_reply_to, None, "nothing is salvageable");
                    assert!(matches!(
                        &envelope.body,
                        ResponseBody::Error { code, .. } if code == "protocol_error"
                    ));
                    saw_error = true;
                }
            }
        }
        assert!(
            saw_error,
            "the framing error must be answered before closing"
        );
        // The server closes its half after the uncorrelated error; the next read
        // reports EOF.
        if !closed {
            let mut buf = [0u8; 64];
            assert_eq!(std::io::Read::read(&mut reader, &mut buf).unwrap_or(0), 0);
        }
        assert!(server.counters().protocol_errors() >= 1);
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_json_lines_answer_a_typed_cap_error_and_keep_the_connection() {
        let (server, join) = start_server();
        let mut client = GemClient::connect_json(server.addr()).unwrap();
        assert_eq!(client.codec_name(), "json");

        // A raw oversized line on a second connection (the client API cannot produce
        // one without a real giant corpus, which would make the test slow).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut line = String::from("{\"id\":42,\"version\":5,\"padding\":\"");
        line.push_str(&"x".repeat(proto::MAX_JSON_LINE_BYTES));
        line.push_str("\"}\n");
        stream.write_all(line.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let envelope = proto::decode_response(&response).unwrap();
        assert_eq!(envelope.in_reply_to, Some(42), "the id is salvaged");
        match &envelope.body {
            ResponseBody::Error { code, message, .. } => {
                assert_eq!(code, "protocol_error");
                assert!(
                    message.contains("chunked"),
                    "points at the remedy: {message}"
                );
            }
            other => panic!("expected the cap error, got {other:?}"),
        }
        // The connection survives: a well-formed request on the same socket answers.
        stream
            .write_all(b"{\"id\":43,\"version\":5,\"body\":{\"type\":\"stats\"}}\n")
            .unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert_eq!(
            proto::decode_response(&response).unwrap().in_reply_to,
            Some(43)
        );
        assert!(client.stats().is_ok());
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn push_and_pull_ship_models_without_the_corpus() {
        let (origin, origin_join) = start_server();
        let (replica, replica_join) = start_server();
        let cols = corpus();
        let config = GemConfig::fast();

        // Fit on the origin, pull its snapshot.
        let mut origin_client = GemClient::connect(origin.addr()).unwrap();
        let fitted = origin_client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let pulled = origin_client.pull_model(fitted.handle).unwrap();
        assert_eq!(pulled.handle, fitted.handle);

        // Push to a fresh replica that has never seen the corpus; the handle resolves
        // and embeds bit-identically to the origin.
        let mut replica_client = GemClient::connect(replica.addr()).unwrap();
        let pushed = replica_client.push_model(&pulled.snapshot).unwrap();
        assert_eq!(pushed.handle, fitted.handle);
        assert_eq!(pushed.dim, fitted.dim);
        let from_replica = replica_client.embed(fitted.handle, &cols).unwrap();
        let from_origin = origin_client.embed(fitted.handle, &cols).unwrap();
        assert_eq!(from_replica.matrix, from_origin.matrix);

        // Pulling an unknown handle is the typed unknown_model, and a garbage snapshot
        // is a typed invalid_request — never a crash or a silent accept.
        let bogus = ModelHandle::from_hex("00000000000000aa-00000000000000bb").unwrap();
        assert_eq!(
            replica_client.pull_model(bogus).unwrap_err().code(),
            Some("unknown_model")
        );
        let garbage = gem_json::object(vec![("magic", gem_json::string("nope"))]);
        assert_eq!(
            replica_client.push_model(&garbage).unwrap_err().code(),
            Some("invalid_request")
        );

        origin.shutdown();
        replica.shutdown();
        origin_join.join().unwrap().unwrap();
        replica_join.join().unwrap().unwrap();
    }
}
