//! The socket front-end: [`GemServer`] serves the handle-based protocol over TCP with a
//! **shared executor pool and out-of-order responses**.
//!
//! Every connection opens with the `gem_proto::binary` hello line; the reader answers
//! the accept line and everything after it is `[u32 len][u8 kind][payload]` frames —
//! f64 payloads as raw little-endian IEEE-754 bytes, `Fit`/`FitUpdate` corpora too
//! large for one frame streamed as chunked uploads (reassembled in the reader, in
//! order), and `Embed` responses streamed one reply frame per transform batch: a batch
//! is as many query columns as one `embed_rows` frame carries (512 at the usual widths,
//! [`binary::embed_rows_per_frame`]), so a request of up to 512 columns is one
//! transform, one fan-out across threads and one write. A first line that is not a
//! hello at this protocol version is answered with one typed error line, and the
//! connection closes. A `Fit` or pushed model whose header embeddings are wider than
//! 16,384 (`MAX_TEXT_DIM`) is refused with `invalid_request`, so every batch's rows fit
//! one frame. The server is deliberately
//! `std::net`-only — the expensive work (EM fits, transforms) is CPU-bound, so a
//! bounded pool of OS threads *is* the right executor; an async reactor would add a
//! dependency without adding throughput.
//!
//! ## Architecture: reader → shared queue → executor pool, replies written in place
//!
//! Each connection costs one *cheap* thread — a blocking reader, I/O-bound — while all
//! CPU work is multiplexed onto one bounded pool:
//!
//! * the **reader** — the request reader of the [`Listener`] that `gem-routed` runs
//!   too — answers the hello, reads every frame after it through the connection's
//!   [`FrameReader`](crate::framing::FrameReader), reassembles chunked uploads and
//!   pushes each request onto a shared MPMC work queue (it never decodes or executes
//!   anything);
//! * **executors** ([`GemServer::with_workers`], default [`default_workers`]) pop
//!   frames from the queue in arrival order — *across all connections* — decode,
//!   execute through [`EmbedService`], encode, and write the reply to the owning
//!   connection's socket themselves, through its shared [`ReplyWriter`]. Replies
//!   therefore leave *as they finish*: a cheap `Stats` or `Embed` pipelined behind a
//!   slow `Fit` overtakes it (out-of-order responses, correlated by envelope id — see
//!   the `gem-proto` docs), fits for distinct handles run concurrently on distinct
//!   executors, and duplicate in-flight fits for the *same* handle coalesce onto one
//!   EM run (the model cache's single-flight, counted in `CacheStats::coalesced_fits`).
//!
//! Nothing queues finished replies, so a peer that stops reading holds no reply memory:
//! a reply that spends [`REPLY_WRITE_TIMEOUT`](crate::framing::REPLY_WRITE_TIMEOUT)
//! writing — waiting for its turn at the socket plus blocked on it, over all of its
//! writes — marks the connection dead and shuts it down, and the executors drop its
//! queued frames untransformed. A peer that stops reading, or drains a trickle, holds
//! each executor for at most that long.
//!
//! Operational properties:
//!
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] flips a flag and nudges the
//!   acceptor awake; readers stop feeding the queue within their read-timeout tick,
//!   executors answer what was already queued, and all of them are joined before
//!   [`GemServer::run`] returns.
//! * **Panic containment** — a request that panics is caught on its executor, answered
//!   with the typed `internal` error (or, if part of its reply already left, its
//!   connection is closed), counted in [`ServerCounters::panics`], and the executor
//!   serves on.
//! * **Request counters** — connections accepted, requests served and protocol errors
//!   are counted on shared atomics ([`ServerCounters`]) and the executor-pool
//!   high-water mark on the busy gauge ([`ServerMetrics::busy_workers_high_water`]),
//!   all readable while running; [`shutdown_summary`] renders them as the one-line
//!   structured record `gem-served` logs on graceful shutdown.
//! * **Typed errors end-to-end** — serving failures travel as their stable
//!   [`crate::ServeError::code`]s; malformed frames get `protocol_error` /
//!   `version_mismatch` bodies — correlated by the frame's header id when it carries
//!   one and `in_reply_to: null` when not — instead of a dropped connection.

use crate::error::ServeError;
use crate::framing::{
    encode_reply, protocol_error_body, unframeable_reply, FramePayload, Handler, Listener,
    ReplyWriter, StopHandle, WriteBudget, READ_TICK,
};
use crate::handle::ModelHandle;
use crate::metrics::{RequestShape, ServerMetrics};
use crate::service::{EmbedService, ModelInfo, ServeRequest, ServeResponse, ServiceStats};
use crate::{CacheTier, ServedFrom};
use gem_proto::{self as proto, binary, RequestBody, ResponseBody};
use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The default work-queue bound: deliberately generous (deeper than any sane backlog —
/// at that depth tail latency is already seconds), so shedding only fires under a
/// genuine flood, never under a bursty-but-healthy workload.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

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
    lock_recoveries: AtomicU64,
    panics: AtomicU64,
}

impl ServerCounters {
    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Request frames answered so far (including error responses).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests shed at admission because the work queue was full. Shed requests are
    /// answered (with the typed `overloaded` error) but never executed, so they are
    /// *not* part of [`ServerCounters::requests`].
    pub fn requests_shed(&self) -> u64 {
        self.requests_shed.load(Ordering::Relaxed)
    }

    /// Refused handshakes and frames that failed to decode (answered with
    /// `protocol_error`/`version_mismatch`).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
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

    /// Requests whose handling panicked. Each was caught on its executor, which kept
    /// serving; a non-zero value is a bug worth a report.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

/// The one-line structured record `gem-served` logs on graceful shutdown, so soak runs
/// leave a debuggable trace: every field is `key=value`, greppable and stable.
pub fn shutdown_summary(
    counters: &ServerCounters,
    metrics: &ServerMetrics,
    stats: &ServiceStats,
) -> String {
    format!(
        "gem-served shutdown summary: requests={} requests_shed={} connections={} \
         protocol_errors={} coalesced_fits={} workers_high_water={} lock_recoveries={} \
         panics={} cache_hits={} cache_misses={}",
        counters.requests(),
        counters.requests_shed(),
        counters.connections(),
        counters.protocol_errors(),
        stats.cache.coalesced_fits,
        metrics.busy_workers_high_water(),
        counters.lock_recoveries(),
        counters.panics(),
        stats.cache.hits,
        stats.cache.misses,
    )
}

/// What every thread answering one connection shares: the socket's write half and the
/// connection's in-flight depth.
struct Connection {
    writer: ReplyWriter,
    /// Incremented at enqueue, decremented when the frame is answered, shed or dropped
    /// — the per-connection fairness signal surfaced through `ServerMetrics`.
    depth: AtomicU64,
}

impl Connection {
    /// Mark a frame answered (or shed, or dropped): take it off the in-flight depth and
    /// surface the new depth.
    fn retire(&self, metrics: &ServerMetrics) {
        let before = self.depth.fetch_sub(1, Ordering::Relaxed);
        metrics.observe_connection_depth(before.saturating_sub(1));
    }
}

/// One request read off a connection, awaiting an executor: the undecoded payload
/// (decoding stays on the executor, except a chunked upload's reassembly) and the owning
/// connection, so the reply lands on the right socket no matter which executor runs it,
/// and no matter in which order it finishes.
struct Frame {
    payload: FramePayload,
    connection: Arc<Connection>,
    /// When the reader queued the frame — the start of the queue-wait phase.
    enqueued_at: Instant,
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
    /// request's id when the frame carries one — and count the shed. The frame never
    /// reaches an executor: shedding is O(1) no matter how expensive the request was.
    fn shed(&self, frame: Frame) {
        self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
        let queue_depth = self.metrics.queue_depth();
        let error = ServeError::Overloaded {
            queue_depth,
            retry_after_ms: self.metrics.retry_hint_ms(queue_depth),
        };
        let bytes = encode_reply(frame.payload.correlation_id(), error_body(&error));
        // A failed write means the connection is already gone — nothing to shed to.
        frame
            .connection
            .writer
            .write(&bytes, &mut WriteBudget::default());
        frame.connection.retire(&self.metrics);
    }

    /// Pop the next frame, blocking until one arrives. Returns `None` only when
    /// `inputs_closed` is set *and* the queue is drained. The flag must be raised only
    /// after every producer (reader) has been joined — NOT at shutdown-request time —
    /// otherwise all executors could retire in the instant the queue is empty while a
    /// reader is still finishing a read, stranding its final frame unanswered. Accepted
    /// work is always answered (or dropped with its dead connection).
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

/// `gem-served`'s part in its [`Listener`]: every request a connection reads joins the
/// work queue.
impl Handler for WorkQueue {
    type Connection = Arc<Connection>;

    fn metrics(&self) -> Option<&Arc<ServerMetrics>> {
        Some(&self.metrics)
    }

    fn accepted(&self) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
    }

    fn refused(&self) {
        self.counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    fn open(&self, writer: ReplyWriter) -> Arc<Connection> {
        Arc::new(Connection {
            writer,
            depth: AtomicU64::new(0),
        })
    }

    fn writer(connection: &Arc<Connection>) -> &ReplyWriter {
        &connection.writer
    }

    /// Queue one request (incrementing the connection's in-flight depth first, so the
    /// depth covers shed frames too); a full queue refuses it and it is shed with the
    /// typed `overloaded` error instead of blocking the reader (which would stall the
    /// connection and, transitively, the client's pipeline).
    fn request(&self, connection: &mut Arc<Connection>, payload: FramePayload) {
        let now_in_flight = connection.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.observe_connection_depth(now_in_flight);
        let frame = Frame {
            payload,
            connection: Arc::clone(connection),
            enqueued_at: Instant::now(),
        };
        if let Err(refused) = self.push(frame) {
            self.shed(refused);
        }
    }
}

/// A remote control for a running [`GemServer`]: address, counters, shutdown.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: StopHandle,
    counters: Arc<ServerCounters>,
    metrics: Arc<ServerMetrics>,
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr()
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
    /// requests finish and their responses are written, idle connections close within
    /// one read-timeout tick. Safe to call more than once.
    pub fn shutdown(&self) {
        self.stop.shutdown();
    }
}

/// A TCP server over an [`EmbedService`]. Bind, then [`GemServer::run`] (blocking) or
/// hold the [`ServerHandle`] from [`GemServer::handle`] to stop it from another thread.
#[derive(Debug)]
pub struct GemServer {
    listener: Listener,
    service: Arc<EmbedService>,
    counters: Arc<ServerCounters>,
    metrics: Arc<ServerMetrics>,
    workers: usize,
    queue_capacity: usize,
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
            listener: Listener::bind(addr)?,
            service,
            counters: Arc::new(ServerCounters::default()),
            metrics: Arc::new(ServerMetrics::new()),
            workers: default_workers(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        })
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
    /// None today: the address is read back at bind time.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.listener.local_addr())
    }

    /// A handle for observing and stopping the server from other threads.
    ///
    /// # Errors
    /// None today: the address is read back at bind time.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            stop: self.listener.stop_handle(),
            counters: Arc::clone(&self.counters),
            metrics: Arc::clone(&self.metrics),
        })
    }

    /// Accept connections until [`ServerHandle::shutdown`] is called. Each connection
    /// gets a reader; all execution, and the writing of every reply, happens on the
    /// shared executor pool. Joins every reader and executor before returning — when
    /// this returns, every accepted request has been answered (or its connection is
    /// gone).
    ///
    /// # Errors
    /// None today: a failed accept is retried, and a connection that cannot get a
    /// thread is dropped.
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
                    executor_loop(
                        &queue,
                        &inputs_closed,
                        &counters,
                        &metrics,
                        |payload, reply, queue_wait| {
                            respond_frame(&service, payload, reply, queue_wait, &counters, &metrics)
                        },
                    )
                })
            })
            .collect();
        // Returns at shutdown, once every reader is joined: readers stop feeding the
        // queue within one tick, and the executors keep answering meanwhile, because
        // `inputs_closed` is not raised yet.
        self.listener.run(Arc::clone(&queue));
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

/// One executor: pop frames (from any connection, in arrival order), hand each to
/// `respond` and write its final frame to the owning connection. Replies therefore
/// complete — and are written — in *finish* order, not request order. A frame whose
/// connection died while it waited is dropped untransformed.
///
/// `respond` (in the server, [`respond_frame`]) writes a streamed reply's
/// intermediate frames itself through the [`Reply`] it is given, but hands the
/// *final* bytes back, so the gauges drop before the bytes that complete the request
/// leave: a lockstep client that reacts to the reply instantly must not see its
/// previous request still counted as busy or in flight. The final write draws on the
/// same [`WriteBudget`] as the intermediate ones, so the whole reply spends at most
/// [`REPLY_WRITE_TIMEOUT`](crate::framing::REPLY_WRITE_TIMEOUT) writing.
///
/// A panic inside `respond` is caught here: the frame is answered with the typed
/// `internal` error if none of its reply has left yet, and otherwise its connection
/// is killed (a torn reply cannot be finished). The executor serves on.
fn executor_loop(
    queue: &WorkQueue,
    inputs_closed: &AtomicBool,
    counters: &ServerCounters,
    metrics: &ServerMetrics,
    respond: impl Fn(FramePayload, &mut Reply<'_>, Duration) -> Option<Vec<u8>>,
) {
    while let Some(Frame {
        payload,
        connection,
        enqueued_at,
    }) = queue.pop(inputs_closed)
    {
        if connection.writer.is_dead() {
            connection.retire(metrics);
            continue;
        }
        let queue_wait = enqueued_at.elapsed();
        let id = payload.correlation_id();
        metrics.busy_gauge().inc();
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let mut reply = Reply {
            connection: &connection,
            started: false,
            budget: WriteBudget::default(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            respond(payload, &mut reply, queue_wait)
        }));
        let started = reply.started;
        metrics.busy_gauge().dec();
        connection.retire(metrics);
        match outcome {
            Ok(Some(bytes)) => {
                connection.writer.write(&bytes, &mut reply.budget);
            }
            Ok(None) => {}
            Err(_) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                if started {
                    connection.writer.kill();
                } else {
                    let bytes = encode_reply(id, error_body(&ServeError::Internal));
                    connection.writer.write(&bytes, &mut reply.budget);
                }
            }
        }
    }
}

/// One reply in progress: where it goes, whether any byte of it was handed to the
/// socket (which decides how a panic is answered), and its [`WriteBudget`], which every
/// write of the reply draws on — a streamed embed's intermediate row frames here, then
/// its final bytes in [`executor_loop`].
struct Reply<'a> {
    connection: &'a Connection,
    started: bool,
    budget: WriteBudget,
}

impl Reply<'_> {
    /// Write intermediate frames of this reply now; `false` when the connection is
    /// dead (stop producing the reply).
    fn stream(&mut self, bytes: &[u8]) -> bool {
        self.started = true;
        self.connection.writer.write(bytes, &mut self.budget)
    }
}

/// Obtain the request envelope from whatever shape the reader queued, or the id to
/// correlate the decode error with. An assembled upload moves out, never cloned.
fn decode_payload(
    payload: FramePayload,
) -> Result<proto::RequestEnvelope, (Option<u64>, proto::ProtoError)> {
    match payload {
        FramePayload::Binary(frame) => {
            binary::decode_request_frame(&frame).map_err(|e| (frame.correlation_id(), e))
        }
        FramePayload::Assembled(envelope) => Ok(*envelope),
    }
}

/// Serve an `Embed` as a row stream: resolve the handle once, then transform the query
/// columns one reply frame at a time — [`binary::embed_rows_per_frame`] columns at the
/// model's width, so each batch is one transform (one fan-out) and one `embed_rows`
/// frame, written the moment the next batch proves it is not the last. A request that
/// fits one frame — up to 512 columns, fewer only for a model over 16,383 values wide —
/// is one transform and one write. A failure mid-stream becomes the typed error frame; the
/// client discards the partial rows it accumulated for this id. Rows that cannot be
/// framed are answered with the codec's typed `protocol_error`, never with silence.
/// Returns the last batch's rows followed by `embed_done` (or the typed error) for the
/// executor to write in one call after the accounting gauges drop; only the earlier
/// batches' row frames are written here. Time spent writing them counts as neither
/// encode nor execute time, like the final write.
#[allow(clippy::too_many_arguments)]
fn stream_embed(
    service: &EmbedService,
    id: u64,
    handle: ModelHandle,
    queries: Vec<gem_core::GemColumn>,
    reply: &mut Reply<'_>,
    queue_wait: Duration,
    decode: Duration,
    metrics: &ServerMetrics,
) -> Option<Vec<u8>> {
    let execute_started = Instant::now();
    let observe = |encode_time: Duration, write_time: Duration| {
        metrics.observe(
            RequestShape::Embed,
            queue_wait,
            decode,
            execute_started
                .elapsed()
                .saturating_sub(encode_time)
                .saturating_sub(write_time),
            encode_time,
        );
    };
    let error_frame = |body: ResponseBody| Some(encode_reply(Some(id), body));
    // One request, one resolve: the stream's batches all transform against this model.
    let (model, served_from) = match service.resolve_embed(handle) {
        Ok(resolved) => resolved,
        Err(error) => {
            observe(Duration::ZERO, Duration::ZERO);
            return error_frame(error_body(&error));
        }
    };
    let batch_len = match binary::embed_rows_per_frame(model.dim()) {
        Ok(rows) => rows,
        Err(error) => {
            observe(Duration::ZERO, Duration::ZERO);
            return error_frame(unframeable_reply(&error));
        }
    };
    let served_from = served_from.wire_name();
    let mut encode_time = Duration::ZERO;
    let mut write_time = Duration::ZERO;
    let mut sent_rows = 0usize;
    let mut cols = 0usize;
    // The newest batch's row frame, held back until the next batch proves it is not
    // the last.
    let mut held = Vec::new();
    // Zero queries still run one empty transform, so they get the same `NoColumns`
    // transform error an in-process transform returns. Each batch's columns move out of
    // `queries`; none of their values are copied.
    let batches = queries.len().div_ceil(batch_len).max(1);
    let mut queries = queries.into_iter();
    for _ in 0..batches {
        let batch: Vec<gem_core::GemColumn> = queries.by_ref().take(batch_len).collect();
        let matrix = match model.transform(&batch) {
            Ok(embedding) => embedding.matrix,
            Err(error) => {
                // The error frame supersedes any rows already streamed: the client
                // drops its partial accumulation for this id on seeing it.
                observe(encode_time, write_time);
                return error_frame(error_body(&ServeError::Transform(error)));
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
        encode_time += encode_started.elapsed();
        let earlier = match frame {
            Ok(bytes) => std::mem::replace(&mut held, bytes),
            Err(error) => {
                observe(encode_time, write_time);
                return error_frame(unframeable_reply(&error));
            }
        };
        let write_started = Instant::now();
        let sent = earlier.is_empty() || reply.stream(&earlier);
        write_time += write_started.elapsed();
        if !sent {
            // The connection is gone; stop transforming for a peer that cannot
            // receive the rows.
            observe(encode_time, write_time);
            return None;
        }
    }
    let encode_started = Instant::now();
    let last = match binary::embed_done_frame(id, served_from, cols, sent_rows) {
        Ok(done) => {
            held.extend_from_slice(&done);
            held
        }
        Err(error) => encode_reply(Some(id), unframeable_reply(&error)),
    };
    encode_time += encode_started.elapsed();
    observe(encode_time, write_time);
    Some(last)
}

/// Decode, execute and encode one frame, recording each phase's duration under the
/// request's shape. Intermediate frames (streamed embed rows) are written through
/// `reply` directly; the *final* bytes are returned so the executor can drop the
/// accounting gauges before they leave. Never panics on foreign input: every
/// failure becomes an error response body with a stable code (malformed payloads are
/// timed under the `protocol_error` shape), correlated by the frame's header id when
/// it carries one and `in_reply_to: null` when not — never a sentinel a real id could
/// collide with.
fn respond_frame(
    service: &EmbedService,
    payload: FramePayload,
    reply: &mut Reply<'_>,
    queue_wait: Duration,
    counters: &ServerCounters,
    metrics: &ServerMetrics,
) -> Option<Vec<u8>> {
    let decode_started = Instant::now();
    let envelope = match decode_payload(payload) {
        Ok(envelope) => envelope,
        Err((id, error)) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let decode = decode_started.elapsed();
            let encode_started = Instant::now();
            let bytes = encode_reply(id, protocol_error_body(&error));
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
    // Embeds stream: a request wider than one reply frame is transformed and written
    // one frame's batch at a time instead of materializing the whole matrix first.
    if let RequestBody::Embed { handle, queries } = envelope.body {
        return match parse_handle(&handle) {
            Ok(handle) => stream_embed(
                service,
                envelope.id,
                handle,
                queries,
                reply,
                queue_wait,
                decode,
                metrics,
            ),
            Err(error) => {
                let encode_started = Instant::now();
                let bytes = encode_reply(Some(envelope.id), error_body(&error));
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
    let bytes = encode_reply(Some(envelope.id), body);
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

fn parse_handle(text: &str) -> Result<ModelHandle, ServeError> {
    ModelHandle::parse(text).map_err(|reason| ServeError::InvalidRequest { reason })
}

/// The widest header embedding (`text_dim`) a replica accepts for a model with
/// contextual features: at this width a full batch's header block, 512 rows of 8-byte
/// values, fills one `MAX_FRAME_LEN` frame (16,384). A wider model could not stream one
/// frame per batch, and its embeds would allocate header blocks without a bound.
pub(crate) const MAX_TEXT_DIM: usize =
    binary::MAX_FRAME_LEN as usize / (8 * binary::EMBED_ROWS_PER_FRAME);

/// Refuse a model whose header block the replica could not stream.
fn check_text_dim(features: gem_core::FeatureSet, text_dim: usize) -> Result<(), ServeError> {
    if features.contextual && text_dim > MAX_TEXT_DIM {
        return Err(ServeError::InvalidRequest {
            reason: format!(
                "text_dim {text_dim} exceeds {MAX_TEXT_DIM}, the widest header embedding \
                 whose {}-row block fits one frame",
                binary::EMBED_ROWS_PER_FRAME
            ),
        });
    }
    Ok(())
}

/// Lower a wire request body into the service's typed request.
pub(crate) fn wire_to_request(body: RequestBody) -> Result<ServeRequest, ServeError> {
    Ok(match body {
        RequestBody::Fit {
            corpus,
            config,
            features,
            composition,
        } => {
            check_text_dim(features, config.text_dim)?;
            ServeRequest::Fit {
                corpus: Arc::new(corpus),
                config,
                features,
                composition,
            }
        }
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
            check_text_dim(model.features(), model.config().text_dim)?;
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
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};

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

    /// `count` query columns: the corpus's columns in turn, each shifted by its index.
    fn queries_from(cols: &[GemColumn], count: usize) -> Vec<GemColumn> {
        (0..count)
            .map(|i| {
                let values = cols[i % cols.len()].values.iter().map(|v| v + i as f64);
                GemColumn::new(values.collect(), format!("q{i}"))
            })
            .collect()
    }

    fn start_server() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        start_server_with(4)
    }

    fn start_server_with(
        workers: usize,
    ) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .unwrap()
            .with_workers(workers);
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    /// A connection whose replies go to one end of a loopback socket pair, and a
    /// reader on the other end. Its depth starts at one, as if a frame were queued.
    fn loopback_connection() -> (Arc<Connection>, BufReader<TcpStream>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let connection = Arc::new(Connection {
            writer: ReplyWriter::new(accepted, None).unwrap(),
            depth: AtomicU64::new(1),
        });
        (connection, BufReader::new(peer))
    }

    /// A raw connection past the handshake.
    fn raw_connection(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(binary::hello_line().as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut accept = String::new();
        reader.read_line(&mut accept).unwrap();
        assert_eq!(binary::parse_accept(&accept), Some(proto::PROTOCOL_VERSION));
        (stream, reader)
    }

    /// A `req_json` frame carrying `text`, with header id `id` (uncorrelated if `None`).
    fn req_json_frame(id: Option<u64>, text: &str) -> binary::Frame {
        let mut payload = vec![u8::from(id.is_some())];
        payload.extend_from_slice(&id.unwrap_or(0).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        binary::Frame {
            kind: binary::KIND_REQ_JSON,
            payload,
        }
    }

    /// Read frames off `reader` until `n` complete replies have arrived.
    fn read_replies(reader: &mut impl BufRead, n: usize) -> Vec<proto::ResponseEnvelope> {
        let mut assembler = binary::FrameAssembler::new();
        let mut partials = binary::EmbedPartials::new();
        let mut replies = Vec::new();
        while replies.len() < n {
            if let Some(frame) = assembler.next_frame().unwrap() {
                replies.extend(binary::decode_response_frame(&frame, &mut partials).unwrap());
                continue;
            }
            let buffered = reader.fill_buf().unwrap();
            assert!(!buffered.is_empty(), "server must answer, not hang up");
            let read = buffered.len();
            assembler.push(buffered);
            reader.consume(read);
        }
        replies
    }

    fn error_code(envelope: &proto::ResponseEnvelope) -> &str {
        match &envelope.body {
            ResponseBody::Error { code, .. } => code,
            other => panic!("expected an error body, got {other:?}"),
        }
    }

    #[test]
    fn first_lines_that_are_not_a_hello_are_refused_at_a_fixed_cap() {
        let (server, join) = start_server();
        let over_cap = vec![b'x'; crate::framing::HELLO_LINE_CAP + 1];
        let cases: [(&[u8], &str); 3] = [
            (b"gem-wire-binary 4\n", "version_mismatch"),
            (
                b"{\"id\":1,\"version\":5,\"body\":{\"type\":\"stats\"}}\n",
                "protocol_error",
            ),
            (&over_cap, "protocol_error"),
        ];
        for (first, code) in cases {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(first).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let verdict = proto::decode_response(&line).unwrap();
            assert_eq!(verdict.in_reply_to, None, "{line}");
            assert_eq!(error_code(&verdict), code, "{line}");
            line.clear();
            assert_eq!(
                reader.read_line(&mut line).unwrap(),
                0,
                "closed after: {line}"
            );
        }
        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().protocol_errors(), 3);
    }

    #[test]
    fn a_frame_sent_in_the_same_write_as_the_hello_is_served() {
        let (server, join) = start_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let stats = proto::RequestEnvelope::new(5, RequestBody::Stats);
        let frame = binary::encode_request_frame(&stats).unwrap();
        stream
            .write_all(&[binary::hello_line().as_bytes(), &frame].concat())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut accept = String::new();
        reader.read_line(&mut accept).unwrap();
        assert_eq!(binary::parse_accept(&accept), Some(proto::PROTOCOL_VERSION));
        let reply = read_replies(&mut reader, 1).remove(0);
        assert_eq!(reply.in_reply_to, Some(5));
        assert!(matches!(reply.body, ResponseBody::Stats(_)), "{reply:?}");
        // Every byte after the hello line counts as read off the wire, the frame's too.
        assert_eq!(server.metrics().wire_bytes_read(), frame.len() as u64);
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn a_frame_split_across_a_read_tick_is_assembled() {
        let (server, join) = start_server();
        let cols = corpus();
        let config = GemConfig::fast();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let (mut stream, mut reader) = raw_connection(server.addr());
        let frame = binary::encode_embed_frame(9, &fitted.handle.to_hex(), &cols).unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        stream.write_all(head).unwrap();
        // The reader's read times out at least once with half the frame buffered.
        std::thread::sleep(READ_TICK * 2);
        stream.write_all(tail).unwrap();
        let reply = read_replies(&mut reader, 1).remove(0);
        assert_eq!(reply.in_reply_to, Some(9));
        let ResponseBody::Embedded { matrix, .. } = reply.body else {
            panic!("expected an embedding, got {:?}", reply.body);
        };
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        let bits = |m: &gem_numeric::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(matrix.shape(), direct.matrix.shape());
        assert_eq!(bits(&matrix), bits(&direct.matrix));
        server.shutdown();
        join.join().unwrap().unwrap();
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

        let (connection, _peer) = loopback_connection();
        let sent = req_json_frame(Some(1), "{}");
        let pushed = queue.push(Frame {
            payload: FramePayload::Binary(sent.clone()),
            connection,
            enqueued_at: Instant::now(),
        });
        assert!(pushed.is_ok(), "an empty queue admits the frame");
        assert_eq!(metrics.queue_depth(), 1);
        let inputs_closed = AtomicBool::new(false);
        let frame = queue
            .pop(&inputs_closed)
            .expect("the pushed frame survives");
        match &frame.payload {
            FramePayload::Binary(popped) => assert_eq!(popped, &sent),
            FramePayload::Assembled(_) => panic!("expected the frame back, got an upload"),
        }
        assert_eq!(metrics.queue_depth(), 0, "the depth gauge tracks the drain");
        assert!(counters.lock_recoveries() >= 1);

        // Drained + closed: pop still works on the recovered mutex and retires cleanly.
        inputs_closed.store(true, Ordering::SeqCst);
        assert!(queue.pop(&inputs_closed).is_none());
    }

    #[test]
    fn full_queues_shed_with_typed_overloaded_responses() {
        let counters = Arc::new(ServerCounters::default());
        let metrics = Arc::new(ServerMetrics::new());
        let queue = WorkQueue::new(Arc::clone(&counters), Arc::clone(&metrics), 2);
        let (connection, mut peer) = loopback_connection();
        let frame = |id: u64| Frame {
            payload: FramePayload::Binary(req_json_frame(
                Some(id),
                &format!("{{\"id\":{id},\"version\":5,\"body\":{{\"type\":\"stats\"}}}}"),
            )),
            connection: Arc::clone(&connection),
            enqueued_at: Instant::now(),
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
        let response = read_replies(&mut peer, 1).remove(0);
        assert_eq!(
            response.in_reply_to,
            Some(7),
            "correlated via the header id"
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

        // A garbage frame without a correlation header sheds too, with
        // `in_reply_to: null`.
        let garbage = Frame {
            payload: FramePayload::Binary(req_json_frame(None, "\u{fffd} not even json")),
            connection: Arc::clone(&connection),
            enqueued_at: Instant::now(),
        };
        queue.shed(garbage);
        assert_eq!(read_replies(&mut peer, 1)[0].in_reply_to, None);
    }

    #[test]
    fn a_panicking_request_is_answered_internal_and_its_executor_serves_on() {
        let counters = Arc::new(ServerCounters::default());
        let metrics = Arc::new(ServerMetrics::new());
        let queue = WorkQueue::new(Arc::clone(&counters), Arc::clone(&metrics), 8);
        let (whole, mut whole_peer) = loopback_connection();
        let (torn, mut torn_peer) = loopback_connection();
        // Frame 1 panics before any byte of its reply leaves; frame 3 panics after an
        // intermediate row frame left; frames 2 and 4 are answered normally.
        for (id, connection) in [(1, &whole), (2, &whole), (3, &torn), (4, &whole)] {
            let frame = Frame {
                payload: FramePayload::Binary(req_json_frame(Some(id), "{}")),
                connection: Arc::clone(connection),
                enqueued_at: Instant::now(),
            };
            assert!(queue.push(frame).is_ok());
        }
        let rows = binary::embed_rows_frame(3, "memory_cache", 1, &[0.5]).unwrap();
        let inputs_closed = AtomicBool::new(true);
        // One executor serves every frame, panics included, then retires.
        executor_loop(
            &queue,
            &inputs_closed,
            &counters,
            &metrics,
            |payload, reply, _| match payload.correlation_id() {
                Some(1) => panic!("a request panics before replying"),
                Some(3) => {
                    reply.stream(&rows);
                    panic!("a request panics mid-stream");
                }
                id => Some(encode_reply(id, ResponseBody::Evicted { existed: true })),
            },
        );
        assert_eq!(counters.panics(), 2);
        assert_eq!(counters.requests(), 4);
        assert_eq!(
            metrics.busy_workers(),
            0,
            "the busy gauge dropped after each panic"
        );

        let replies = read_replies(&mut whole_peer, 3);
        let ids: Vec<Option<u64>> = replies.iter().map(|r| r.in_reply_to).collect();
        assert_eq!(ids, [Some(1), Some(2), Some(4)]);
        assert_eq!(error_code(&replies[0]), "internal");
        assert!(matches!(
            replies[2].body,
            ResponseBody::Evicted { existed: true }
        ));
        assert!(!whole.writer.is_dead());

        // The torn reply cannot be finished: its connection is closed after the rows
        // that already left.
        let mut received = Vec::new();
        torn_peer.read_to_end(&mut received).unwrap();
        assert_eq!(received, rows);
        assert!(torn.writer.is_dead());

        let text = metrics.render(&counters, None);
        assert!(text.contains("gem_executor_panics_total 2"), "{text}");
        let stats = EmbedService::new(MethodRegistry::with_gem(&GemConfig::fast()), 1).stats();
        let summary = shutdown_summary(&counters, &metrics, &stats);
        assert!(summary.contains("panics=2"), "{summary}");
    }

    /// Wide embeds of one-value columns: small requests whose replies are large.
    fn wide_queries() -> Vec<GemColumn> {
        (0..16384)
            .map(|i| GemColumn::new(vec![f64::from(i) * 0.5], format!("q{i}")))
            .collect()
    }

    /// How a stalled peer treats the replies it asked for.
    #[derive(Clone, Copy)]
    enum SlowPeer {
        /// Never reads a byte until the test looks for EOF.
        Stopped,
        /// Reads 512 KiB a second: each second's read frees enough of the socket
        /// buffers to reopen the window, so no single write waits long, but a ~2 MiB
        /// reply, sharing the socket with another executor's, spends well over its
        /// budget writing.
        Trickling,
    }

    /// A raw connection pipelines 12 embeds of 16384 one-value columns (~23 MiB of
    /// replies, far more than both socket buffers hold) and reads them as `peer` says.
    /// Another client's embed, queued behind all of them, must be served bit-exactly
    /// within one write timeout plus a margin; the slow connection must reach EOF, and
    /// none of its frames may stay queued or in flight.
    fn a_slow_peer_is_cut_off_within_one_write_timeout(peer: SlowPeer) {
        let (server, join) = start_server_with(2);
        let cols = corpus();
        let config = GemConfig::fast();
        let mut client =
            GemClient::connect_timeout(server.addr(), Duration::from_secs(30)).unwrap();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();

        let (mut stalled, mut stalled_reader) = raw_connection(server.addr());
        stalled_reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let wide = wide_queries();
        let read_before = server.metrics().wire_bytes_read();
        let mut pipelined = 0;
        for id in 1..=12 {
            let frame = binary::encode_embed_frame(id, &fitted.handle.to_hex(), &wide).unwrap();
            stalled.write_all(&frame).unwrap();
            pipelined += frame.len() as u64;
        }
        // Reads until EOF, pausing a second after each 512 KiB while `slow` is
        // raised; returns how many bytes arrived.
        let drain = |reader: &mut BufReader<TcpStream>, slow: &AtomicBool| {
            let mut received = 0;
            let mut chunk = vec![0u8; 64 << 10];
            let mut since_pause = 0;
            loop {
                match reader.read(&mut chunk).unwrap() {
                    0 => return received,
                    read => {
                        received += read;
                        since_pause += read;
                    }
                }
                if since_pause >= 512 << 10 && slow.load(Ordering::SeqCst) {
                    since_pause = 0;
                    std::thread::sleep(Duration::from_secs(1));
                }
            }
        };
        let slow = Arc::new(AtomicBool::new(true));
        let (trickle, mut stopped) = match peer {
            SlowPeer::Stopped => (None, Some(stalled_reader)),
            SlowPeer::Trickling => {
                let slow = Arc::clone(&slow);
                let trickle = std::thread::spawn(move || drain(&mut stalled_reader, &slow));
                (Some(trickle), None)
            }
        };
        // Wait until the server has read (and so queued) every stalled request.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().wire_bytes_read() < read_before + pipelined
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }

        // Both executors spend at most one write budget on the slow connection's
        // replies, then its remaining frames are dropped. A trickling peer gets more
        // margin: its socket buffers grow as it reads, so its replies back up later, and
        // the compute between a reply's writes does not count against the budget.
        let margin = match peer {
            SlowPeer::Stopped => Duration::from_secs(3),
            SlowPeer::Trickling => crate::framing::REPLY_WRITE_TIMEOUT + Duration::from_secs(3),
        };
        let started = Instant::now();
        let served = client.embed(fitted.handle, &cols).unwrap();
        let waited = started.elapsed();
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&cols)
            .unwrap();
        assert_eq!(served.matrix, direct.matrix);
        assert!(
            waited < crate::framing::REPLY_WRITE_TIMEOUT + margin,
            "waited {waited:?}"
        );

        // The slow connection was shut down: after the replies it got, EOF. What the
        // socket buffers still hold is read at full speed.
        slow.store(false, Ordering::SeqCst);
        let received = match trickle {
            Some(trickle) => trickle.join().unwrap(),
            None => drain(stopped.as_mut().unwrap(), &slow),
        };
        assert!(received < 12 * wide.len() * 15 * 8, "{received} bytes");

        // Nothing of the slow connection stays queued or in flight.
        let backlog = || {
            let inflight = server
                .render_metrics()
                .lines()
                .find_map(|line| line.strip_prefix("gem_connection_inflight_depth "))
                .and_then(|depth| depth.parse::<u64>().ok());
            (server.metrics().queue_depth(), inflight)
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while backlog() != (0, Some(0)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(backlog(), (0, Some(0)), "(queue depth, in-flight depth)");
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn a_peer_that_stops_reading_is_cut_off_within_one_write_timeout() {
        a_slow_peer_is_cut_off_within_one_write_timeout(SlowPeer::Stopped);
    }

    #[test]
    fn a_peer_that_drains_a_trickle_is_cut_off_within_one_write_timeout() {
        a_slow_peer_is_cut_off_within_one_write_timeout(SlowPeer::Trickling);
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
        assert!(server.metrics().busy_workers_high_water() >= 1);
    }

    #[test]
    fn zero_queries_get_the_in_process_transform_error_over_tcp() {
        let (server, join) = start_server();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let cols = corpus();
        let config = GemConfig::fast();
        let model = GemModel::fit(&cols, &config, FeatureSet::ds()).unwrap();
        let in_process = ServeError::Transform(model.transform(&[]).unwrap_err());
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let err = client.embed(fitted.handle, &[]).unwrap_err();
        assert_eq!(err.code(), Some(in_process.code()), "{err}");
        server.shutdown();
        join.join().unwrap().unwrap();
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
    fn connect_fails_when_the_server_declines_the_hello() {
        let declined = proto::encode_response(&proto::ResponseEnvelope::uncorrelated(error_body(
            &ServeError::InvalidRequest {
                reason: "declined".to_string(),
            },
        )));
        for (verdict, code) in [
            (declined, Some("invalid_request")),
            ("nonsense\n".to_string(), None),
        ] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let peer = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut hello = String::new();
                BufReader::new(stream.try_clone().unwrap())
                    .read_line(&mut hello)
                    .unwrap();
                assert_eq!(hello, binary::hello_line());
                stream.write_all(verdict.as_bytes()).unwrap();
            });
            let err = GemClient::connect_timeout(addr, Duration::from_secs(5)).unwrap_err();
            peer.join().unwrap();
            assert_eq!(err.code(), code, "{err}");
            assert!(code.is_some() || matches!(err, ClientError::Unexpected { .. }));
        }
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
        let (mut stream, mut reader) = raw_connection(server.addr());
        for frame in [
            req_json_frame(Some(3), "this is not json"),
            req_json_frame(
                Some(7),
                "{\"id\":7,\"version\":99,\"body\":{\"type\":\"stats\"}}",
            ),
        ] {
            let bytes = binary::frame_bytes(frame.kind, &frame.payload).unwrap();
            stream.write_all(&bytes).unwrap();
        }
        // The two error responses may return in either order (shared executor pool);
        // collect both and match on correlation.
        let replies = read_replies(&mut reader, 2);
        let code_for = |id| {
            let reply = replies.iter().find(|r| r.in_reply_to == Some(id));
            error_code(reply.expect("correlated by the header id")).to_string()
        };
        assert_eq!(code_for(3), "protocol_error");
        assert_eq!(code_for(7), "version_mismatch");
        // The connection survived both bad frames: a valid request still answers.
        let stats = proto::RequestEnvelope::new(8, RequestBody::Stats);
        stream
            .write_all(&binary::encode_request_frame(&stats).unwrap())
            .unwrap();
        let reply = read_replies(&mut reader, 1).remove(0);
        assert_eq!(reply.in_reply_to, Some(8));
        assert!(matches!(reply.body, ResponseBody::Stats(_)));
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
        let cols = corpus();
        let config = GemConfig::fast();
        let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
        let served = client.embed(fitted.handle, &cols).unwrap();

        // The raw-IEEE-754 path is bit-identical to the in-process fit+transform,
        // also when the rows stream back over several batches, the last one partial.
        let model = GemModel::fit(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(served.matrix, model.transform(&cols).unwrap().matrix);
        let many = queries_from(&cols, 2 * binary::EMBED_ROWS_PER_FRAME + 1);
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
    /// The row count an `embed_rows` frame carries: after the correlation header, the
    /// `served_from` string and the column count.
    fn embed_rows_in(frame: &binary::Frame) -> usize {
        let field = |at: usize| {
            let bytes: [u8; 4] = frame.payload[at..at + 4].try_into().unwrap();
            u32::from_le_bytes(bytes) as usize
        };
        let served_from_len = field(9);
        field(9 + 4 + served_from_len + 4)
    }

    #[test]
    fn an_embed_streams_one_row_frame_per_512_columns() {
        let (server, join) = start_server();
        let cols = corpus();
        let config = GemConfig::fast();
        let handle = GemClient::connect(server.addr())
            .unwrap()
            .fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .handle;
        let queries = queries_from(&cols, 2 * binary::EMBED_ROWS_PER_FRAME + 1);
        let (mut stream, mut reader) = raw_connection(server.addr());
        let embed = proto::RequestEnvelope::new(
            7,
            RequestBody::Embed {
                handle: handle.to_string(),
                queries: queries.clone(),
            },
        );
        stream
            .write_all(&binary::encode_request_frame(&embed).unwrap())
            .unwrap();
        let mut assembler = binary::FrameAssembler::new();
        let mut partials = binary::EmbedPartials::new();
        let mut rows_per_frame = Vec::new();
        let reply = loop {
            let Some(frame) = assembler.next_frame().unwrap() else {
                let buffered = reader.fill_buf().unwrap();
                assert!(!buffered.is_empty(), "server must answer, not hang up");
                let read = buffered.len();
                assembler.push(buffered);
                reader.consume(read);
                continue;
            };
            if frame.kind == binary::KIND_EMBED_ROWS {
                rows_per_frame.push(embed_rows_in(&frame));
            }
            if let Some(reply) = binary::decode_response_frame(&frame, &mut partials).unwrap() {
                break reply;
            }
        };
        assert_eq!(rows_per_frame, vec![512, 512, 1]);
        assert_eq!(reply.in_reply_to, Some(7));
        let ResponseBody::Embedded { matrix, .. } = reply.body else {
            panic!("expected embedded rows, got {:?}", reply.body);
        };
        let direct = GemModel::fit(&cols, &config, FeatureSet::ds())
            .unwrap()
            .transform(&queries)
            .unwrap()
            .matrix;
        let bits = |m: &gem_numeric::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&matrix), bits(&direct));
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn header_blocks_too_wide_for_512_rows_stream_in_frames_that_fit() {
        // At the widest accepted text_dim a 512-row header block alone fills a frame,
        // so each batch carries fewer rows; 513 columns still arrive bit-identically.
        let (server, join) = start_server_with(2);
        let cols = corpus();
        let config = GemConfig {
            text_dim: MAX_TEXT_DIM,
            ..GemConfig::fast()
        };
        let mut client = GemClient::connect(server.addr()).unwrap();
        let fitted = client.fit(&cols, &config, FeatureSet::c()).unwrap();
        assert_eq!(fitted.dim, MAX_TEXT_DIM);
        assert!(binary::embed_rows_per_frame(fitted.dim).unwrap() < binary::EMBED_ROWS_PER_FRAME);
        let queries = queries_from(&cols, binary::EMBED_ROWS_PER_FRAME + 1);
        let served = client.embed(fitted.handle, &queries).unwrap().matrix;
        let direct = GemModel::fit(&cols, &config, FeatureSet::c())
            .unwrap()
            .transform(&queries)
            .unwrap()
            .matrix;
        assert!(served
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(direct.as_slice().iter().map(|v| v.to_bits())));
        server.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn text_dims_the_replica_cannot_embed_are_typed_refusals() {
        let (server, join) = start_server();
        let cols = corpus();
        let mut client = GemClient::connect(server.addr()).unwrap();
        let with_text_dim = |text_dim| GemConfig {
            text_dim,
            ..GemConfig::fast()
        };
        // Below the embedder's minimum: a typed fit failure, not a caught panic.
        let error = client
            .fit(&cols, &with_text_dim(1), FeatureSet::ds())
            .unwrap_err();
        assert_eq!(error.code(), Some("fit_failed"), "{error}");
        // Above the one-frame bound, for a model with a header block: refused before
        // anything is fitted or allocated, whether fitted here or pushed.
        for text_dim in [MAX_TEXT_DIM + 1, 1 << 40] {
            let error = client
                .fit(&cols, &with_text_dim(text_dim), FeatureSet::dsc())
                .unwrap_err();
            assert_eq!(error.code(), Some("invalid_request"), "{error}");
        }
        let wide = with_text_dim(MAX_TEXT_DIM + 1);
        let model = GemModel::fit(&cols, &wide, FeatureSet::dsc()).unwrap();
        let key = crate::model_key(&cols, &wide, FeatureSet::dsc());
        let error = client
            .push_model(&gem_store::encode_snapshot(key, &model))
            .unwrap_err();
        assert_eq!(error.code(), Some("invalid_request"), "{error}");
        // A model without a header block has nothing to stream at that width.
        client.fit(&cols, &wide, FeatureSet::ds()).unwrap();
        assert_eq!(client.stats().unwrap().resident_models, 1);
        server.shutdown();
        join.join().unwrap().unwrap();
        assert_eq!(server.counters().panics(), 0);
    }
}
