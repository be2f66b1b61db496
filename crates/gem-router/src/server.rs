//! The routing front-end: a gem-proto TCP server that forwards each request to the
//! replica owning its route and streams the responses back, preserving the client's
//! pipeline.
//!
//! ## Forwarding model
//!
//! Each client connection owns its **own** upstream connection to every replica it
//! talks to. Client envelope ids are therefore unique per upstream connection by
//! construction (a client already may not reuse an id it has in flight, exactly as
//! against `gem-served` directly), so request frames are forwarded **verbatim** — no
//! id rewriting, no re-encoding — and response frames come back the same way. The
//! router decodes a request once, to route it; it never re-serializes what it forwards,
//! so a byte-exact round trip through the router is structural, not incidental.
//!
//! Routing is key-aware without extra round trips: the router computes `Fit` model
//! keys itself with the same [`gem_store::model_key`] the replica will use, derives
//! `FitUpdate` keys with [`gem_store::updated_model_key`], and peeks the `key` header
//! of `PushModel` snapshots — so it knows every handle *before* any replica answers.
//!
//! ## The wire
//!
//! Both sides speak what `gem-served` speaks, through [`gem_serve::framing`]:
//! a client opens with the `gem_proto::binary` hello exactly as against `gem-served`
//! (any other first line is refused with one typed error line), and each of that
//! connection's upstreams offers the same hello to its replica. Frames then forward
//! **verbatim** — streamed `embed_rows` frames pass through without retiring the
//! in-flight entry (the closing `embed_done` does), and chunked corpus uploads are
//! reassembled here once, **fingerprinted incrementally while the chunks arrive**
//! ([`gem_store::CorpusHasher`] — the routing key is ready the moment the upload
//! completes, no second pass over megabytes of corpus), then re-chunked toward the
//! owning replica. A replica that declines the hello is treated like one that refuses
//! the connection: it is marked down and the request retries on the next ring node.
//!
//! `Stats`, `ListModels`, and `Evict` fan out to every live replica and answer once
//! with a merged body. `Health` is answered by the router itself from the last probe
//! observations (a health probe that depended on the replicas being probed would be
//! useless for deciding whether to route to them).
//!
//! ## Fail-over
//!
//! A connect or write failure against a replica marks it down *immediately* and the
//! request retries against the next live ring node (which, for tracked handles, holds
//! the write-through snapshot copy — see [`Cluster::replicate`]). A replica that dies
//! with requests in flight EOFs its upstream reader, which answers every pending
//! request with the typed `replica_unavailable` error — safe to retry, and the retry
//! re-routes.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gem_proto::{
    binary, merge_models, merge_stats, RequestBody, RequestEnvelope, ResponseBody, WireModelInfo,
    WireStats,
};
use gem_serve::framing::{
    accept_hello, encode_reply, offer_hello, pump_frames, write_responses, ReadStep,
};
use gem_serve::sync::lock_or_recover;
use gem_serve::ModelHandle;
use gem_store::fingerprint::Fnv1a;
use gem_store::{
    corpus_fingerprint, fit_model_key, updated_model_key_from_fingerprint, CorpusHasher,
};

use crate::cluster::{Cluster, Transition};
use crate::metrics::ReplicaInstruments;

/// How often blocked client reads wake to check the shutdown flag (mirrors the
/// serving tier's tick).
const READ_TICK: Duration = Duration::from_millis(100);
/// Backoff after a failed `accept` so a transient error cannot spin the loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);
/// The error code for "no live replica can own this route".
pub const NO_REPLICA: &str = "no_replica";
/// The error code for "the owning replica vanished mid-request" (safe to retry; the
/// retry re-routes to the fail-over owner).
pub const REPLICA_UNAVAILABLE: &str = "replica_unavailable";

/// A handle for stopping a running [`RouterServer`] from another thread.
#[derive(Debug, Clone)]
pub struct RouterHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl RouterHandle {
    /// Ask the router to stop: in-flight requests finish, the accept loop exits, and
    /// [`RouterServer::run`] returns.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop so it notices the flag without waiting for a client.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The routing front-end. Bind, grab a [`RouterHandle`], then [`RouterServer::run`].
#[derive(Debug)]
pub struct RouterServer {
    listener: TcpListener,
    cluster: Arc<Cluster>,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
}

impl RouterServer {
    /// Bind the front-end on `addr` (use port 0 to let the OS pick).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(cluster: Arc<Cluster>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(RouterServer {
            listener,
            cluster,
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr,
        })
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown handle usable from any thread.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr,
        }
    }

    /// Accept and serve client connections until [`RouterHandle::shutdown`]. Joins
    /// every connection thread before returning.
    ///
    /// # Errors
    /// Propagates only fatal listener errors; per-connection errors end that
    /// connection and are otherwise absorbed.
    pub fn run(self) -> std::io::Result<()> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match incoming {
                Ok(stream) => {
                    let cluster = Arc::clone(&self.cluster);
                    let shutdown = Arc::clone(&self.shutdown);
                    connections.push(std::thread::spawn(move || {
                        serve_connection(stream, cluster, shutdown);
                    }));
                }
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
        Ok(())
    }
}

/// One upstream connection's in-flight requests. `closed` flips (under the lock)
/// when the upstream reader EOFs and drains: any forward that raced the death and
/// would have registered *after* the drain is refused instead, so it retries on the
/// fail-over route rather than waiting on a reader that already exited.
#[derive(Default)]
struct PendingMap {
    closed: bool,
    entries: HashMap<u64, Pending>,
}

/// What an in-flight forwarded request is waiting for.
enum Pending {
    /// Forward the response frames to the client verbatim.
    Forward { started: Instant },
    /// Like `Forward`, but on success first record placement and write-through
    /// replicate `handle` to its ring successor (fit / fit-update / push).
    Tracked { started: Instant, handle: String },
    /// One leg of a fan-out; fold the decoded body into the group.
    Fan { started: Instant, group: u64 },
}

/// Which fan-out request a group merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FanKind {
    Stats,
    Models,
    Evict,
}

/// One fan-out in flight: the client's id, how many legs are still pending, and the
/// successful partial bodies collected so far.
struct FanGroup {
    client_id: u64,
    kind: FanKind,
    remaining: usize,
    ok_legs: usize,
    stats: Vec<WireStats>,
    models: Vec<Vec<WireModelInfo>>,
    existed: bool,
    evict_handle: Option<String>,
}

/// State shared between the client reader and this connection's upstream readers.
///
/// `reply_tx` carries **complete frames**; the writer thread never edits what it is
/// handed.
struct ConnShared {
    cluster: Arc<Cluster>,
    reply_tx: mpsc::Sender<Vec<u8>>,
    groups: Mutex<HashMap<u64, FanGroup>>,
    /// Set during orderly teardown so upstream EOFs stop being treated as replica
    /// deaths.
    closing: AtomicBool,
}

impl ConnShared {
    fn send_response(&self, in_reply_to: Option<u64>, body: ResponseBody) {
        let _ = self.reply_tx.send(encode_reply(in_reply_to, body));
    }

    /// Forward a replica's response frame to the client verbatim.
    fn forward_frame(&self, frame: &binary::Frame) {
        if let Ok(bytes) = binary::frame_bytes(frame.kind, &frame.payload) {
            let _ = self.reply_tx.send(bytes);
        }
    }

    fn send_error(&self, in_reply_to: Option<u64>, code: &str, message: String) {
        let retry_after_ms = if code == NO_REPLICA || code == REPLICA_UNAVAILABLE {
            Some(u64::try_from(self.cluster.probe_interval().as_millis()).unwrap_or(1_000))
        } else {
            None
        };
        self.send_response(
            in_reply_to,
            ResponseBody::Error {
                code: code.to_string(),
                message,
                retry_after_ms,
            },
        );
    }

    /// Fold one fan-out leg (decoded success body, or `None` for a failed leg) into
    /// its group; emits the merged response when the last leg lands.
    fn fold_fan_leg(&self, group_id: u64, body: Option<ResponseBody>) {
        let finished = {
            let mut groups = lock_or_recover(&self.groups);
            let Some(group) = groups.get_mut(&group_id) else {
                return;
            };
            match body {
                Some(ResponseBody::Stats(stats)) => {
                    group.stats.push(stats);
                    group.ok_legs += 1;
                }
                Some(ResponseBody::Models(models)) => {
                    group.models.push(models);
                    group.ok_legs += 1;
                }
                Some(ResponseBody::Evicted { existed }) => {
                    group.existed |= existed;
                    group.ok_legs += 1;
                }
                Some(_) | None => {}
            }
            group.remaining = group.remaining.saturating_sub(1);
            if group.remaining == 0 {
                groups.remove(&group_id)
            } else {
                None
            }
        };
        if let Some(group) = finished {
            self.finish_fan(group);
        }
    }

    fn finish_fan(&self, group: FanGroup) {
        if group.ok_legs == 0 {
            self.send_error(
                Some(group.client_id),
                REPLICA_UNAVAILABLE,
                "every fan-out leg failed; no replica answered".to_string(),
            );
            return;
        }
        let body = match group.kind {
            FanKind::Stats => ResponseBody::Stats(merge_stats(&group.stats)),
            FanKind::Models => ResponseBody::Models(merge_models(&group.models)),
            FanKind::Evict => {
                if let Some(handle) = &group.evict_handle {
                    if group.existed {
                        self.cluster.forget_placement(handle);
                    }
                }
                ResponseBody::Evicted {
                    existed: group.existed,
                }
            }
        };
        self.send_response(Some(group.client_id), body);
    }
}

/// What the router has in hand for one request when it forwards it: the verbatim
/// frame, or — for a reassembled chunked upload, which has no single verbatim form —
/// only the decoded envelope to re-encode from.
enum ForwardPayload<'a> {
    /// The client's original frame, re-serialized byte-for-byte.
    Frame(&'a [u8]),
    /// No verbatim bytes exist: re-encode from the envelope (re-chunking the corpus).
    Reencode,
}

/// One upstream connection owned by a client connection.
struct Upstream {
    write: TcpStream,
    pending: Arc<Mutex<PendingMap>>,
    reader: Option<JoinHandle<()>>,
    instruments: ReplicaInstruments,
}

impl Upstream {
    /// Send one request on this upstream.
    fn send(
        &mut self,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
    ) -> std::io::Result<()> {
        match payload {
            ForwardPayload::Frame(bytes) => self.write.write_all(bytes)?,
            ForwardPayload::Reencode => {
                let frames = binary::encode_request_frames(envelope, binary::DEFAULT_CHUNK_BYTES)
                    .map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                for frame in &frames {
                    self.write.write_all(frame)?;
                }
            }
        }
        self.write.flush()
    }

    /// Register `entry` under `id` unless the reader already drained and closed this
    /// upstream (a write to a just-died socket can still buffer and "succeed", which
    /// would strand the entry). Returns whether the registration was accepted.
    fn register(&self, id: u64, entry: Pending) -> bool {
        let mut pending = lock_or_recover(&self.pending);
        if pending.closed {
            return false;
        }
        pending.entries.insert(id, entry);
        true
    }

    fn unregister(&self, id: u64) {
        lock_or_recover(&self.pending).entries.remove(&id);
    }
}

/// The per-client-connection forwarding state (owned by the client reader thread).
struct Forwarder {
    shared: Arc<ConnShared>,
    upstreams: HashMap<String, Upstream>,
    next_group: u64,
}

impl Forwarder {
    fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// Get (or open) this connection's upstream to `addr`, spawning its reader. A new
    /// upstream offers the replica the hello before anything else crosses it; a
    /// declined hello fails like a refused connect.
    fn upstream(&mut self, addr: &str) -> Result<&mut Upstream, ()> {
        if !self.upstreams.contains_key(addr) {
            let timeout = self.cluster().connect_timeout();
            let mut stream = connect_stream(addr, timeout).map_err(|_| ())?;
            let mut buffered = BufReader::new(stream.try_clone().map_err(|_| ())?);
            // The verdict read is the one upstream read this thread performs itself;
            // bound it so a stalled replica cannot wedge the client's request.
            buffered
                .get_ref()
                .set_read_timeout(Some(timeout))
                .map_err(|_| ())?;
            offer_hello(&mut stream, &mut buffered).map_err(|_| ())?;
            buffered.get_ref().set_read_timeout(None).map_err(|_| ())?;
            let pending = Arc::new(Mutex::new(PendingMap::default()));
            let instruments = self.cluster().metrics().replica(addr);
            let reader = {
                let shared = Arc::clone(&self.shared);
                let pending = Arc::clone(&pending);
                let instruments = instruments.clone();
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    read_upstream(buffered, &addr, &shared, &pending, &instruments);
                })
            };
            self.upstreams.insert(
                addr.to_string(),
                Upstream {
                    write: stream,
                    pending,
                    reader: Some(reader),
                    instruments,
                },
            );
        }
        self.upstreams.get_mut(addr).ok_or(())
    }

    /// Drop the upstream to `addr` after a failure: close both halves so its reader
    /// drains every pending request to `replica_unavailable`, then join it.
    fn discard_upstream(&mut self, addr: &str) {
        if let Some(mut upstream) = self.upstreams.remove(addr) {
            let _ = upstream.write.shutdown(Shutdown::Both);
            if let Some(reader) = upstream.reader.take() {
                let _ = reader.join();
            }
        }
    }

    /// A forwarding failure against `addr`: count it, mark the replica down, kick a
    /// rebalance on the down edge, and drop the connection.
    fn forward_failed(&mut self, addr: &str) {
        if let Some(upstream) = self.upstreams.get(addr) {
            upstream.instruments.errors.inc();
        } else {
            self.cluster().metrics().replica(addr).errors.inc();
        }
        if self.cluster().mark_down(addr) == Transition::WentDown {
            let cluster = Arc::clone(self.cluster());
            std::thread::spawn(move || {
                let _ = cluster.rebalance();
            });
        }
        self.discard_upstream(addr);
    }

    /// Forward one request to the replica `route` currently resolves to, retrying
    /// across fail-over candidates: every failure marks the replica down, so
    /// re-running `route` yields the next live ring node. Bounded by the membership
    /// size.
    fn forward<R: Fn(&Cluster) -> Option<String>>(
        &mut self,
        id: u64,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
        route: R,
        pending_for: impl Fn() -> Pending,
    ) {
        let attempts = self.cluster().replica_states().len().max(1);
        for _ in 0..attempts {
            let Some(addr) = route(self.cluster()) else {
                break;
            };
            let Ok(upstream) = self.upstream(&addr) else {
                self.forward_failed(&addr);
                continue;
            };
            // Register before writing: the response may race back before this thread
            // regains control. A refused registration means the reader died and
            // drained already — treat it exactly like a failed write.
            if !upstream.register(id, pending_for()) {
                self.forward_failed(&addr);
                continue;
            }
            if upstream.send(payload, envelope).is_ok() {
                upstream.instruments.forwards.inc();
                return;
            }
            upstream.unregister(id);
            self.forward_failed(&addr);
        }
        self.cluster().metrics().inc_no_replica();
        self.shared.send_error(
            Some(id),
            NO_REPLICA,
            "no live replica can serve this request".to_string(),
        );
    }

    /// Send one request to every live replica and answer once with the merged body.
    fn fan_out(
        &mut self,
        id: u64,
        payload: &ForwardPayload<'_>,
        envelope: &RequestEnvelope,
        kind: FanKind,
        evict_handle: Option<String>,
    ) {
        self.cluster().metrics().inc_fanout();
        let live = self.cluster().live_replicas();
        if live.is_empty() {
            self.cluster().metrics().inc_no_replica();
            self.shared.send_error(
                Some(id),
                NO_REPLICA,
                "no live replica can serve this request".to_string(),
            );
            return;
        }
        self.next_group += 1;
        let group_id = self.next_group;
        lock_or_recover(&self.shared.groups).insert(
            group_id,
            FanGroup {
                client_id: id,
                kind,
                remaining: live.len(),
                ok_legs: 0,
                stats: Vec::new(),
                models: Vec::new(),
                existed: false,
                evict_handle,
            },
        );
        for addr in live {
            let sent = match self.upstream(&addr) {
                Ok(upstream) => {
                    let entry = Pending::Fan {
                        started: Instant::now(),
                        group: group_id,
                    };
                    if !upstream.register(id, entry) {
                        false
                    } else if upstream.send(payload, envelope).is_ok() {
                        upstream.instruments.forwards.inc();
                        true
                    } else {
                        upstream.unregister(id);
                        false
                    }
                }
                Err(()) => false,
            };
            if !sent {
                self.forward_failed(&addr);
                self.shared.fold_fan_leg(group_id, None);
            }
        }
    }

    /// Route and forward one decoded request.
    ///
    /// `corpus_fp` is the incremental corpus fingerprint a chunked upload computed
    /// while its chunks streamed in — passing it here is what makes chunked routing
    /// O(1) instead of a second pass over the reassembled corpus.
    fn dispatch(
        &mut self,
        envelope: RequestEnvelope,
        payload: ForwardPayload<'_>,
        corpus_fp: Option<u64>,
    ) {
        self.cluster().metrics().inc_request();
        let id = envelope.id;
        match &envelope.body {
            RequestBody::Health => {
                let view = self.cluster().health_view();
                self.shared.send_response(
                    Some(id),
                    ResponseBody::Health {
                        state: view.state.to_string(),
                        queue_depth: view.queue_depth,
                        queue_capacity: view.queue_capacity,
                        busy_workers: view.busy_workers,
                        workers: view.workers,
                        retry_after_ms: view.retry_after_ms,
                    },
                );
            }
            RequestBody::Stats => self.fan_out(id, &payload, &envelope, FanKind::Stats, None),
            RequestBody::ListModels => {
                self.fan_out(id, &payload, &envelope, FanKind::Models, None);
            }
            RequestBody::Evict { handle } => {
                let handle = handle.clone();
                self.fan_out(id, &payload, &envelope, FanKind::Evict, Some(handle));
            }
            RequestBody::Fit {
                corpus,
                config,
                features,
                composition,
            } => {
                // The replica derives the handle with the same function, so the router
                // can place the model before it exists.
                let handle = fit_model_key(
                    corpus_fp.unwrap_or_else(|| corpus_fingerprint(corpus)),
                    config,
                    *features,
                    *composition,
                )
                .to_hex();
                let route_handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&route_handle),
                    || Pending::Tracked {
                        started: Instant::now(),
                        handle: handle.clone(),
                    },
                );
            }
            RequestBody::FitUpdate { handle, corpus } => {
                let parent = match ModelHandle::parse(handle) {
                    Ok(parent) => parent,
                    Err(reason) => {
                        self.shared.send_error(Some(id), "invalid_request", reason);
                        return;
                    }
                };
                // The derived model is created wherever the parent lives (placement
                // first — the parent may itself be a derivative off its ring slot).
                let derived = updated_model_key_from_fingerprint(
                    parent.key(),
                    corpus_fp.unwrap_or_else(|| corpus_fingerprint(corpus)),
                )
                .to_hex();
                let route_handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&route_handle),
                    || Pending::Tracked {
                        started: Instant::now(),
                        handle: derived.clone(),
                    },
                );
            }
            RequestBody::Embed { handle, .. } | RequestBody::PullModel { handle } => {
                if let Err(reason) = ModelHandle::parse(handle) {
                    self.shared.send_error(Some(id), "invalid_request", reason);
                    return;
                }
                let handle = handle.clone();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_handle(&handle),
                    || Pending::Forward {
                        started: Instant::now(),
                    },
                );
            }
            RequestBody::PushModel { snapshot } => {
                // Route by the key the envelope header names; a snapshot too malformed
                // to carry one goes to any live replica, whose store validation owns
                // the canonical rejection.
                let key = snapshot
                    .get("key")
                    .and_then(|k| k.as_str())
                    .map(str::to_owned);
                match key {
                    Some(key) => {
                        let route_key = key.clone();
                        self.forward(
                            id,
                            &payload,
                            &envelope,
                            move |cluster| cluster.route_handle(&route_key),
                            || Pending::Tracked {
                                started: Instant::now(),
                                handle: key.clone(),
                            },
                        );
                    }
                    None => self.forward(
                        id,
                        &payload,
                        &envelope,
                        |cluster| cluster.route_hash(0),
                        || Pending::Forward {
                            started: Instant::now(),
                        },
                    ),
                }
            }
            RequestBody::EmbedCorpus { method, corpus, .. } => {
                // One-shot embeds have no handle; shard them by method + corpus
                // fingerprint so repeated calls hit the same replica's cache.
                let mut h = Fnv1a::new();
                h.write(b"gem-route-embed-corpus:");
                h.write(method.as_bytes());
                h.write_u64(corpus_fingerprint(corpus));
                let hash = h.finish();
                self.forward(
                    id,
                    &payload,
                    &envelope,
                    move |cluster| cluster.route_hash(hash),
                    || Pending::Forward {
                        started: Instant::now(),
                    },
                );
            }
        }
    }

    /// Orderly teardown: stop treating upstream EOFs as deaths, close every upstream,
    /// and join their readers.
    fn close(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let addrs: Vec<String> = self.upstreams.keys().cloned().collect();
        for addr in addrs {
            self.discard_upstream(&addr);
        }
    }
}

/// Resolve and connect with a timeout (mirrors `GemClient::connect_timeout`, but for
/// the raw forwarding stream).
fn connect_stream(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    }))
}

/// One upstream connection's reader: correlate responses with pending requests, run
/// write-through replication for tracked handles, fold fan-out legs, and — if the
/// replica dies with requests in flight — drain them to `replica_unavailable`.
fn read_upstream(
    reader: BufReader<TcpStream>,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
) {
    read_upstream_frames(reader, addr, shared, pending, instruments);
    if shared.closing.load(Ordering::SeqCst) {
        return;
    }
    // The replica died under us. Mark it down, kick a rebalance on the edge, and
    // answer everything still in flight with the retryable typed error.
    instruments.errors.inc();
    if shared.cluster.mark_down(addr) == Transition::WentDown {
        let cluster = Arc::clone(&shared.cluster);
        std::thread::spawn(move || {
            let _ = cluster.rebalance();
        });
    }
    // Close first, drain second, under one lock hold: a forward racing this teardown
    // either lands in `entries` before the drain (answered below) or sees `closed`
    // and retries on the fail-over route. Nothing can be stranded in between.
    let drained: Vec<(u64, Pending)> = {
        let mut pending = lock_or_recover(pending);
        pending.closed = true;
        pending.entries.drain().collect()
    };
    for (id, entry) in drained {
        match entry {
            Pending::Forward { .. } | Pending::Tracked { .. } => {
                shared.send_error(
                    Some(id),
                    REPLICA_UNAVAILABLE,
                    format!("replica {addr} disconnected with the request in flight"),
                );
            }
            Pending::Fan { group, .. } => shared.fold_fan_leg(group, None),
        }
    }
}

/// The upstream reader loop. Streamed `embed_rows` frames pass through to the client
/// **without retiring** the in-flight entry — the closing `embed_done` (or a wrapped
/// JSON response) does that. Returns when the
/// upstream EOFs, fails, or violates framing (indistinguishable from corruption, so
/// it is treated as a replica death and everything in flight drains to the retryable
/// error).
fn read_upstream_frames(
    mut reader: BufReader<TcpStream>,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
) {
    let mut assembler = binary::FrameAssembler::new();
    let mut partials = binary::EmbedPartials::new();
    loop {
        let frame = match assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => match pump_frames(&mut reader, &mut assembler) {
                ReadStep::Bytes(_) | ReadStep::Tick => continue,
                ReadStep::Eof | ReadStep::Failed => return,
            },
            Err(_) => return,
        };
        match frame.kind {
            binary::KIND_EMBED_ROWS => {
                // Stream through verbatim while the request stays pending; rows for
                // an id that already drained (replica raced its own death) vanish —
                // the drain already answered that id.
                let live = frame
                    .correlation_id()
                    .is_some_and(|id| lock_or_recover(pending).entries.contains_key(&id));
                if live {
                    shared.forward_frame(&frame);
                }
            }
            binary::KIND_EMBED_DONE => {
                let Some(id) = frame.correlation_id() else {
                    continue;
                };
                let entry = lock_or_recover(pending).entries.remove(&id);
                match entry {
                    None => {}
                    Some(Pending::Forward { started }) | Some(Pending::Tracked { started, .. }) => {
                        instruments.latency.record(started.elapsed());
                        shared.forward_frame(&frame);
                    }
                    // Embeds never fan out; fold defensively so a confused replica
                    // cannot wedge a fan group forever.
                    Some(Pending::Fan { started, group }) => {
                        instruments.latency.record(started.elapsed());
                        shared.fold_fan_leg(group, None);
                    }
                }
            }
            binary::KIND_RESP_JSON => {
                let Some(id) = frame.correlation_id() else {
                    continue;
                };
                let decoded = binary::decode_response_frame(&frame, &mut partials);
                let entry = lock_or_recover(pending).entries.remove(&id);
                match entry {
                    None => {}
                    Some(Pending::Forward { started }) => {
                        instruments.latency.record(started.elapsed());
                        shared.forward_frame(&frame);
                    }
                    Some(Pending::Tracked { started, handle }) => {
                        instruments.latency.record(started.elapsed());
                        let succeeded = matches!(
                            &decoded,
                            Ok(Some(envelope))
                                if !matches!(envelope.body, ResponseBody::Error { .. })
                        );
                        if succeeded {
                            // Write-through BEFORE the client sees success: once the
                            // response is out, fail-over must already be covered.
                            shared.cluster.record_placement(&handle, addr);
                            let _ = shared.cluster.replicate(&handle, addr);
                        }
                        shared.forward_frame(&frame);
                    }
                    Some(Pending::Fan { started, group }) => {
                        instruments.latency.record(started.elapsed());
                        let body = match decoded {
                            Ok(Some(envelope)) => match envelope.body {
                                ResponseBody::Error { .. } => None,
                                body => Some(body),
                            },
                            _ => None,
                        };
                        shared.fold_fan_leg(group, body);
                    }
                }
            }
            _ => {} // an unknown response kind is uncorrelated noise
        }
    }
}

/// Serve one client connection: reader loop here, writer on its own thread, upstream
/// readers spawned on demand. The connection's first line must be the hello; after
/// the accept line it is frames for the rest of its life, and any other first line is
/// refused with one typed error line before the connection closes.
fn serve_connection(stream: TcpStream, cluster: Arc<Cluster>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || write_responses(write_half, &reply_rx, None));
    let mut reader = BufReader::new(stream);
    if let Ok(true) = accept_hello(&mut reader, &reply_tx, &shutdown) {
        let mut forwarder = Forwarder {
            shared: Arc::new(ConnShared {
                cluster,
                reply_tx,
                groups: Mutex::new(HashMap::new()),
                closing: AtomicBool::new(false),
            }),
            upstreams: HashMap::new(),
            next_group: 0,
        };
        serve_binary_client(reader, &mut forwarder, &shutdown);
        forwarder.close();
    } else {
        drop(reply_tx);
    }
    // Every reply sender (the forwarder's, and the upstream readers' joined in
    // `close`) is gone by now, so the writer drains and exits.
    let _ = writer.join();
}

/// The client reader loop, entered after an accepted hello.
///
/// Chunked uploads are reassembled here exactly once, and — the routing win — the
/// corpus fingerprint is computed **incrementally from the chunk events**, so by the
/// time `end_fit` lands the model key (identical to the replica's, and to an offline
/// [`gem_store::model_key`]) costs two hash finishes instead of a second multi-
/// megabyte corpus walk.
fn serve_binary_client(
    mut reader: BufReader<TcpStream>,
    forwarder: &mut Forwarder,
    shutdown: &Arc<AtomicBool>,
) {
    let mut assembler = binary::FrameAssembler::new();
    let mut chunks = binary::ChunkAssembler::new();
    let mut hashers: HashMap<u64, CorpusHasher> = HashMap::new();
    while !shutdown.load(Ordering::SeqCst) {
        let frame = match assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => match pump_frames(&mut reader, &mut assembler) {
                ReadStep::Bytes(_) | ReadStep::Tick => continue,
                ReadStep::Eof | ReadStep::Failed => return, // client hung up
            },
            Err(e) => {
                // A framing violation has no resynchronisation point on a byte
                // stream: answer the typed error uncorrelated and drop the link.
                forwarder.shared.send_error(None, e.code(), e.to_string());
                return;
            }
        };
        if binary::ChunkAssembler::is_chunk_kind(frame.kind) {
            let accepted = chunks.accept(&frame, |event| match event {
                binary::ChunkEvent::Begin { id, total_columns } => {
                    hashers.insert(id, CorpusHasher::new(total_columns));
                }
                binary::ChunkEvent::Columns { id, columns } => {
                    if let Some(hasher) = hashers.get_mut(&id) {
                        hasher.push_columns(columns);
                    }
                }
            });
            match accepted {
                Ok(Some(envelope)) => {
                    let corpus_fp = hashers.remove(&envelope.id).map(CorpusHasher::finish);
                    forwarder.dispatch(envelope, ForwardPayload::Reencode, corpus_fp);
                }
                Ok(None) => {}
                Err(e) => {
                    // A chunk-sequence violation costs only that upload: the
                    // assembler already dropped its partial state, we drop the
                    // matching hasher, and the connection (with any interleaved
                    // uploads) lives on.
                    let id = frame.correlation_id();
                    if let Some(id) = id {
                        hashers.remove(&id);
                    }
                    forwarder.shared.send_error(id, e.code(), e.to_string());
                }
            }
        } else {
            match binary::decode_request_frame(&frame) {
                Ok(envelope) => match binary::frame_bytes(frame.kind, &frame.payload) {
                    Ok(raw) => {
                        forwarder.dispatch(envelope, ForwardPayload::Frame(&raw), None);
                    }
                    Err(_) => forwarder.dispatch(envelope, ForwardPayload::Reencode, None),
                },
                Err(e) => {
                    forwarder
                        .shared
                        .send_error(frame.correlation_id(), e.code(), e.to_string());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ReplicaState;
    use crate::metrics::RouterMetrics;
    use gem_core::{FeatureSet, GemColumn, GemConfig, MethodRegistry};
    use gem_proto::ResponseEnvelope;
    use gem_serve::client::{ClientError, GemClient};
    use gem_serve::{model_key, EmbedService, GemServer, ServerHandle};
    use std::io::{BufRead, Read};

    fn empty_router() -> (RouterHandle, SocketAddr, JoinHandle<std::io::Result<()>>) {
        let metrics = Arc::new(RouterMetrics::new());
        // A member that cannot be reached: connects to it fail instantly, so routing
        // exercises the mark-down + no_replica path without sleeping.
        let cluster = Arc::new(Cluster::with_options(
            &["127.0.0.1:1".to_string()],
            metrics,
            8,
            1,
            Duration::from_millis(50),
            Duration::from_millis(100),
        ));
        let server = RouterServer::bind(cluster, ("127.0.0.1", 0)).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        (handle, addr, thread)
    }

    #[test]
    fn health_is_answered_by_the_router_itself() {
        let (handle, addr, thread) = empty_router();
        let mut client = GemClient::connect(addr).expect("connect");
        let health = client.health().expect("health");
        // No probe has run and the only member is unreachable but not yet marked
        // down, so the router reports ok with zeroed queue numbers.
        assert_eq!(health.queue_depth, 0);
        handle.shutdown();
        let _ = thread.join();
    }

    #[test]
    fn unroutable_requests_get_the_typed_no_replica_error() {
        let (handle, addr, thread) = empty_router();
        let mut client = GemClient::connect(addr).expect("connect");
        let handle_hex = "00000000000000aa-00000000000000bb";
        let err = client
            .embed(ModelHandle::parse(handle_hex).expect("valid hex"), &[])
            .expect_err("nothing can serve this");
        match err {
            ClientError::Server {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, NO_REPLICA);
                assert!(retry_after_ms.is_some(), "no_replica carries a retry hint");
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
        handle.shutdown();
        let _ = thread.join();
    }

    fn real_replica() -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .expect("bind replica")
            .with_workers(2);
        let handle = server.handle().expect("replica handle");
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    #[allow(clippy::type_complexity)]
    fn router_over(
        replica: SocketAddr,
    ) -> (
        Arc<Cluster>,
        RouterHandle,
        SocketAddr,
        JoinHandle<std::io::Result<()>>,
    ) {
        let metrics = Arc::new(RouterMetrics::new());
        let cluster = Arc::new(Cluster::with_options(
            &[replica.to_string()],
            metrics,
            8,
            1,
            Duration::from_millis(50),
            Duration::from_millis(500),
        ));
        let server = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        (cluster, handle, addr, thread)
    }

    fn test_corpus() -> Vec<GemColumn> {
        (0..4)
            .map(|c| {
                GemColumn::new(
                    (0..300)
                        .map(|i| f64::from(i) * 0.25 + f64::from(c) * 40.0)
                        .collect(),
                    format!("col_{c}"),
                )
            })
            .collect()
    }

    #[test]
    fn binary_clients_chunk_fits_through_the_router_with_incremental_keys() {
        let (replica, replica_join) = real_replica();
        let (cluster, handle, addr, thread) = router_over(replica.addr());
        let config = GemConfig::fast();
        let corpus = test_corpus();

        // chunk_bytes(1) clamps to the 1 KiB floor, so this ~10 KiB corpus genuinely
        // travels as a begin_fit / corpus_chunk* / end_fit sequence.
        let mut client = GemClient::connect(addr)
            .expect("connect")
            .with_chunk_bytes(1);
        let fitted = client
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("chunked fit through the router");
        let expected = model_key(&corpus, &config, FeatureSet::ds());
        assert_eq!(fitted.handle, ModelHandle::from(expected));
        // The router keyed its placement from the *incremental* chunk hash — it must
        // land on the same hex as the offline derivation, or fail-over would look the
        // model up under a name nobody else computes.
        assert_eq!(
            cluster.placement_of(&expected.to_hex()),
            Some(replica.addr().to_string()),
            "placement recorded under the incrementally fingerprinted key"
        );

        // Streamed embed rows forward through the router verbatim and match what the
        // replica serves directly.
        let embedded = client.embed(fitted.handle, &corpus).expect("embed");
        assert_eq!(embedded.matrix.rows(), corpus.len());
        let mut direct = GemClient::connect(replica.addr()).expect("direct connect");
        let via_direct = direct.embed(fitted.handle, &corpus).expect("direct embed");
        assert_eq!(embedded.matrix, via_direct.matrix);

        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn replicas_that_decline_the_hello_are_marked_down() {
        // A member that answers the router's hello with a typed protocol_error line,
        // the way a server refuses a first line it does not accept.
        let declining = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let member = declining.local_addr().expect("member addr");
        let member_thread = std::thread::spawn(move || {
            let (mut stream, _) = declining.accept().expect("the router dials once");
            let mut hello = [0u8; 64];
            let _ = stream.read(&mut hello);
            let decline = ResponseEnvelope::uncorrelated(ResponseBody::Error {
                code: "protocol_error".to_string(),
                message: "no frames here".to_string(),
                retry_after_ms: None,
            });
            let _ = stream.write_all(gem_proto::encode_response(&decline).as_bytes());
        });
        let (cluster, handle, addr, thread) = router_over(member);

        let mut client = GemClient::connect(addr).expect("connect");
        let started = Instant::now();
        let err = client
            .embed(
                ModelHandle::parse("00000000000000aa-00000000000000bb").expect("hex"),
                &[],
            )
            .expect_err("the only member declines");
        assert_eq!(err.code(), Some(NO_REPLICA), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "answered promptly"
        );
        assert_eq!(
            cluster.replica_states(),
            vec![(member.to_string(), ReplicaState::Down)]
        );
        member_thread.join().expect("member thread");

        handle.shutdown();
        let _ = thread.join();
    }

    #[test]
    fn first_lines_that_are_not_a_hello_are_refused_at_a_fixed_cap() {
        let (handle, addr, thread) = empty_router();
        let over_cap = vec![b'x'; gem_serve::framing::HELLO_LINE_CAP + 1];
        let cases: [(&[u8], &str); 3] = [
            (b"gem-wire-binary 4\n", "version_mismatch"),
            (
                b"{\"id\":1,\"version\":5,\"body\":{\"type\":\"stats\"}}\n",
                "protocol_error",
            ),
            (&over_cap, "protocol_error"),
        ];
        for (first, code) in cases {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            stream.write_all(first).expect("write");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("verdict");
            let verdict = gem_proto::decode_response(&line).expect("decode");
            assert_eq!(verdict.in_reply_to, None, "{line}");
            assert!(
                matches!(&verdict.body, ResponseBody::Error { code: got, .. } if got == code),
                "{line}"
            );
            line.clear();
            assert_eq!(
                reader.read_line(&mut line).expect("eof"),
                0,
                "closed after: {line}"
            );
        }
        handle.shutdown();
        let _ = thread.join();
    }

    #[test]
    fn malformed_lines_answer_protocol_errors_with_salvaged_ids() {
        let (handle, addr, thread) = empty_router();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(binary::hello_line().as_bytes())
            .expect("hello");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut accept = String::new();
        reader.read_line(&mut accept).expect("accept");
        assert_eq!(
            binary::parse_accept(&accept),
            Some(gem_proto::PROTOCOL_VERSION)
        );
        // A req_json frame with header id 42 whose envelope names a foreign version.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&42u64.to_le_bytes());
        payload.extend_from_slice(br#"{"id": 42, "version": 999999, "body": {"type": "stats"}}"#);
        let frame = binary::frame_bytes(binary::KIND_REQ_JSON, &payload).expect("frame");
        stream.write_all(&frame).expect("write");
        let mut assembler = binary::FrameAssembler::new();
        let frame = loop {
            if let Some(frame) = assembler.next_frame().expect("framing") {
                break frame;
            }
            let buffered = reader.fill_buf().expect("read");
            assert!(!buffered.is_empty(), "the router must answer");
            let read = buffered.len();
            assembler.push(buffered);
            reader.consume(read);
        };
        let envelope = binary::decode_response_frame(&frame, &mut binary::EmbedPartials::new())
            .expect("decode")
            .expect("a complete reply");
        assert_eq!(
            envelope.in_reply_to,
            Some(42),
            "correlated by the header id"
        );
        assert!(
            matches!(envelope.body, ResponseBody::Error { ref code, .. } if code == "version_mismatch"),
            "{envelope:?}"
        );
        handle.shutdown();
        let _ = thread.join();
    }
}
