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
//! Every thread that produces a reply writes it to the client itself, through the
//! client socket's shared [`ReplyWriter`]: the client loop answers `Health` and the
//! router's own typed errors, and each upstream reader writes all the response frames
//! one read completes in one write (and a fan-out's merged reply when it folds the
//! last leg). Each upstream reader writes on one budget of
//! [`REPLY_WRITE_TIMEOUT`](gem_serve::framing::REPLY_WRITE_TIMEOUT), refilled whenever
//! it catches up with its link, so a client that stops reading or drains a trickle is
//! cut off before the link backs up long enough for a replica to cut it, and its
//! upstream links close as an orderly teardown: the replicas stay up.
//!
//! Routing is key-aware without extra round trips: the router computes `Fit` model
//! keys itself with the same [`gem_store::fit_model_key`] the replica will use, derives
//! `FitUpdate` keys with [`gem_store::updated_model_key`], and peeks the `key` header
//! of `PushModel` snapshots — so it knows every handle *before* any replica answers.
//!
//! ## The wire
//!
//! Both sides speak what `gem-served` speaks, through [`gem_serve::framing`]: clients
//! connect to the same [`Listener`] `gem-served` runs (the hello, the request reader,
//! chunk reassembly and the refusals it answers itself), and each client connection's
//! upstreams dial their replica with the same hello and read through a
//! [`FrameReader`]. Frames then forward **verbatim** — streamed `embed_rows` frames pass
//! through without retiring the in-flight entry (the closing `embed_done` does). A
//! chunked corpus upload is reassembled by the listener once, keyed from the
//! reassembled corpus exactly like a one-frame fit, then re-chunked toward the owning
//! replica. A replica that declines the hello is treated like one that refuses the
//! connection: it is marked down and the request retries on the next ring node.
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
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gem_proto::{
    binary, merge_models, merge_stats, RequestBody, RequestEnvelope, ResponseBody, WireModelInfo,
    WireStats,
};
use gem_serve::framing::{
    dial, encode_reply, FramePayload, FrameReader, Handler, Listener, ReplyWriter, StopHandle,
    WriteBudget,
};
use gem_serve::sync::lock_or_recover;
use gem_serve::ModelHandle;
use gem_store::fingerprint::Fnv1a;
use gem_store::{corpus_fingerprint, fit_model_key, updated_model_key};

use crate::cluster::{Cluster, Transition};
use crate::metrics::ReplicaInstruments;

/// The error code for "no live replica can own this route".
pub const NO_REPLICA: &str = "no_replica";
/// The error code for "the owning replica vanished mid-request" (safe to retry; the
/// retry re-routes to the fail-over owner).
pub const REPLICA_UNAVAILABLE: &str = "replica_unavailable";

/// A handle for stopping a running [`RouterServer`] from another thread: in-flight
/// requests finish, the accept loop exits, and [`RouterServer::run`] returns.
pub type RouterHandle = StopHandle;

/// The routing front-end. Bind, grab a [`RouterHandle`], then [`RouterServer::run`].
#[derive(Debug)]
pub struct RouterServer {
    listener: Listener,
    cluster: Arc<Cluster>,
}

impl RouterServer {
    /// Bind the front-end on `addr` (use port 0 to let the OS pick).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(cluster: Arc<Cluster>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(RouterServer {
            listener: Listener::bind(addr)?,
            cluster,
        })
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from any thread.
    pub fn handle(&self) -> RouterHandle {
        self.listener.stop_handle()
    }

    /// Accept and serve client connections until [`RouterHandle::shutdown`]. Joins
    /// every connection thread before returning.
    ///
    /// # Errors
    /// None today: a failed accept is retried, and per-connection errors end that
    /// connection.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.run(Arc::new(Clients {
            cluster: self.cluster,
        }));
        Ok(())
    }
}

/// The router's part in its [`Listener`]: each client connection routes its requests
/// through a [`Forwarder`] of its own.
struct Clients {
    cluster: Arc<Cluster>,
}

impl Handler for Clients {
    type Connection = Forwarder;

    fn open(&self, writer: ReplyWriter) -> Forwarder {
        Forwarder {
            shared: Arc::new(ConnShared {
                cluster: Arc::clone(&self.cluster),
                writer,
                groups: Mutex::new(HashMap::new()),
                closing: AtomicBool::new(false),
            }),
            upstreams: HashMap::new(),
            next_group: 0,
        }
    }

    fn writer(forwarder: &Forwarder) -> &ReplyWriter {
        &forwarder.shared.writer
    }

    /// Decode one request to route it. A reassembled upload has no single frame to
    /// forward, so it is re-chunked toward its replica.
    fn request(&self, forwarder: &mut Forwarder, request: FramePayload) {
        match request {
            FramePayload::Binary(frame) => match binary::decode_request_frame(&frame) {
                Ok(envelope) => forwarder.dispatch(envelope, ForwardPayload::Frame(&frame)),
                Err(e) => forwarder.shared.send_error(
                    frame.correlation_id(),
                    e.code(),
                    e.to_string(),
                    &mut WriteBudget::default(),
                ),
            },
            FramePayload::Assembled(envelope) => {
                forwarder.dispatch(*envelope, ForwardPayload::Reencode);
            }
        }
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
/// Whichever of those threads produces a reply writes it to the client itself, through
/// the client socket's shared `writer`, in **complete frames**. A write that fails or
/// runs out of budget kills the client connection: its socket is shut down (which ends
/// the client reader, and with it every upstream link) and `closing` is set before any
/// upstream link closes, so the upstream links' EOFs that follow are an orderly
/// teardown, never a replica death.
struct ConnShared {
    cluster: Arc<Cluster>,
    writer: ReplyWriter,
    groups: Mutex<HashMap<u64, FanGroup>>,
    /// Set during orderly teardown so upstream EOFs stop being treated as replica
    /// deaths.
    closing: AtomicBool,
}

impl ConnShared {
    /// Write complete frames to the client, drawing on `budget`; `false` once the
    /// client connection is dead.
    fn write(&self, bytes: &[u8], budget: &mut WriteBudget) -> bool {
        let written = self.writer.write(bytes, budget);
        if !written {
            self.closing.store(true, Ordering::SeqCst);
        }
        written
    }

    fn send_response(
        &self,
        in_reply_to: Option<u64>,
        body: ResponseBody,
        budget: &mut WriteBudget,
    ) {
        let _ = self.write(&encode_reply(in_reply_to, body), budget);
    }

    fn send_error(
        &self,
        in_reply_to: Option<u64>,
        code: &str,
        message: String,
        budget: &mut WriteBudget,
    ) {
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
            budget,
        );
    }

    /// Fold one fan-out leg (decoded success body, or `None` for a failed leg) into
    /// its group; emits the merged response, drawing on `budget`, when the last leg
    /// lands.
    fn fold_fan_leg(&self, group_id: u64, body: Option<ResponseBody>, budget: &mut WriteBudget) {
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
            self.finish_fan(group, budget);
        }
    }

    fn finish_fan(&self, group: FanGroup, budget: &mut WriteBudget) {
        if group.ok_legs == 0 {
            self.send_error(
                Some(group.client_id),
                REPLICA_UNAVAILABLE,
                "every fan-out leg failed; no replica answered".to_string(),
                budget,
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
        self.send_response(Some(group.client_id), body, budget);
    }
}

/// What the router has in hand for one request when it forwards it: the client's
/// frame, or — for a reassembled chunked upload, which has no single frame — only the
/// decoded envelope to re-encode from.
enum ForwardPayload<'a> {
    /// The client's frame, framed into the upstream write byte-for-byte.
    Frame(&'a binary::Frame),
    /// No single frame exists: re-encode from the envelope (re-chunking the corpus).
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
        let frames = match payload {
            ForwardPayload::Frame(frame) => {
                binary::frame_bytes(frame.kind, &frame.payload).map(|bytes| vec![bytes])
            }
            ForwardPayload::Reencode => {
                binary::encode_request_frames(envelope, binary::DEFAULT_CHUNK_BYTES)
            }
        }
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        for frame in &frames {
            self.write.write_all(frame)?;
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
            // The verdict read is the one upstream read this thread performs itself;
            // bound it so a stalled replica cannot wedge the client's request. The
            // upstream reader's reads after it wait without a deadline.
            let timeout = self.cluster().connect_timeout();
            let (stream, reader) = dial(addr, Some(timeout)).map_err(|_| ())?;
            stream.set_read_timeout(None).map_err(|_| ())?;
            let pending = Arc::new(Mutex::new(PendingMap::default()));
            let instruments = self.cluster().metrics().replica(addr);
            let reader = {
                let shared = Arc::clone(&self.shared);
                let pending = Arc::clone(&pending);
                let instruments = instruments.clone();
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    read_upstream(reader, &addr, &shared, &pending, &instruments);
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
            &mut WriteBudget::default(),
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
                &mut WriteBudget::default(),
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
                self.shared
                    .fold_fan_leg(group_id, None, &mut WriteBudget::default());
            }
        }
    }

    /// Route and forward one decoded request.
    fn dispatch(&mut self, envelope: RequestEnvelope, payload: ForwardPayload<'_>) {
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
                    &mut WriteBudget::default(),
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
                let handle =
                    fit_model_key(corpus_fingerprint(corpus), config, *features, *composition)
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
                        self.shared.send_error(
                            Some(id),
                            "invalid_request",
                            reason,
                            &mut WriteBudget::default(),
                        );
                        return;
                    }
                };
                // The derived model is created wherever the parent lives (placement
                // first — the parent may itself be a derivative off its ring slot).
                let derived = updated_model_key(parent.key(), corpus).to_hex();
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
                    self.shared.send_error(
                        Some(id),
                        "invalid_request",
                        reason,
                        &mut WriteBudget::default(),
                    );
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
}

impl Drop for Forwarder {
    /// Orderly teardown once the client reader ends: stop treating upstream EOFs as
    /// deaths, close every upstream, and join their readers, the only other writers.
    fn drop(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let addrs: Vec<String> = self.upstreams.keys().cloned().collect();
        for addr in addrs {
            self.discard_upstream(&addr);
        }
    }
}

/// One upstream connection's reader: correlate responses with pending requests, run
/// write-through replication for tracked handles, fold fan-out legs, and — if the
/// replica dies with requests in flight — drain them to `replica_unavailable`.
///
/// Everything it writes to the client draws on one [`WriteBudget`], refilled whenever
/// a read empties the link: the reader spends at most
/// [`REPLY_WRITE_TIMEOUT`](gem_serve::framing::REPLY_WRITE_TIMEOUT) writing to a slow
/// client while the link behind it backs up. A replica's reply can be blocked on the
/// link only while it is backed up, so the router gives up on a client that stops
/// reading, or drains a trickle, before any replica gives up on the link, and the
/// teardown stays orderly.
fn read_upstream(
    reader: FrameReader,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
) {
    let mut budget = WriteBudget::default();
    read_upstream_frames(reader, addr, shared, pending, instruments, &mut budget);
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
                    &mut budget,
                );
            }
            Pending::Fan { group, .. } => shared.fold_fan_leg(group, None, &mut budget),
        }
    }
}

/// Write the frames gathered so far to the client and clear them; `false` once the
/// client connection is dead.
fn flush_forwarded(shared: &ConnShared, forwarded: &mut Vec<u8>, budget: &mut WriteBudget) -> bool {
    let written = shared.write(forwarded, budget);
    forwarded.clear();
    written
}

/// The upstream reader loop. Streamed `embed_rows` frames pass through to the client
/// **without retiring** the in-flight entry — the closing `embed_done` (or a wrapped
/// JSON response) does that. Every frame one read completes is forwarded in one write
/// once that read's frames are handled (a successful tracked reply first writes the
/// frames before it, so only the reply itself waits for its replication). Returns when
/// the client connection dies, or when the upstream EOFs, fails, or violates framing
/// (indistinguishable from corruption, so it is treated as a replica death and
/// everything in flight drains to the retryable error).
fn read_upstream_frames(
    mut reader: FrameReader,
    addr: &str,
    shared: &Arc<ConnShared>,
    pending: &Arc<Mutex<PendingMap>>,
    instruments: &ReplicaInstruments,
    budget: &mut WriteBudget,
) {
    // The frames this read step completed, forwarded verbatim in one write.
    let mut forwarded = Vec::new();
    let forward = |forwarded: &mut Vec<u8>, frame: &binary::Frame| {
        let _ = binary::push_frame(forwarded, frame.kind, &frame.payload);
    };
    loop {
        let frame = match reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if !forwarded.is_empty() && !flush_forwarded(shared, &mut forwarded, budget) {
                    // The client is gone: stop reading, so the replica's writes to this
                    // link fail once the client reader closes it, instead of the
                    // replica computing replies nobody will read.
                    return;
                }
                match reader.read() {
                    // A read with room to spare emptied the link: the replica cannot be
                    // blocked on it now, so the client gets a whole budget again.
                    Ok(received) if received.emptied => *budget = WriteBudget::default(),
                    Ok(_) => {}
                    Err(_) => return,
                }
                continue;
            }
            Err(_) => {
                flush_forwarded(shared, &mut forwarded, budget);
                return;
            }
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
                    forward(&mut forwarded, &frame);
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
                        forward(&mut forwarded, &frame);
                    }
                    // Embeds never fan out; fold defensively so a confused replica
                    // cannot wedge a fan group forever.
                    Some(Pending::Fan { started, group }) => {
                        instruments.latency.record(started.elapsed());
                        shared.fold_fan_leg(group, None, budget);
                    }
                }
            }
            binary::KIND_RESP_JSON => {
                let Some(id) = frame.correlation_id() else {
                    continue;
                };
                let entry = lock_or_recover(pending).entries.remove(&id);
                match entry {
                    None => {}
                    Some(Pending::Forward { started }) => {
                        instruments.latency.record(started.elapsed());
                        forward(&mut forwarded, &frame);
                    }
                    Some(Pending::Tracked { started, handle }) => {
                        instruments.latency.record(started.elapsed());
                        if success_body(&frame).is_some() {
                            // Replication waits on other replicas: what this read
                            // completed before the reply leaves first.
                            if !flush_forwarded(shared, &mut forwarded, budget) {
                                return;
                            }
                            // Write-through BEFORE the client sees success: once the
                            // response is out, fail-over must already be covered.
                            shared.cluster.record_placement(&handle, addr);
                            let _ = shared.cluster.replicate(&handle, addr);
                        }
                        forward(&mut forwarded, &frame);
                    }
                    Some(Pending::Fan { started, group }) => {
                        instruments.latency.record(started.elapsed());
                        shared.fold_fan_leg(group, success_body(&frame), budget);
                    }
                }
            }
            _ => {} // an unknown response kind is uncorrelated noise
        }
    }
}

/// The body of a successful reply from its `resp_json` frame: `None` for an error reply
/// or one that does not decode. Only a tracked reply's outcome and a fan-out leg's body
/// are read; every other reply forwards undecoded.
fn success_body(frame: &binary::Frame) -> Option<ResponseBody> {
    match binary::decode_response_frame(frame, &mut binary::EmbedPartials::new()) {
        Ok(Some(envelope)) if !matches!(envelope.body, ResponseBody::Error { .. }) => {
            Some(envelope.body)
        }
        _ => None,
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
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpListener;
    use std::time::Duration;

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
    fn chunked_fits_through_the_router_are_placed_under_the_offline_model_key() {
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
        // The router keyed its placement from the reassembled corpus — it must land on
        // the same hex as the offline derivation, or fail-over would look the model up
        // under a name nobody else computes.
        assert_eq!(
            cluster.placement_of(&expected.to_hex()),
            Some(replica.addr().to_string()),
            "placement recorded under the key of the reassembled corpus"
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
    fn a_frame_sent_in_the_same_write_as_the_hello_is_served() {
        let (replica, replica_join) = real_replica();
        let (_cluster, handle, addr, thread) = router_over(replica.addr());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let stats = RequestEnvelope::new(5, RequestBody::Stats);
        let frame = binary::encode_request_frame(&stats).expect("frame");
        stream
            .write_all(&[binary::hello_line().as_bytes(), &frame].concat())
            .expect("hello and frame in one write");
        let mut reader = BufReader::new(stream);
        let mut accept = String::new();
        reader.read_line(&mut accept).expect("accept");
        assert_eq!(
            binary::parse_accept(&accept),
            Some(gem_proto::PROTOCOL_VERSION)
        );
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
        let reply = binary::decode_response_frame(&frame, &mut binary::EmbedPartials::new())
            .expect("decode")
            .expect("a complete reply");
        assert_eq!(reply.in_reply_to, Some(5));
        assert!(matches!(reply.body, ResponseBody::Stats(_)), "{reply:?}");
        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn a_client_that_stops_reading_is_cut_off_without_blaming_the_replica() {
        let (replica, replica_join) = real_replica();
        let (cluster, handle, addr, thread) = router_over(replica.addr());
        let config = GemConfig::fast();
        let corpus = test_corpus();
        let mut client =
            GemClient::connect_timeout(addr, Duration::from_secs(30)).expect("connect");
        let fitted = client
            .fit(&corpus, &config, FeatureSet::ds())
            .expect("fit through the router");

        // Wide embeds of one-value columns: ~12 MiB of replies from requests the router
        // reads in full, far more than the client's socket buffers hold; the stalled
        // client never reads a byte.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .write_all(binary::hello_line().as_bytes())
            .expect("hello");
        let mut stalled_reader = BufReader::new(stalled.try_clone().expect("clone"));
        let mut accept = String::new();
        stalled_reader.read_line(&mut accept).expect("accept");
        let wide: Vec<GemColumn> = (0..2048)
            .map(|i| GemColumn::new(vec![f64::from(i) * 0.5], format!("q{i}")))
            .collect();
        for id in 1..=48 {
            let frame =
                binary::encode_embed_frame(id, &fitted.handle.to_hex(), &wide).expect("encode");
            stalled.write_all(&frame).expect("pipeline");
        }
        // Once the bytes waiting on the stalled client stop growing, its window is
        // closed and the router's writes to it are about to block.
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut peeked = vec![0u8; 1 << 20];
        let mut waiting = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            let now = stalled.peek(&mut peeked).expect("peek");
            if now > 0 && now == waiting {
                break;
            }
            waiting = now;
        }

        // Another client is served within one write timeout, even if the replica's
        // executors blocked on the stalled client's upstream link meanwhile.
        let started = Instant::now();
        let served = client.embed(fitted.handle, &corpus).expect("embed");
        let waited = started.elapsed();
        let direct = gem_core::GemModel::fit(&corpus, &config, FeatureSet::ds())
            .and_then(|model| model.transform(&corpus))
            .expect("in-process embed");
        assert_eq!(served.matrix, direct.matrix);
        assert!(
            waited < gem_serve::framing::REPLY_WRITE_TIMEOUT + Duration::from_secs(3),
            "waited {waited:?}"
        );

        // Reading now would let the blocked write finish, so wait it out first. The
        // router shut the stalled connection down: after what it buffered, EOF.
        let timeout = gem_serve::framing::REPLY_WRITE_TIMEOUT + Duration::from_secs(2);
        std::thread::sleep(timeout.saturating_sub(started.elapsed()));
        let mut buffered = Vec::new();
        stalled_reader
            .read_to_end(&mut buffered)
            .expect("the router closes the stalled connection");
        assert!(
            buffered.len() < 48 * wide.len() * 15 * 8,
            "{} bytes",
            buffered.len()
        );

        // Closing the stalled client's upstream link was an orderly teardown: the
        // replica is still up and nothing was counted against it.
        assert_eq!(
            cluster.replica_states(),
            vec![(replica.addr().to_string(), ReplicaState::Up)]
        );
        let text = cluster.metrics().render();
        for line in [
            "router_no_replica_total 0".to_string(),
            "router_failover_moves_total 0".to_string(),
            format!(
                "router_replica_errors_total{{replica=\"{}\"}} 0",
                replica.addr()
            ),
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing `{line}` in:\n{text}"
            );
        }
        handle.shutdown();
        let _ = thread.join();
        replica.shutdown();
        let _ = replica_join.join();
    }

    #[test]
    fn replies_read_with_a_fit_reply_do_not_wait_for_its_replication() {
        // A stand-in owner answers a pipelined fit and embed in one write, the embed's
        // frames first, then leaves the replication pull that the fit's success starts
        // unanswered; a second member gives the fit a ring successor to replicate to.
        let owner = TcpListener::bind(("127.0.0.1", 0)).expect("bind owner");
        let successor = TcpListener::bind(("127.0.0.1", 0)).expect("bind successor");
        let owner_addr = owner.local_addr().expect("owner addr").to_string();
        let members = [
            owner_addr.clone(),
            successor.local_addr().expect("successor addr").to_string(),
        ];
        let hold = Duration::from_secs(2);
        let cluster = Arc::new(Cluster::with_options(
            &members,
            Arc::new(RouterMetrics::new()),
            8,
            1,
            Duration::from_millis(50),
            hold,
        ));
        // A fit and an embed handle that the ring places on the owner.
        let config = GemConfig::fast();
        let on_owner = |handle: &str| cluster.route_handle(handle) == Some(owner_addr.clone());
        let (corpus, fit_handle) = (0..64)
            .map(|shift| {
                let corpus: Vec<GemColumn> = test_corpus()
                    .into_iter()
                    .map(|c| {
                        GemColumn::new(
                            c.values.iter().map(|v| v + f64::from(shift)).collect(),
                            c.header,
                        )
                    })
                    .collect();
                let handle =
                    fit_model_key(corpus_fingerprint(&corpus), &config, FeatureSet::ds(), None)
                        .to_hex();
                (corpus, handle)
            })
            .find(|(_, handle)| on_owner(handle))
            .expect("a corpus placed on the owner");
        let embed_handle = (1..64u64)
            .map(|i| format!("{i:016x}-{i:016x}"))
            .find(|handle| on_owner(handle))
            .expect("a handle placed on the owner");

        let (done, wait_done) = std::sync::mpsc::channel::<()>();
        let fitted = fit_handle.clone();
        let owner_thread = std::thread::spawn(move || {
            let (mut link, _) = owner.accept().expect("the router's upstream");
            let mut reader = BufReader::new(link.try_clone().expect("clone"));
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("hello");
            link.write_all(binary::accept_line().as_bytes())
                .expect("accept");
            let mut assembler = binary::FrameAssembler::new();
            let mut requests = 0;
            while requests < 2 {
                if assembler.next_frame().expect("framing").is_some() {
                    requests += 1;
                    continue;
                }
                let buffered = reader.fill_buf().expect("read");
                let read = buffered.len();
                assembler.push(buffered);
                reader.consume(read);
            }
            let mut replies = binary::embed_rows_frame(2, "memory_cache", 1, &[0.5]).expect("rows");
            replies.extend(binary::embed_done_frame(2, "memory_cache", 1, 1).expect("done"));
            replies.extend(encode_reply(
                Some(1),
                ResponseBody::Fitted {
                    handle: fitted,
                    dim: 1,
                    served_from: "cold_fit".to_string(),
                },
            ));
            link.write_all(&replies).expect("replies");
            // The listener stays open, so the replication pull connects and then waits
            // out `hold` for a hello verdict that never comes.
            let _ = wait_done.recv();
            drop((owner, link));
        });
        let server = RouterServer::bind(Arc::clone(&cluster), ("127.0.0.1", 0)).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(binary::hello_line().as_bytes())
            .expect("hello");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut accept = String::new();
        reader.read_line(&mut accept).expect("accept");
        let fit = RequestEnvelope::new(
            1,
            RequestBody::Fit {
                corpus,
                config,
                features: FeatureSet::ds(),
                composition: None,
            },
        );
        let mut pipelined = binary::encode_request_frame(&fit).expect("fit frame");
        let query = [GemColumn::new(vec![1.0], "q")];
        pipelined
            .extend(binary::encode_embed_frame(2, &embed_handle, &query).expect("embed frame"));
        let started = Instant::now();
        stream.write_all(&pipelined).expect("pipeline");

        let mut assembler = binary::FrameAssembler::new();
        let mut partials = binary::EmbedPartials::new();
        let mut arrived = Vec::new();
        while arrived.len() < 2 {
            if let Some(frame) = assembler.next_frame().expect("framing") {
                if let Some(reply) =
                    binary::decode_response_frame(&frame, &mut partials).expect("decode")
                {
                    arrived.push((reply.in_reply_to, started.elapsed()));
                }
                continue;
            }
            let buffered = reader.fill_buf().expect("read");
            assert!(!buffered.is_empty(), "the router must answer");
            let read = buffered.len();
            assembler.push(buffered);
            reader.consume(read);
        }
        let _ = done.send(());
        let (first, embed_at) = arrived[0];
        let (second, fit_at) = arrived[1];
        assert_eq!((first, second), (Some(2), Some(1)), "{arrived:?}");
        assert!(
            embed_at < hold / 2,
            "the embed waited for replication: {arrived:?}"
        );
        assert!(fit_at >= hold / 2, "replication was not held: {arrived:?}");

        handle.shutdown();
        let _ = thread.join();
        let _ = owner_thread.join();
        drop(successor);
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
