//! The client side of the serving protocol: [`GemClient`] drives a `gem-served` (or any
//! [`crate::net::GemServer`]) over TCP with typed calls — `fit` returns a
//! [`crate::ModelHandle`], `embed` takes one, and server-side failures come back as
//! [`ClientError::Server`] carrying the taxonomy's stable code, so callers branch on
//! `err.code() == Some("unknown_model")` instead of parsing prose.
//!
//! ## Two modes on one connection
//!
//! * **Lockstep** — the typed calls ([`GemClient::fit`], [`GemClient::embed`], …) send
//!   one request and block for its response. Simple, and exactly as fast as one request
//!   at a time can be.
//! * **Pipelined** — [`GemClient::send`] issues a raw [`RequestBody`] and returns its
//!   correlation id immediately; many requests ride the connection concurrently and
//!   [`GemClient::recv_any`] yields responses **in whatever order the server finishes
//!   them** (the protocol's out-of-order contract), each correlated back to its id
//!   through the client's in-flight map. A cheap `Embed` pipelined behind a slow `Fit`
//!   returns first instead of queueing behind it. The two modes compose: a typed call
//!   issued while pipelined requests are outstanding parks any foreign responses it
//!   reads and [`GemClient::recv_any`] hands them out afterwards.
//!
//! ## The handshake
//!
//! [`GemClient::connect`] sends the `gem_proto::binary` hello as the connection's first
//! line and, once the server accepts, speaks length-prefixed frames — f64 matrices
//! cross the wire as raw little-endian IEEE-754 bytes (bit-exact both ways, no hex
//! strings, no per-value allocation), oversized `Fit` corpora go up as chunked uploads
//! ([`GemClient::with_chunk_bytes`]), and `Embed` responses stream back as row frames
//! that are reassembled here. A server that declines the hello answers one typed error
//! line, which `connect` returns as [`ClientError::Server`]. Replies are read through
//! the same [`FrameReader`] the servers read requests with; a read that times out (see
//! [`GemClient::connect_timeout`]) is returned as the [`ClientError::Io`] it is.

use crate::framing::{dial, FrameReader};
use crate::handle::ModelHandle;
use crate::net::served_from_of;
use crate::ServedFrom;
use gem_core::{Composition, FeatureSet, GemColumn, GemConfig};
use gem_json::Json;
use gem_numeric::Matrix;
use gem_proto::{self as proto, binary, RequestBody, ResponseBody};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// Errors from a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, write, read, or the server closed mid-response).
    Io(std::io::Error),
    /// The server's bytes were not a valid protocol frame.
    Proto(proto::ProtoError),
    /// The server answered with a typed error body.
    Server {
        /// Stable code from the serving/protocol taxonomy (`unknown_model`, …).
        code: String,
        /// Self-explanatory message from the server.
        message: String,
        /// Server-suggested backoff before retrying, when the code warrants one
        /// (today: `overloaded` shed responses).
        retry_after_ms: Option<u64>,
    },
    /// The response decoded but did not fit the call (wrong variant, uncorrelatable or
    /// unknown id, unknown provenance string) — a protocol bug, not an operational
    /// condition.
    Unexpected {
        /// What was wrong.
        detail: String,
    },
}

impl ClientError {
    /// The server's stable error code, when this is a [`ClientError::Server`].
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }

    /// The server's retry-after hint, when this is a [`ClientError::Server`] that
    /// carried one (an `overloaded` shed response).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "bad response from server: {e}"),
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => match retry_after_ms {
                Some(ms) => write!(f, "server error [{code}]: {message} (retry after {ms} ms)"),
                None => write!(f, "server error [{code}]: {message}"),
            },
            ClientError::Unexpected { detail } => write!(f, "unexpected response: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<proto::ProtoError> for ClientError {
    fn from(e: proto::ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// The outcome of a `fit` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitOutcome {
    /// Handle addressing the fitted model in later calls — on this connection, on
    /// others, and across server restarts when a store is attached.
    pub handle: ModelHandle,
    /// Embedding dimensionality of the model.
    pub dim: usize,
    /// Where the model came from ([`ServedFrom::ColdFit`] when this call paid the fit).
    pub served_from: ServedFrom,
}

/// The outcome of an `embed` / `embed_corpus` call.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedOutcome {
    /// One embedding row per query column, bit-identical to the server's matrix.
    pub matrix: Matrix,
    /// Where the model came from.
    pub served_from: ServedFrom,
}

/// The outcome of a `push_model` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// The handle the snapshot named, now resolvable on the server.
    pub handle: ModelHandle,
    /// Embedding dimensionality of the installed model.
    pub dim: usize,
}

/// The outcome of a `pull_model` call.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutcome {
    /// The handle the snapshot names.
    pub handle: ModelHandle,
    /// The serialized model — the bit-exact `gem-store` envelope, ready to
    /// [`GemClient::push_model`] to another replica or file into a store directory.
    pub snapshot: Json,
    /// Where the model came from.
    pub served_from: ServedFrom,
}

/// The outcome of a `health` probe: the replica's admission-control view of itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthOutcome {
    /// `ok`, `degraded`, or `overloaded`.
    pub state: HealthState,
    /// Frames waiting for an executor at probe time.
    pub queue_depth: u64,
    /// The bound the work queue sheds at.
    pub queue_capacity: u64,
    /// Executors inside a request at probe time (includes the probe's own).
    pub busy_workers: u64,
    /// Total executor threads.
    pub workers: u64,
    /// Suggested backoff before sending real work, milliseconds (`None` when `ok`).
    pub retry_after_ms: Option<u64>,
}

/// The three health states a replica reports, ordered from healthy to shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Accepting work normally.
    Ok,
    /// Still accepting, but the queue is building or every executor is busy — route
    /// new work elsewhere when possible.
    Degraded,
    /// The queue is full; new requests are being shed with `overloaded` errors.
    Overloaded,
}

impl HealthState {
    /// The wire name (`"ok"` / `"degraded"` / `"overloaded"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
        }
    }

    fn from_wire_name(name: &str) -> Option<Self> {
        match name {
            "ok" => Some(HealthState::Ok),
            "degraded" => Some(HealthState::Degraded),
            "overloaded" => Some(HealthState::Overloaded),
            _ => None,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One correlated reply from a pipelined connection (see [`GemClient::recv_any`]).
#[derive(Debug)]
pub struct PipelinedReply {
    /// The id of the request this reply answers (as returned by [`GemClient::send`]).
    pub id: u64,
    /// The response body, with typed server error bodies already raised to
    /// [`ClientError::Server`].
    pub outcome: Result<ResponseBody, ClientError>,
}

/// A protocol client over one TCP connection, usable lockstep (typed calls) or
/// pipelined ([`GemClient::send`] / [`GemClient::recv_any`]) — see the module docs.
/// One client per thread; the server multiplexes any number of connections onto its
/// executor pool.
#[derive(Debug)]
pub struct GemClient {
    reader: FrameReader,
    writer: TcpStream,
    next_id: u64,
    /// Ids sent but not yet answered.
    in_flight: HashSet<u64>,
    /// Correlated responses read while waiting for a different id, in arrival order.
    parked: VecDeque<(u64, ResponseBody)>,
    /// Streamed embed rows accumulated per in-flight id.
    partials: binary::EmbedPartials,
    /// Corpus payloads above this many wire bytes go up as chunked uploads.
    chunk_bytes: usize,
}

impl GemClient {
    /// Connect to a serving address (`host:port`) and complete the hello handshake.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection cannot be established,
    /// [`ClientError::Server`] when the server declines the hello (its typed error),
    /// and [`ClientError::Unexpected`] when its verdict does not decode.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        dial(addr, None).map(Self::new)
    }

    /// [`GemClient::connect`] with a deadline on *every* socket operation: the connect
    /// itself, and each subsequent read and write. This is the constructor for control
    /// planes — a health prober or a router's snapshot-shipping path must observe a
    /// wedged replica as a typed [`ClientError::Io`] within the deadline, not hang on
    /// it forever. Every resolved address is tried before giving up.
    ///
    /// # Errors
    /// [`ClientError::Io`] when resolution yields nothing, no address accepts within
    /// `timeout`, or the handshake does not finish within it; otherwise as
    /// [`GemClient::connect`].
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: std::time::Duration,
    ) -> Result<Self, ClientError> {
        dial(addr, Some(timeout)).map(Self::new)
    }

    fn new((writer, reader): (TcpStream, FrameReader)) -> Self {
        GemClient {
            reader,
            writer,
            next_id: 1,
            in_flight: HashSet::new(),
            parked: VecDeque::new(),
            partials: binary::EmbedPartials::new(),
            chunk_bytes: binary::DEFAULT_CHUNK_BYTES,
        }
    }

    /// Set the chunk budget (in wire bytes) for corpus uploads: a `Fit`/`FitUpdate`
    /// whose corpus exceeds it is sent as a `begin_fit`/`corpus_chunk`/`end_fit`
    /// sequence instead of one giant frame. Values below 1 KiB are clamped up.
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Pipeline a request: write it and return its correlation id *without waiting for
    /// the response*. Collect responses — in server completion order, not send order —
    /// with [`GemClient::recv_any`].
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let chunk_bytes = self.chunk_bytes;
        // One frame normally; a corpus above the chunk budget becomes the
        // begin/chunk/end upload sequence.
        self.send_with(|id| {
            binary::encode_request_frames(&proto::RequestEnvelope::new(id, body), chunk_bytes)
        })
    }

    /// Allocate the next id, write the frames `encode` produces for it — each frame its
    /// own `write` on the unbuffered socket — and mark the id in flight.
    fn send_with(
        &mut self,
        encode: impl FnOnce(u64) -> Result<Vec<Vec<u8>>, proto::ProtoError>,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        for frame in encode(id)? {
            self.writer.write_all(&frame)?;
        }
        self.in_flight.insert(id);
        Ok(id)
    }

    /// How many pipelined requests are awaiting their response (parked responses —
    /// already received, not yet claimed — count as answered).
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Receive the next response in **server completion order**: a parked response if
    /// one is waiting, otherwise the next reply off the socket. The reply is correlated
    /// to its request id; typed server error bodies surface per-reply in
    /// [`PipelinedReply::outcome`], so one failed request never poisons the others.
    ///
    /// # Errors
    /// [`ClientError::Unexpected`] when nothing is in flight (or the server answers an
    /// id this client never sent, or an uncorrelatable framing error arrives);
    /// transport errors otherwise.
    pub fn recv_any(&mut self) -> Result<PipelinedReply, ClientError> {
        let (id, body) = match self.parked.pop_front() {
            Some(reply) => reply,
            None => {
                if self.in_flight.is_empty() {
                    return Err(ClientError::Unexpected {
                        detail: "recv_any with no requests in flight".to_string(),
                    });
                }
                self.read_correlated()?
            }
        };
        Ok(PipelinedReply {
            id,
            outcome: raise_errors(body),
        })
    }

    /// Read one complete response off the socket — however many frames it takes to
    /// finish one (streamed embed row frames accumulate in [`binary::EmbedPartials`]
    /// until their `embed_done`) — and correlate it against the in-flight set. A read
    /// timeout (`connect_timeout`'s deadline) and the server closing the connection
    /// first surface as the `io::Error`s they are.
    fn read_correlated(&mut self) -> Result<(u64, ResponseBody), ClientError> {
        let envelope = loop {
            let Some(frame) = self.reader.next_frame()? else {
                self.reader.read()?;
                continue;
            };
            // A row frame decodes to nothing yet; keep accumulating.
            if let Some(envelope) = binary::decode_response_frame(&frame, &mut self.partials)? {
                break envelope;
            }
        };
        let Some(id) = envelope.in_reply_to else {
            // An uncorrelatable framing error: the server could not tell which request
            // the offending frame was. This client only writes well-formed frames, so
            // something corrupted the stream — fail loudly rather than guess.
            return Err(match envelope.body {
                ResponseBody::Error {
                    code,
                    message,
                    retry_after_ms,
                } => ClientError::Server {
                    code,
                    message,
                    retry_after_ms,
                },
                _ => ClientError::Unexpected {
                    detail: "response with in_reply_to null and a non-error body".to_string(),
                },
            });
        };
        if !self.in_flight.remove(&id) {
            return Err(ClientError::Unexpected {
                detail: format!("response for id {id}, which is not in flight"),
            });
        }
        Ok((id, envelope.body))
    }

    /// Send one request body and block for *its* response (responses to other in-flight
    /// ids read along the way are parked for [`GemClient::recv_any`]). Error bodies
    /// become [`ClientError::Server`].
    fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let id = self.send(body)?;
        self.wait_for(id)
    }

    /// Block for the response to `id`, parking responses to other in-flight ids.
    fn wait_for(&mut self, id: u64) -> Result<ResponseBody, ClientError> {
        // A freshly allocated id cannot already have a parked response: ids are
        // monotonically increasing and parked entries were correlated against earlier
        // in-flight ids.
        debug_assert!(self.parked.iter().all(|(parked_id, _)| *parked_id != id));
        loop {
            let (got, body) = self.read_correlated()?;
            if got == id {
                return raise_errors(body);
            }
            self.parked.push_back((got, body));
        }
    }

    /// Fit (or reuse) the model for `corpus` and return its handle. Idempotent: an
    /// identical corpus + configuration returns an identical handle without re-fitting.
    ///
    /// # Errors
    /// [`ClientError::Server`] with code `fit_failed` when the pipeline rejects the
    /// corpus; transport errors otherwise.
    pub fn fit(
        &mut self,
        corpus: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> Result<FitOutcome, ClientError> {
        self.fit_with_composition(corpus, config, features, None)
    }

    /// [`GemClient::fit`] with an explicit composition override.
    ///
    /// # Errors
    /// See [`GemClient::fit`].
    pub fn fit_with_composition(
        &mut self,
        corpus: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
        composition: Option<Composition>,
    ) -> Result<FitOutcome, ClientError> {
        match self.call(RequestBody::Fit {
            corpus: corpus.to_vec(),
            config: config.clone(),
            features,
            composition,
        })? {
            ResponseBody::Fitted {
                handle,
                dim,
                served_from,
            } => Ok(FitOutcome {
                handle: ModelHandle::from_hex(&handle).ok_or_else(|| ClientError::Unexpected {
                    detail: format!("malformed handle `{handle}` in fit response"),
                })?,
                dim: dim as usize,
                served_from: served_from_of(&served_from)?,
            }),
            other => Err(unexpected("fitted", &other)),
        }
    }

    /// Fold `new_columns` (the new columns only, not the full grown corpus) into the
    /// fitted model `handle` names, returning the derived model's handle. The server
    /// freezes the parent's components — no EM re-run, old-column embeddings stay
    /// bit-identical under the new handle, and the parent is recorded as lineage in
    /// the server's store tier. Idempotent like `fit`: the same parent + growth
    /// returns the same handle from cache. Chains compose: the returned handle is a
    /// valid parent for the next `fit_update`.
    ///
    /// # Errors
    /// [`ClientError::Server`] with code `unknown_model` when the server no longer
    /// holds the parent (re-`fit` the full corpus), `fit_failed` when the update is
    /// rejected (e.g. empty growth); transport errors otherwise.
    pub fn fit_update(
        &mut self,
        handle: ModelHandle,
        new_columns: &[GemColumn],
    ) -> Result<FitOutcome, ClientError> {
        match self.call(RequestBody::FitUpdate {
            handle: handle.to_hex(),
            corpus: new_columns.to_vec(),
        })? {
            ResponseBody::Fitted {
                handle,
                dim,
                served_from,
            } => Ok(FitOutcome {
                handle: ModelHandle::from_hex(&handle).ok_or_else(|| ClientError::Unexpected {
                    detail: format!("malformed handle `{handle}` in fit_update response"),
                })?,
                dim: dim as usize,
                served_from: served_from_of(&served_from)?,
            }),
            other => Err(unexpected("fitted", &other)),
        }
    }

    /// Embed `queries` against the model `handle` names. The handle is resolved, never
    /// refitted: embedding through a handle the server no longer holds fails with code
    /// `unknown_model` (re-`fit` and retry).
    ///
    /// # Errors
    /// [`ClientError::Server`] with `unknown_model` / `transform_failed`; transport
    /// errors otherwise.
    pub fn embed(
        &mut self,
        handle: ModelHandle,
        queries: &[GemColumn],
    ) -> Result<EmbedOutcome, ClientError> {
        // Encoded straight from the borrowed columns: no owned copy of the queries.
        let handle = handle.to_hex();
        let id =
            self.send_with(|id| Ok(vec![binary::encode_embed_frame(id, &handle, queries)?]))?;
        match self.wait_for(id)? {
            ResponseBody::Embedded {
                matrix,
                served_from,
            } => Ok(EmbedOutcome {
                matrix,
                served_from: served_from_of(&served_from)?,
            }),
            other => Err(unexpected("embedded", &other)),
        }
    }

    /// One-shot: embed `queries` (or the corpus itself) with any registry method by
    /// name — the path for methods without a fit/transform seam.
    ///
    /// # Errors
    /// [`ClientError::Server`] with `unknown_method` / `invalid_request` / `fit_failed`;
    /// transport errors otherwise.
    pub fn embed_corpus(
        &mut self,
        method: &str,
        corpus: &[GemColumn],
        queries: Option<&[GemColumn]>,
        labels: Option<&[String]>,
    ) -> Result<EmbedOutcome, ClientError> {
        match self.call(RequestBody::EmbedCorpus {
            method: method.to_string(),
            corpus: corpus.to_vec(),
            queries: queries.map(<[GemColumn]>::to_vec),
            labels: labels.map(<[String]>::to_vec),
        })? {
            ResponseBody::Embedded {
                matrix,
                served_from,
            } => Ok(EmbedOutcome {
                matrix,
                served_from: served_from_of(&served_from)?,
            }),
            other => Err(unexpected("embedded", &other)),
        }
    }

    /// Install a model snapshot (pulled from another replica, or read from a
    /// `gem-store` file) on the server. The corpus never crosses the wire and the
    /// server refits nothing.
    ///
    /// # Errors
    /// [`ClientError::Server`] with `invalid_request` for snapshots that fail store
    /// validation; transport errors otherwise.
    pub fn push_model(&mut self, snapshot: &Json) -> Result<PushOutcome, ClientError> {
        match self.call(RequestBody::PushModel {
            snapshot: snapshot.clone(),
        })? {
            ResponseBody::Pushed { handle, dim } => Ok(PushOutcome {
                handle: ModelHandle::from_hex(&handle).ok_or_else(|| ClientError::Unexpected {
                    detail: format!("malformed handle `{handle}` in push response"),
                })?,
                dim: dim as usize,
            }),
            other => Err(unexpected("pushed", &other)),
        }
    }

    /// Fetch the serialized snapshot of the model `handle` names — bit-exact, suitable
    /// for [`GemClient::push_model`] to another replica.
    ///
    /// # Errors
    /// [`ClientError::Server`] with `unknown_model` when the handle resolves in neither
    /// tier; transport errors otherwise.
    pub fn pull_model(&mut self, handle: ModelHandle) -> Result<SnapshotOutcome, ClientError> {
        match self.call(RequestBody::PullModel {
            handle: handle.to_hex(),
        })? {
            ResponseBody::Snapshot {
                handle,
                snapshot,
                served_from,
            } => Ok(SnapshotOutcome {
                handle: ModelHandle::from_hex(&handle).ok_or_else(|| ClientError::Unexpected {
                    detail: format!("malformed handle `{handle}` in snapshot response"),
                })?,
                snapshot,
                served_from: served_from_of(&served_from)?,
            }),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Fetch the server's cumulative statistics.
    ///
    /// # Errors
    /// Transport errors; the server never rejects a stats request.
    pub fn stats(&mut self) -> Result<proto::WireStats, ClientError> {
        match self.call(RequestBody::Stats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Probe the replica's health (`ok|degraded|overloaded`, queue depth, retry hint).
    /// Answered by the serving front-end without touching the model cache, so it stays
    /// cheap even when the replica is saturated — the probe a load balancer polls.
    ///
    /// # Errors
    /// Transport errors, or [`ClientError::Unexpected`] when the server reports a
    /// health state this client does not know.
    pub fn health(&mut self) -> Result<HealthOutcome, ClientError> {
        match self.call(RequestBody::Health)? {
            ResponseBody::Health {
                state,
                queue_depth,
                queue_capacity,
                busy_workers,
                workers,
                retry_after_ms,
            } => Ok(HealthOutcome {
                state: HealthState::from_wire_name(&state).ok_or_else(|| {
                    ClientError::Unexpected {
                        detail: format!("unknown health state `{state}`"),
                    }
                })?,
                queue_depth,
                queue_capacity,
                busy_workers,
                workers,
                retry_after_ms,
            }),
            other => Err(unexpected("health", &other)),
        }
    }

    /// List every model the server can currently resolve (both tiers).
    ///
    /// # Errors
    /// [`ClientError::Server`] with `store_error` when the store tier cannot be listed.
    pub fn list_models(&mut self) -> Result<Vec<proto::WireModelInfo>, ClientError> {
        match self.call(RequestBody::ListModels)? {
            ResponseBody::Models(models) => Ok(models),
            other => Err(unexpected("models", &other)),
        }
    }

    /// Remove the model `handle` names from both server tiers. Returns whether it
    /// existed.
    ///
    /// # Errors
    /// Transport errors.
    pub fn evict(&mut self, handle: ModelHandle) -> Result<bool, ClientError> {
        match self.call(RequestBody::Evict {
            handle: handle.to_hex(),
        })? {
            ResponseBody::Evicted { existed } => Ok(existed),
            other => Err(unexpected("evicted", &other)),
        }
    }
}

/// Raise a typed error body to [`ClientError::Server`]; pass everything else through.
fn raise_errors(body: ResponseBody) -> Result<ResponseBody, ClientError> {
    match body {
        ResponseBody::Error {
            code,
            message,
            retry_after_ms,
        } => Err(ClientError::Server {
            code,
            message,
            retry_after_ms,
        }),
        body => Ok(body),
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> ClientError {
    let got = match got {
        ResponseBody::Fitted { .. } => "fitted",
        ResponseBody::Embedded { .. } => "embedded",
        ResponseBody::Pushed { .. } => "pushed",
        ResponseBody::Snapshot { .. } => "snapshot",
        ResponseBody::Stats(_) => "stats",
        ResponseBody::Health { .. } => "health",
        ResponseBody::Models(_) => "models",
        ResponseBody::Evicted { .. } => "evicted",
        ResponseBody::Error { .. } => "error",
    };
    ClientError::Unexpected {
        detail: format!("wanted a `{wanted}` response, got `{got}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    #[test]
    fn a_stalled_reply_is_a_timeout_not_a_hang() {
        // A stand-in server accepts the hello, writes half of a reply frame and stops,
        // holding the connection open until the client gave up.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (gave_up, wait_for_client) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut hello)
                .unwrap();
            stream.write_all(binary::accept_line().as_bytes()).unwrap();
            let reply = binary::embed_rows_frame(1, "memory_cache", 2, &[0.5; 2048]).unwrap();
            stream.write_all(&reply[..reply.len() / 2]).unwrap();
            let _ = wait_for_client.recv();
        });
        let deadline = Duration::from_millis(300);
        let mut client = GemClient::connect_timeout(addr, deadline).unwrap();
        let handle = ModelHandle::parse("00000000000000aa-00000000000000bb").unwrap();
        // The call runs on its own thread, so a client that hangs fails the test.
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let started = Instant::now();
            let outcome = client.embed(handle, &[GemColumn::values_only(vec![1.0])]);
            let _ = done.send((outcome, started.elapsed()));
        });
        let (outcome, waited) = returned
            .recv_timeout(deadline + Duration::from_secs(5))
            .expect("the embed returns instead of hanging");
        let _ = gave_up.send(());
        server.join().unwrap();
        match outcome {
            Err(ClientError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "{e}"
            ),
            other => panic!("expected a read timeout, got {other:?}"),
        }
        assert!(waited < deadline + Duration::from_secs(1), "{waited:?}");
    }
}
