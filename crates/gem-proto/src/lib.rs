//! # gem-proto
//!
//! The serving wire protocol: what `gem-served` speaks on a socket and `GemClient`
//! drives from the other end.
//!
//! * **The envelope model** (this module): versioned, id-correlated request and
//!   response envelopes with a compact JSON encoding ([`encode_request`],
//!   [`decode_response`], …) and bit-exact column and matrix payloads.
//! * **The wire** ([`binary`]): every connection opens with the
//!   [`binary::hello_line`] handshake; once accepted, messages are
//!   `[u32 len][u8 kind][payload]` frames. The f64-heavy shapes have binary layouts
//!   with raw little-endian IEEE-754 values, plus chunked corpus upload and streamed
//!   embed responses; every other shape rides a frame wrapping its JSON envelope.
//!
//! Shapes:
//!
//! * [`RequestEnvelope`] `{ id, version, body }` / [`ResponseEnvelope`]
//!   `{ id, version, body }` — `id` is chosen by the client and echoed verbatim in the
//!   response ([`ResponseEnvelope::in_reply_to`]); `version` is [`PROTOCOL_VERSION`] and
//!   a mismatch is rejected *before* the body is interpreted
//!   ([`ProtoError::VersionMismatch`]), mirroring `gem-store`'s header-first validation.
//! * [`RequestBody`] — the request shapes of the handle-based serving API: `Fit`
//!   (corpus + configuration → model handle), `Embed` (handle + query columns),
//!   `EmbedCorpus` (the one-shot any-method path), `PushModel` / `PullModel` (snapshot
//!   shipping between replicas), `Stats`, `ListModels`, `Evict`.
//! * [`ResponseBody`] — one success variant per request shape, plus `Error` carrying the
//!   serving taxonomy's stable `code` (e.g. `unknown_model`) and a human message.
//!
//! ## Correlation contract: responses arrive in any order
//!
//! The envelope `id` is the *only* correlation mechanism. A server may execute requests
//! from one connection concurrently and **must be assumed to answer out of order**: a
//! client that pipelines requests matches each response to its request by
//! `in_reply_to`, never by arrival position. (A lockstep client — one request in
//! flight at a time — observes no difference.) Each response carries exactly one
//! `in_reply_to`; ids should be unique among a connection's in-flight requests, or
//! replies to duplicates are indistinguishable.
//!
//! Error responses follow the same contract: a frame that fails to decode is answered
//! with an `Error` body whose `in_reply_to` is the id from the frame's correlation
//! header ([`binary::Frame::correlation_id`]) when it carries one, and **JSON `null`
//! otherwise** — a pipelined client can therefore never mis-correlate an
//! unattributable framing error with a real request (`id: 0` is a valid request id,
//! not an error sentinel).
//!
//! ## Snapshot shipping: `PushModel` / `PullModel`
//!
//! `PullModel {handle}` returns the model's serialized snapshot — byte-for-byte the
//! envelope `gem-store` files on disk (magic + format version + key + bit-exact model
//! payload) — and `PushModel {snapshot}` installs such a snapshot on a server under the
//! handle its header names. Together they let a replica acquire a handle **without
//! refitting and without the corpus ever crossing the wire**: models ship as
//! pre-verified artifacts, and because payloads are bit-exact, the pushed replica's
//! `Embed` output is bit-identical to the origin's.
//!
//! **Payload codecs are bit-exact.** Column values and embedding matrices cross the wire
//! as IEEE-754 bit patterns (`gem_json::bits`), not decimal — the corpus fingerprint
//! that addresses models hashes value *bits*, so a corpus decoded on the server must
//! fingerprint to exactly the key the client's corpus would produce locally, and an
//! embedding decoded on the client must equal (`==`) the server's matrix. This is the
//! same convention `gem-store` snapshots use on disk.

#![deny(missing_docs)]
#![warn(clippy::all)]

use gem_core::{Composition, FeatureSet, GemColumn, GemConfig};
use gem_json::{object, opt_u64_number, string, u64_number, FromJson, Json, JsonError, ToJson};
use gem_numeric::Matrix;
use std::fmt;

/// Version of the wire protocol. Bump on any incompatible envelope or body change; both
/// ends reject foreign versions before interpreting anything else.
///
/// History: 1 — the PR 4 lockstep protocol (in-order responses, numeric response `id`,
/// six request shapes). 2 — out-of-order responses correlated by id, response `id` may
/// be `null` (unattributable framing errors), `push_model`/`pull_model` bodies, and
/// `coalesced_fits` in stats. 3 — `fit_update` body (incremental corpus growth against
/// an existing handle) and the `fit_micros`/`em_iterations` fit-cost breakdown in stats.
/// 4 — `health` request/response (`ok|degraded|overloaded` + queue depth + retry-after
/// hint), `retry_after_ms` on error bodies (set when the server sheds load), and
/// per-shape latency quantiles (`latencies`) in stats.
/// 5 — the negotiated binary codec ([`binary`]): `gem-wire-binary` handshake lines,
/// length-prefixed frames with raw-IEEE-754 f64 payloads, chunked corpus upload
/// (`begin_fit`/`corpus_chunk`/`end_fit`), streamed embed responses
/// (`embed_rows`/`embed_done`). Version 5 servers later stopped answering JSON lines:
/// after the hello every message is a frame, and a first line that is not a hello is
/// refused with one typed error line, then the connection closes.
/// 6 — `expirations` removed from stats: the model cache no longer has a TTL (handles
/// are content hashes, so a resident model is never stale).
pub const PROTOCOL_VERSION: u64 = 6;

pub mod binary;

/// Errors decoding a protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was not a valid envelope (bad JSON, missing fields, unknown body type).
    Parse {
        /// What was wrong with it.
        message: String,
    },
    /// The envelope was written by a different protocol version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u64,
        /// Version this build speaks ([`PROTOCOL_VERSION`]).
        expected: u64,
    },
}

impl ProtoError {
    /// Stable machine-readable code, carried in error response bodies.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Parse { .. } => "protocol_error",
            ProtoError::VersionMismatch { .. } => "version_mismatch",
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Parse { message } => write!(f, "malformed protocol line: {message}"),
            ProtoError::VersionMismatch { found, expected } => write!(
                f,
                "protocol version {found} is not supported (this build speaks {expected})"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::Parse {
            message: e.to_string(),
        }
    }
}

/// One serving request body. See the crate docs for the protocol shape.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Fit (or reuse) the model for `corpus`; the response carries its handle.
    Fit {
        /// The corpus defining the model.
        corpus: Vec<GemColumn>,
        /// Pipeline configuration to fit with.
        config: GemConfig,
        /// Which evidence types the model uses.
        features: FeatureSet,
        /// Optional composition override applied on top of `config`.
        composition: Option<Composition>,
    },
    /// Embed `queries` against the model `handle` names. Carries no corpus, so the
    /// server can only *resolve* the handle — an unknown handle is a typed error, never
    /// a silent refit.
    Embed {
        /// Handle hex returned by an earlier `Fit`.
        handle: String,
        /// Columns to embed.
        queries: Vec<GemColumn>,
    },
    /// One-shot: embed with any registry method by name (the back-compat path for
    /// methods without a fit/transform seam).
    EmbedCorpus {
        /// Registry method name.
        method: String,
        /// The corpus defining the model / the embedding input.
        corpus: Vec<GemColumn>,
        /// Columns to embed; `None` embeds the corpus itself.
        queries: Option<Vec<GemColumn>>,
        /// Training labels for supervised methods.
        labels: Option<Vec<String>>,
    },
    /// Fold `corpus` (the *new* columns only) into the fitted model `handle` names,
    /// producing a derived model under a new handle without a from-scratch EM run: the
    /// parent's frozen GMM, scaler and embedder are reused and only the new columns'
    /// signatures are computed. The response is a `Fitted` carrying the derived handle;
    /// the server records the parent handle as lineage in its store tier. An unknown
    /// handle is a typed error, never a silent full fit.
    FitUpdate {
        /// Handle hex of the fitted model to grow.
        handle: String,
        /// The new columns being folded in (not the full grown corpus).
        corpus: Vec<GemColumn>,
    },
    /// Install a serialized model snapshot (the `gem-store` envelope, as returned by
    /// `PullModel` or read from a store file) under the handle its header names. The
    /// corpus never crosses the wire and nothing is refitted: the model ships as a
    /// pre-verified artifact.
    PushModel {
        /// The snapshot envelope (opaque here; validated against the store format by
        /// the server before any of it is interpreted).
        snapshot: Json,
    },
    /// Fetch the serialized snapshot of the model `handle` names, suitable for
    /// `PushModel`-ing to another replica or filing into a `gem-store` directory.
    PullModel {
        /// Handle hex of the model to ship.
        handle: String,
    },
    /// Report server statistics.
    Stats,
    /// Report the replica's health state (`ok|degraded|overloaded`) with queue depth
    /// and a retry-after hint — the cheap probe a load balancer or router polls. Health
    /// requests are answered from the network layer's own gauges without touching the
    /// model cache, so they stay cheap even when the replica is saturated.
    Health,
    /// List every resolvable model.
    ListModels,
    /// Remove the model `handle` names from both cache tiers.
    Evict {
        /// Handle hex of the model to remove.
        handle: String,
    },
}

/// Latency quantiles for one request shape, as they cross the wire in a stats body.
/// All values are integer microseconds (bucket upper bounds from the serving layer's
/// log-scaled histograms) — no floats, so the payload is trivially bit-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLatency {
    /// The request shape the series covers (`"fit"`, `"embed"`, …).
    pub shape: String,
    /// Requests of this shape observed since startup.
    pub count: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile end-to-end latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: u64,
}

/// Cumulative serving statistics as they cross the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Lookups served from resident memory.
    pub hits: u64,
    /// Lookups served by rehydrating a spilled model from the store tier.
    pub warm_starts: u64,
    /// Lookups that found the model in neither tier.
    pub misses: u64,
    /// Models evicted to respect the cache's capacity bound.
    pub evictions: u64,
    /// Duplicate in-flight fits coalesced onto another request's computation
    /// (single-flight: N concurrent fits of one handle pay one EM fit).
    pub coalesced_fits: u64,
    /// Evicted entries successfully written to the store tier.
    pub spills: u64,
    /// Store reads or writes that failed.
    pub store_errors: u64,
    /// Total microseconds spent inside `GemModel::fit` EM runs (cold fits only;
    /// cache hits, warm starts and incremental updates add nothing here).
    pub fit_micros: u64,
    /// Total EM iterations across those fits' winning restarts.
    pub em_iterations: u64,
    /// Models resident in the memory tier.
    pub resident_models: u64,
    /// Approximate bytes of the resident models.
    pub resident_bytes: u64,
    /// Snapshots in the store tier (`None` without a store).
    pub store_entries: Option<u64>,
    /// Total bytes of the store tier (`None` without a store).
    pub store_bytes: Option<u64>,
    /// Requests processed by the service.
    pub requests: u64,
    /// Per-shape end-to-end latency quantiles, in the order the server tracks shapes
    /// (empty when the server predates telemetry or has served nothing).
    pub latencies: Vec<WireLatency>,
}

/// One resolvable model, as listed in a `models` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireModelInfo {
    /// The model's handle hex.
    pub handle: String,
    /// `"memory"` or `"disk"` — the closest tier holding it.
    pub tier: String,
    /// Embedding dimensionality (known for resident models).
    pub dim: Option<u64>,
    /// Approximate resident bytes or snapshot file size.
    pub bytes: u64,
}

/// One serving response body: a success variant per request shape, or `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Outcome of a `Fit`.
    Fitted {
        /// Handle addressing the fitted model.
        handle: String,
        /// Embedding dimensionality of the model.
        dim: u64,
        /// Model provenance: `"cold_fit"`, `"memory_cache"` or `"disk_store"`.
        served_from: String,
    },
    /// Outcome of an `Embed` or `EmbedCorpus`.
    Embedded {
        /// The embedding matrix (bit-exact).
        matrix: Matrix,
        /// Model provenance (see `Fitted::served_from`).
        served_from: String,
    },
    /// Outcome of a `PushModel`: the snapshot was installed and its handle resolves.
    Pushed {
        /// Handle the snapshot's header named (now resolvable on this server).
        handle: String,
        /// Embedding dimensionality of the installed model.
        dim: u64,
    },
    /// Outcome of a `PullModel`: the model's serialized snapshot.
    Snapshot {
        /// The model's handle hex (echoing the request).
        handle: String,
        /// The `gem-store` snapshot envelope, bit-exact.
        snapshot: Json,
        /// Which tier produced the model (see `Fitted::served_from`).
        served_from: String,
    },
    /// Outcome of a `Stats` request.
    Stats(WireStats),
    /// Outcome of a `Health` request: the replica's admission-control view of itself.
    Health {
        /// `"ok"`, `"degraded"` (queue building or all workers busy) or
        /// `"overloaded"` (queue full; new work is being shed).
        state: String,
        /// Frames waiting for an executor right now.
        queue_depth: u64,
        /// The bound the work queue sheds at.
        queue_capacity: u64,
        /// Executors currently inside a request.
        busy_workers: u64,
        /// Total executor threads.
        workers: u64,
        /// Suggested client backoff before retrying, milliseconds. `None` when the
        /// replica is accepting work normally.
        retry_after_ms: Option<u64>,
    },
    /// Outcome of a `ListModels` request.
    Models(
        /// The resolvable models, memory tier first.
        Vec<WireModelInfo>,
    ),
    /// Outcome of an `Evict` request.
    Evicted {
        /// Whether a model existed under the handle.
        existed: bool,
    },
    /// Any failure: a stable code from the serving/protocol taxonomy plus a
    /// self-explanatory message.
    Error {
        /// Stable machine-readable code (`unknown_model`, `fit_failed`,
        /// `protocol_error`, …).
        code: String,
        /// Human-readable explanation naming the remedy where one exists.
        message: String,
        /// Suggested backoff before retrying, milliseconds — set only by codes where a
        /// retry is expected to help (today: `overloaded` shed responses).
        retry_after_ms: Option<u64>,
    },
}

/// A framed request: client-chosen `id` (echoed in the response), protocol `version`,
/// and the request body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed verbatim in the response envelope.
    pub id: u64,
    /// Protocol version ([`PROTOCOL_VERSION`] for envelopes built by this crate).
    pub version: u64,
    /// The request body.
    pub body: RequestBody,
}

impl RequestEnvelope {
    /// An envelope for `body` under the current [`PROTOCOL_VERSION`].
    pub fn new(id: u64, body: RequestBody) -> Self {
        RequestEnvelope {
            id,
            version: PROTOCOL_VERSION,
            body,
        }
    }
}

/// A framed response mirroring the request's `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The correlation id of the request this answers — `None` (JSON `null` on the
    /// wire) only for protocol-level errors about input that carried no id: a refused
    /// handshake, or a frame without a correlation header. Never `None` for a
    /// successfully decoded request, so a
    /// pipelined client cannot mis-correlate a framing error with a real request
    /// (including a request that legitimately chose id 0).
    pub in_reply_to: Option<u64>,
    /// Protocol version ([`PROTOCOL_VERSION`] for envelopes built by this crate).
    pub version: u64,
    /// The response body.
    pub body: ResponseBody,
}

impl ResponseEnvelope {
    /// An envelope answering request `id` under the current [`PROTOCOL_VERSION`].
    pub fn new(id: u64, body: ResponseBody) -> Self {
        ResponseEnvelope {
            in_reply_to: Some(id),
            version: PROTOCOL_VERSION,
            body,
        }
    }

    /// An envelope for a protocol-level error that cannot be attributed to any request
    /// (the offending input carried no id): `in_reply_to` is `null`.
    pub fn uncorrelated(body: ResponseBody) -> Self {
        ResponseEnvelope {
            in_reply_to: None,
            version: PROTOCOL_VERSION,
            body,
        }
    }
}

fn columns_json(columns: &[GemColumn]) -> Json {
    Json::Array(columns.iter().map(|c| c.to_json()).collect())
}

fn columns_from(value: &Json) -> Result<Vec<GemColumn>, JsonError> {
    value
        .as_array()
        .ok_or_else(|| JsonError::conversion("expected an array of columns"))?
        .iter()
        .map(GemColumn::from_json)
        .collect()
}

fn opt_columns_json(columns: &Option<Vec<GemColumn>>) -> Json {
    match columns {
        Some(columns) => columns_json(columns),
        None => Json::Null,
    }
}

fn opt_field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    value.get(key).filter(|v| !v.is_null())
}

fn string_array(values: &[String]) -> Json {
    Json::Array(values.iter().map(|s| string(s.clone())).collect())
}

fn as_string_array(value: &Json) -> Result<Vec<String>, JsonError> {
    value
        .as_array()
        .ok_or_else(|| JsonError::conversion("expected an array of strings"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| JsonError::conversion("expected a string"))
        })
        .collect()
}

impl ToJson for RequestBody {
    fn to_json(&self) -> Json {
        match self {
            RequestBody::Fit {
                corpus,
                config,
                features,
                composition,
            } => object(vec![
                ("type", string("fit")),
                ("corpus", columns_json(corpus)),
                ("config", config.to_json()),
                ("features", features.to_json()),
                (
                    "composition",
                    match composition {
                        Some(c) => c.to_json(),
                        None => Json::Null,
                    },
                ),
            ]),
            RequestBody::Embed { handle, queries } => object(vec![
                ("type", string("embed")),
                ("handle", string(handle.clone())),
                ("queries", columns_json(queries)),
            ]),
            RequestBody::EmbedCorpus {
                method,
                corpus,
                queries,
                labels,
            } => object(vec![
                ("type", string("embed_corpus")),
                ("method", string(method.clone())),
                ("corpus", columns_json(corpus)),
                ("queries", opt_columns_json(queries)),
                (
                    "labels",
                    match labels {
                        Some(labels) => string_array(labels),
                        None => Json::Null,
                    },
                ),
            ]),
            RequestBody::FitUpdate { handle, corpus } => object(vec![
                ("type", string("fit_update")),
                ("handle", string(handle.clone())),
                ("corpus", columns_json(corpus)),
            ]),
            RequestBody::PushModel { snapshot } => object(vec![
                ("type", string("push_model")),
                ("snapshot", snapshot.clone()),
            ]),
            RequestBody::PullModel { handle } => object(vec![
                ("type", string("pull_model")),
                ("handle", string(handle.clone())),
            ]),
            RequestBody::Stats => object(vec![("type", string("stats"))]),
            RequestBody::Health => object(vec![("type", string("health"))]),
            RequestBody::ListModels => object(vec![("type", string("list_models"))]),
            RequestBody::Evict { handle } => object(vec![
                ("type", string("evict")),
                ("handle", string(handle.clone())),
            ]),
        }
    }
}

impl FromJson for RequestBody {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.str_field("type")?.as_str() {
            "fit" => Ok(RequestBody::Fit {
                corpus: columns_from(value.field("corpus")?)?,
                config: GemConfig::from_json(value.field("config")?)?,
                features: FeatureSet::from_json(value.field("features")?)?,
                composition: opt_field(value, "composition")
                    .map(Composition::from_json)
                    .transpose()?,
            }),
            "embed" => Ok(RequestBody::Embed {
                handle: value.str_field("handle")?,
                queries: columns_from(value.field("queries")?)?,
            }),
            "embed_corpus" => Ok(RequestBody::EmbedCorpus {
                method: value.str_field("method")?,
                corpus: columns_from(value.field("corpus")?)?,
                queries: opt_field(value, "queries").map(columns_from).transpose()?,
                labels: opt_field(value, "labels")
                    .map(as_string_array)
                    .transpose()?,
            }),
            "fit_update" => Ok(RequestBody::FitUpdate {
                handle: value.str_field("handle")?,
                corpus: columns_from(value.field("corpus")?)?,
            }),
            "push_model" => Ok(RequestBody::PushModel {
                snapshot: value.field("snapshot")?.clone(),
            }),
            "pull_model" => Ok(RequestBody::PullModel {
                handle: value.str_field("handle")?,
            }),
            "stats" => Ok(RequestBody::Stats),
            "health" => Ok(RequestBody::Health),
            "list_models" => Ok(RequestBody::ListModels),
            "evict" => Ok(RequestBody::Evict {
                handle: value.str_field("handle")?,
            }),
            other => Err(JsonError::conversion(format!(
                "unknown request type `{other}`"
            ))),
        }
    }
}

impl ToJson for WireStats {
    fn to_json(&self) -> Json {
        object(vec![
            ("hits", u64_number(self.hits)),
            ("warm_starts", u64_number(self.warm_starts)),
            ("misses", u64_number(self.misses)),
            ("evictions", u64_number(self.evictions)),
            ("coalesced_fits", u64_number(self.coalesced_fits)),
            ("spills", u64_number(self.spills)),
            ("store_errors", u64_number(self.store_errors)),
            ("fit_micros", u64_number(self.fit_micros)),
            ("em_iterations", u64_number(self.em_iterations)),
            ("resident_models", u64_number(self.resident_models)),
            ("resident_bytes", u64_number(self.resident_bytes)),
            ("store_entries", opt_u64_number(self.store_entries)),
            ("store_bytes", opt_u64_number(self.store_bytes)),
            ("requests", u64_number(self.requests)),
            (
                "latencies",
                Json::Array(self.latencies.iter().map(|l| l.to_json()).collect()),
            ),
        ])
    }
}

impl ToJson for WireLatency {
    fn to_json(&self) -> Json {
        object(vec![
            ("shape", string(self.shape.clone())),
            ("count", u64_number(self.count)),
            ("p50_us", u64_number(self.p50_us)),
            ("p90_us", u64_number(self.p90_us)),
            ("p99_us", u64_number(self.p99_us)),
        ])
    }
}

impl FromJson for WireLatency {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(WireLatency {
            shape: value.str_field("shape")?,
            count: value.u64_field("count")?,
            p50_us: value.u64_field("p50_us")?,
            p90_us: value.u64_field("p90_us")?,
            p99_us: value.u64_field("p99_us")?,
        })
    }
}

impl FromJson for WireStats {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let num = |key: &str| value.u64_field(key);
        let opt = |key: &str| -> Result<Option<u64>, JsonError> {
            opt_field(value, key)
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        JsonError::conversion(format!("`{key}` is not an unsigned integer"))
                    })
                })
                .transpose()
        };
        Ok(WireStats {
            hits: num("hits")?,
            warm_starts: num("warm_starts")?,
            misses: num("misses")?,
            evictions: num("evictions")?,
            coalesced_fits: num("coalesced_fits")?,
            spills: num("spills")?,
            store_errors: num("store_errors")?,
            fit_micros: num("fit_micros")?,
            em_iterations: num("em_iterations")?,
            resident_models: num("resident_models")?,
            resident_bytes: num("resident_bytes")?,
            store_entries: opt("store_entries")?,
            store_bytes: opt("store_bytes")?,
            requests: num("requests")?,
            latencies: value
                .field("latencies")?
                .as_array()
                .ok_or_else(|| JsonError::conversion("`latencies` is not an array"))?
                .iter()
                .map(WireLatency::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for WireModelInfo {
    fn to_json(&self) -> Json {
        object(vec![
            ("handle", string(self.handle.clone())),
            ("tier", string(self.tier.clone())),
            ("dim", opt_u64_number(self.dim)),
            ("bytes", u64_number(self.bytes)),
        ])
    }
}

impl FromJson for WireModelInfo {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(WireModelInfo {
            handle: value.str_field("handle")?,
            tier: value.str_field("tier")?,
            dim: opt_field(value, "dim")
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| JsonError::conversion("`dim` is not an unsigned integer"))
                })
                .transpose()?,
            bytes: value.u64_field("bytes")?,
        })
    }
}

impl ToJson for ResponseBody {
    fn to_json(&self) -> Json {
        match self {
            ResponseBody::Fitted {
                handle,
                dim,
                served_from,
            } => object(vec![
                ("type", string("fitted")),
                ("handle", string(handle.clone())),
                ("dim", u64_number(*dim)),
                ("served_from", string(served_from.clone())),
            ]),
            ResponseBody::Embedded {
                matrix,
                served_from,
            } => object(vec![
                ("type", string("embedded")),
                ("matrix", matrix.to_json()),
                ("served_from", string(served_from.clone())),
            ]),
            ResponseBody::Pushed { handle, dim } => object(vec![
                ("type", string("pushed")),
                ("handle", string(handle.clone())),
                ("dim", u64_number(*dim)),
            ]),
            ResponseBody::Snapshot {
                handle,
                snapshot,
                served_from,
            } => object(vec![
                ("type", string("snapshot")),
                ("handle", string(handle.clone())),
                ("snapshot", snapshot.clone()),
                ("served_from", string(served_from.clone())),
            ]),
            ResponseBody::Stats(stats) => {
                object(vec![("type", string("stats")), ("stats", stats.to_json())])
            }
            ResponseBody::Health {
                state,
                queue_depth,
                queue_capacity,
                busy_workers,
                workers,
                retry_after_ms,
            } => object(vec![
                ("type", string("health")),
                ("state", string(state.clone())),
                ("queue_depth", u64_number(*queue_depth)),
                ("queue_capacity", u64_number(*queue_capacity)),
                ("busy_workers", u64_number(*busy_workers)),
                ("workers", u64_number(*workers)),
                ("retry_after_ms", opt_u64_number(*retry_after_ms)),
            ]),
            ResponseBody::Models(models) => object(vec![
                ("type", string("models")),
                (
                    "models",
                    Json::Array(models.iter().map(|m| m.to_json()).collect()),
                ),
            ]),
            ResponseBody::Evicted { existed } => object(vec![
                ("type", string("evicted")),
                ("existed", Json::Bool(*existed)),
            ]),
            ResponseBody::Error {
                code,
                message,
                retry_after_ms,
            } => object(vec![
                ("type", string("error")),
                ("code", string(code.clone())),
                ("message", string(message.clone())),
                ("retry_after_ms", opt_u64_number(*retry_after_ms)),
            ]),
        }
    }
}

impl FromJson for ResponseBody {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.str_field("type")?.as_str() {
            "fitted" => Ok(ResponseBody::Fitted {
                handle: value.str_field("handle")?,
                dim: value.u64_field("dim")?,
                served_from: value.str_field("served_from")?,
            }),
            "embedded" => Ok(ResponseBody::Embedded {
                matrix: Matrix::from_json(value.field("matrix")?)?,
                served_from: value.str_field("served_from")?,
            }),
            "pushed" => Ok(ResponseBody::Pushed {
                handle: value.str_field("handle")?,
                dim: value.u64_field("dim")?,
            }),
            "snapshot" => Ok(ResponseBody::Snapshot {
                handle: value.str_field("handle")?,
                snapshot: value.field("snapshot")?.clone(),
                served_from: value.str_field("served_from")?,
            }),
            "stats" => Ok(ResponseBody::Stats(WireStats::from_json(
                value.field("stats")?,
            )?)),
            "health" => Ok(ResponseBody::Health {
                state: value.str_field("state")?,
                queue_depth: value.u64_field("queue_depth")?,
                queue_capacity: value.u64_field("queue_capacity")?,
                busy_workers: value.u64_field("busy_workers")?,
                workers: value.u64_field("workers")?,
                retry_after_ms: opt_field(value, "retry_after_ms")
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            JsonError::conversion("`retry_after_ms` is not an unsigned integer")
                        })
                    })
                    .transpose()?,
            }),
            "models" => Ok(ResponseBody::Models(
                value
                    .field("models")?
                    .as_array()
                    .ok_or_else(|| JsonError::conversion("`models` is not an array"))?
                    .iter()
                    .map(WireModelInfo::from_json)
                    .collect::<Result<_, _>>()?,
            )),
            "evicted" => Ok(ResponseBody::Evicted {
                existed: value
                    .field("existed")?
                    .as_bool()
                    .ok_or_else(|| JsonError::conversion("`existed` is not a bool"))?,
            }),
            "error" => Ok(ResponseBody::Error {
                code: value.str_field("code")?,
                message: value.str_field("message")?,
                retry_after_ms: opt_field(value, "retry_after_ms")
                    .map(|v| {
                        v.as_u64().ok_or_else(|| {
                            JsonError::conversion("`retry_after_ms` is not an unsigned integer")
                        })
                    })
                    .transpose()?,
            }),
            other => Err(JsonError::conversion(format!(
                "unknown response type `{other}`"
            ))),
        }
    }
}

fn envelope_json(id: Option<u64>, version: u64, body: Json) -> Json {
    object(vec![
        ("id", opt_u64_number(id)),
        ("version", u64_number(version)),
        ("body", body),
    ])
}

/// Validate an envelope's version field and return `(id, version, body)`. The id is
/// `None` when the field is JSON `null` (legal only on uncorrelatable error responses).
fn decode_envelope(line: &str) -> Result<(Option<u64>, u64, Json), ProtoError> {
    let value = Json::parse(line.trim_end_matches(['\r', '\n']))?;
    let id = match value.field("id")? {
        Json::Null => None,
        v => Some(v.as_u64().ok_or_else(|| ProtoError::Parse {
            message: "`id` is neither an unsigned integer nor null".to_string(),
        })?),
    };
    let version = value.u64_field("version")?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    // Move the body out of the owned tree — it is the envelope's largest subtree (the
    // whole corpus or matrix payload), so cloning it would double the decode cost.
    let Json::Object(pairs) = value else {
        // field("id") above already required an object; a non-object here means the
        // parser and accessors disagree, which the wire must never turn into a panic.
        return Err(ProtoError::Parse {
            message: "envelope is not a JSON object".to_string(),
        });
    };
    let body = pairs
        .into_iter()
        .find_map(|(k, v)| (k == "body").then_some(v))
        .ok_or_else(|| JsonError::conversion("missing field `body`"))?;
    Ok((id, version, body))
}

/// Encode a request as one newline-terminated protocol line.
pub fn encode_request(envelope: &RequestEnvelope) -> String {
    let mut line = envelope_json(Some(envelope.id), envelope.version, envelope.body.to_json())
        .to_compact_string();
    line.push('\n');
    line
}

/// Decode one request line (the trailing newline may be present or not).
///
/// # Errors
/// [`ProtoError::Parse`] for malformed lines (a `null` id is only legal on responses),
/// [`ProtoError::VersionMismatch`] for foreign protocol versions — checked before the
/// body is interpreted.
pub fn decode_request(line: &str) -> Result<RequestEnvelope, ProtoError> {
    let (id, version, body) = decode_envelope(line)?;
    let id = id.ok_or_else(|| ProtoError::Parse {
        message: "request envelopes must carry a numeric `id`".to_string(),
    })?;
    Ok(RequestEnvelope {
        id,
        version,
        body: RequestBody::from_json(&body)?,
    })
}

/// Encode a response as one newline-terminated protocol line.
pub fn encode_response(envelope: &ResponseEnvelope) -> String {
    let mut line = envelope_json(
        envelope.in_reply_to,
        envelope.version,
        envelope.body.to_json(),
    )
    .to_compact_string();
    line.push('\n');
    line
}

/// Decode one response line (the trailing newline may be present or not).
///
/// # Errors
/// See [`decode_request`].
pub fn decode_response(line: &str) -> Result<ResponseEnvelope, ProtoError> {
    let (in_reply_to, version, body) = decode_envelope(line)?;
    Ok(ResponseEnvelope {
        in_reply_to,
        version,
        body: ResponseBody::from_json(&body)?,
    })
}

/// Merge per-replica [`WireStats`] into one cluster-wide view, the shape a routing
/// tier answers a fanned-out `Stats` request with. Counters and sizes sum across
/// replicas; the optional store-tier sizes sum over the replicas that have a store
/// (`None` only when none does). Latency series merge by shape: counts sum, and each
/// quantile takes the **maximum** across replicas — a conservative upper bound, since
/// true cluster-wide quantiles cannot be recovered from per-replica summaries.
#[must_use]
pub fn merge_stats(parts: &[WireStats]) -> WireStats {
    let mut merged = WireStats::default();
    let sum_opt = |field: &mut Option<u64>, part: &Option<u64>| {
        if let Some(v) = part {
            *field = Some(field.unwrap_or(0) + v);
        }
    };
    for part in parts {
        merged.hits += part.hits;
        merged.warm_starts += part.warm_starts;
        merged.misses += part.misses;
        merged.evictions += part.evictions;
        merged.coalesced_fits += part.coalesced_fits;
        merged.spills += part.spills;
        merged.store_errors += part.store_errors;
        merged.fit_micros += part.fit_micros;
        merged.em_iterations += part.em_iterations;
        merged.resident_models += part.resident_models;
        merged.resident_bytes += part.resident_bytes;
        sum_opt(&mut merged.store_entries, &part.store_entries);
        sum_opt(&mut merged.store_bytes, &part.store_bytes);
        merged.requests += part.requests;
        for latency in &part.latencies {
            match merged
                .latencies
                .iter_mut()
                .find(|l| l.shape == latency.shape)
            {
                Some(existing) => {
                    existing.count += latency.count;
                    existing.p50_us = existing.p50_us.max(latency.p50_us);
                    existing.p90_us = existing.p90_us.max(latency.p90_us);
                    existing.p99_us = existing.p99_us.max(latency.p99_us);
                }
                None => merged.latencies.push(latency.clone()),
            }
        }
    }
    merged
}

/// Merge per-replica `ListModels` responses into one deduplicated cluster-wide
/// listing. A model replicated for fail-over appears on several replicas under the
/// same handle; the merge keeps one entry per handle, preferring the `"memory"` tier
/// over `"disk"` (the closest copy a request would actually be served from), and
/// sorts by handle so the output is deterministic regardless of replica order.
#[must_use]
pub fn merge_models(parts: &[Vec<WireModelInfo>]) -> Vec<WireModelInfo> {
    let mut merged: Vec<WireModelInfo> = Vec::new();
    for info in parts.iter().flatten() {
        match merged.iter_mut().find(|m| m.handle == info.handle) {
            Some(existing) => {
                if existing.tier != "memory" && info.tier == "memory" {
                    *existing = info.clone();
                }
            }
            None => merged.push(info.clone()),
        }
    }
    merged.sort_by(|a, b| a.handle.cmp(&b.handle));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_json::number;

    // NaN-free so envelopes compare with `==` (NaN != NaN under PartialEq); the
    // NaN/±0 bit-exactness of the codec is covered by `corpus_payloads_are_bit_exact`.
    fn columns() -> Vec<GemColumn> {
        vec![
            GemColumn::new(vec![1.5, -0.0, 2e-308], "age"),
            GemColumn::values_only(vec![10.0, 20.0]),
        ]
    }

    fn bits_of(columns: &[GemColumn]) -> Vec<Vec<u64>> {
        columns
            .iter()
            .map(|c| c.values.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn every_request_shape_round_trips() {
        let bodies = vec![
            RequestBody::Fit {
                corpus: columns(),
                config: GemConfig::fast(),
                features: FeatureSet::ds(),
                composition: None,
            },
            RequestBody::Fit {
                corpus: columns(),
                config: GemConfig::fast(),
                features: FeatureSet::dsc(),
                composition: Some(Composition::Aggregation),
            },
            RequestBody::Embed {
                handle: "0000000000000001-0000000000000002".into(),
                queries: columns(),
            },
            RequestBody::EmbedCorpus {
                method: "Gem (D+S)".into(),
                corpus: columns(),
                queries: Some(columns()),
                labels: Some(vec!["a".into(), "b".into()]),
            },
            RequestBody::EmbedCorpus {
                method: "PLE".into(),
                corpus: columns(),
                queries: None,
                labels: None,
            },
            RequestBody::FitUpdate {
                handle: "0000000000000001-0000000000000002".into(),
                corpus: columns(),
            },
            RequestBody::PushModel {
                snapshot: object(vec![
                    ("magic", string("gem-model-store")),
                    ("format_version", number(1.0)),
                    ("key", string("0000000000000001-0000000000000002")),
                    ("model", object(vec![("schema_version", number(1.0))])),
                ]),
            },
            RequestBody::PullModel {
                handle: "0000000000000001-0000000000000002".into(),
            },
            RequestBody::Stats,
            RequestBody::Health,
            RequestBody::ListModels,
            RequestBody::Evict {
                handle: "0000000000000001-0000000000000002".into(),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let envelope = RequestEnvelope::new(i as u64 + 1, body);
            let line = encode_request(&envelope);
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one line per message");
            let back = decode_request(&line).unwrap();
            assert_eq!(back, envelope);
        }
    }

    #[test]
    fn corpus_payloads_are_bit_exact() {
        let specials = vec![
            GemColumn::new(
                vec![
                    1.5,
                    -0.0,
                    0.0,
                    f64::NAN,
                    f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    2e-308,
                ],
                "specials",
            ),
            GemColumn::values_only(vec![10.0, 20.0]),
        ];
        let envelope = RequestEnvelope::new(
            7,
            RequestBody::Fit {
                corpus: specials.clone(),
                config: GemConfig::fast(),
                features: FeatureSet::ds(),
                composition: None,
            },
        );
        let back = decode_request(&encode_request(&envelope)).unwrap();
        let RequestBody::Fit { corpus, .. } = back.body else {
            panic!("not a fit");
        };
        assert_eq!(bits_of(&corpus), bits_of(&specials));
    }

    #[test]
    fn every_response_shape_round_trips() {
        let matrix = Matrix::from_rows(&[vec![1.0, -0.0], vec![f64::NAN, 2.5]]).unwrap();
        let bodies = vec![
            ResponseBody::Fitted {
                handle: "00000000000000ff-0000000000000001".into(),
                dim: 18,
                served_from: "cold_fit".into(),
            },
            ResponseBody::Embedded {
                matrix: matrix.clone(),
                served_from: "memory_cache".into(),
            },
            ResponseBody::Pushed {
                handle: "00000000000000ff-0000000000000001".into(),
                dim: 18,
            },
            ResponseBody::Snapshot {
                handle: "00000000000000ff-0000000000000001".into(),
                snapshot: object(vec![
                    ("magic", string("gem-model-store")),
                    ("key", string("00000000000000ff-0000000000000001")),
                ]),
                served_from: "memory_cache".into(),
            },
            ResponseBody::Stats(WireStats {
                hits: 3,
                coalesced_fits: 5,
                fit_micros: 68_000,
                em_iterations: 41,
                store_entries: Some(2),
                store_bytes: Some(4096),
                requests: 9,
                latencies: vec![
                    WireLatency {
                        shape: "fit".into(),
                        count: 4,
                        p50_us: 1_200,
                        p90_us: 2_400,
                        p99_us: 9_000,
                    },
                    WireLatency {
                        shape: "embed".into(),
                        count: 5,
                        p50_us: 90,
                        p90_us: 150,
                        p99_us: 600,
                    },
                ],
                ..WireStats::default()
            }),
            ResponseBody::Stats(WireStats::default()),
            ResponseBody::Health {
                state: "degraded".into(),
                queue_depth: 12,
                queue_capacity: 64,
                busy_workers: 4,
                workers: 4,
                retry_after_ms: Some(250),
            },
            ResponseBody::Health {
                state: "ok".into(),
                queue_depth: 0,
                queue_capacity: 1024,
                busy_workers: 0,
                workers: 8,
                retry_after_ms: None,
            },
            ResponseBody::Models(vec![WireModelInfo {
                handle: "00000000000000ff-0000000000000001".into(),
                tier: "memory".into(),
                dim: Some(18),
                bytes: 1024,
            }]),
            ResponseBody::Evicted { existed: true },
            ResponseBody::Error {
                code: "unknown_model".into(),
                message: "no model for handle …".into(),
                retry_after_ms: None,
            },
            ResponseBody::Error {
                code: "overloaded".into(),
                message: "work queue is full".into(),
                retry_after_ms: Some(100),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let envelope = ResponseEnvelope::new(i as u64, body);
            let line = encode_response(&envelope);
            let back = decode_response(&line).unwrap();
            // NaN != NaN under PartialEq, so compare matrices by bits.
            match (&back.body, &envelope.body) {
                (
                    ResponseBody::Embedded { matrix: a, .. },
                    ResponseBody::Embedded { matrix: b, .. },
                ) => {
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b));
                }
                _ => assert_eq!(back, envelope),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_the_body() {
        let line = encode_request(&RequestEnvelope::new(1, RequestBody::Stats))
            .replace(&format!("\"version\":{PROTOCOL_VERSION}"), "\"version\":99");
        match decode_request(&line).unwrap_err() {
            ProtoError::VersionMismatch { found, expected } => {
                assert_eq!(found, 99);
                assert_eq!(expected, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // Even with a garbage body, the version check fires first.
        let line = r#"{"id":1,"version":99,"body":{"type":"not-a-thing"}}"#;
        assert!(matches!(
            decode_request(line),
            Err(ProtoError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn malformed_lines_are_parse_errors() {
        let v = PROTOCOL_VERSION;
        for bad in [
            String::new(),
            "not json".to_string(),
            "{}".to_string(),
            format!(r#"{{"id":1,"version":{v}}}"#),
            format!(r#"{{"id":1,"version":{v},"body":{{"type":"no-such"}}}}"#),
            format!(r#"{{"id":1,"version":{v},"body":{{"type":"embed"}}}}"#),
        ] {
            let err = decode_request(&bad).unwrap_err();
            assert_eq!(err.code(), "protocol_error", "{bad}");
        }
    }

    #[test]
    fn uncorrelated_error_responses_carry_a_null_id_not_a_sentinel() {
        let envelope = ResponseEnvelope::uncorrelated(ResponseBody::Error {
            code: "protocol_error".into(),
            message: "unsalvageable".into(),
            retry_after_ms: None,
        });
        let line = encode_response(&envelope);
        assert!(line.contains("\"id\":null"), "{line}");
        let back = decode_response(&line).unwrap();
        assert_eq!(back.in_reply_to, None);
        assert_eq!(back, envelope);
        // A genuine request id 0 stays a number, distinct from the null above.
        let zero = ResponseEnvelope::new(0, ResponseBody::Evicted { existed: false });
        let back = decode_response(&encode_response(&zero)).unwrap();
        assert_eq!(back.in_reply_to, Some(0));
        // Requests must carry a numeric id: null is response-only.
        let line =
            format!(r#"{{"id":null,"version":{PROTOCOL_VERSION},"body":{{"type":"stats"}}}}"#);
        let err = decode_request(&line).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
    }

    #[test]
    fn proto_error_codes_are_stable() {
        assert_eq!(
            ProtoError::Parse {
                message: "x".into()
            }
            .code(),
            "protocol_error"
        );
        assert_eq!(
            ProtoError::VersionMismatch {
                found: 2,
                expected: 1
            }
            .code(),
            "version_mismatch"
        );
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn stats(hits: u64, requests: u64, shape_p99: u64) -> WireStats {
        WireStats {
            hits,
            requests,
            fit_micros: 10,
            resident_models: 1,
            latencies: vec![WireLatency {
                shape: "embed".to_string(),
                count: 3,
                p50_us: 5,
                p90_us: 9,
                p99_us: shape_p99,
            }],
            ..WireStats::default()
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_take_max_quantiles() {
        let merged = merge_stats(&[stats(2, 10, 100), stats(5, 7, 40)]);
        assert_eq!(merged.hits, 7);
        assert_eq!(merged.requests, 17);
        assert_eq!(merged.fit_micros, 20);
        assert_eq!(merged.resident_models, 2);
        assert_eq!(merged.latencies.len(), 1);
        let embed = &merged.latencies[0];
        assert_eq!(embed.count, 6);
        assert_eq!(embed.p99_us, 100, "quantiles merge as the max upper bound");
        assert_eq!(merged.store_entries, None, "no replica had a store");
    }

    #[test]
    fn merged_stats_sum_store_sizes_over_replicas_that_have_one() {
        let with_store = WireStats {
            store_entries: Some(4),
            store_bytes: Some(1000),
            ..WireStats::default()
        };
        let merged = merge_stats(&[with_store.clone(), WireStats::default(), with_store]);
        assert_eq!(merged.store_entries, Some(8));
        assert_eq!(merged.store_bytes, Some(2000));
    }

    #[test]
    fn merged_stats_keep_distinct_shapes_separate() {
        let mut other = stats(0, 0, 1);
        other.latencies[0].shape = "fit".to_string();
        let merged = merge_stats(&[stats(0, 0, 50), other]);
        assert_eq!(merged.latencies.len(), 2);
    }

    #[test]
    fn merged_models_dedupe_by_handle_preferring_memory() {
        let mem = |handle: &str| WireModelInfo {
            handle: handle.to_string(),
            tier: "memory".to_string(),
            dim: Some(8),
            bytes: 100,
        };
        let disk = |handle: &str| WireModelInfo {
            handle: handle.to_string(),
            tier: "disk".to_string(),
            dim: None,
            bytes: 50,
        };
        let merged = merge_models(&[vec![disk("b"), mem("a")], vec![mem("b"), disk("a")]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].handle, "a");
        assert_eq!(merged[0].tier, "memory", "memory copy wins over disk");
        assert_eq!(merged[1].handle, "b");
        assert_eq!(merged[1].tier, "memory");
    }
}
