//! # gem-serve
//!
//! The serving layer over the Gem pipeline's fit/transform split
//! ([`gem_core::GemModel`]): the subsystem that turns the reproduction into a system that
//! can answer embedding traffic instead of re-running experiments.
//!
//! Layers, bottom to top:
//!
//! * [`fingerprint`] — deterministic [`ModelKey`]s: an FNV-1a corpus fingerprint (every
//!   value bit, every header byte, column order) combined with a configuration hash. Two
//!   requests share a key exactly when they can share a fitted model. (Hosted by
//!   `gem-store`, re-exported here unchanged: the cache key doubles as the on-disk
//!   address.)
//! * The model cache — an LRU of at most [`CachePolicy::capacity`] fitted models behind
//!   [`std::sync::Arc`], with the counters in [`CacheStats`]. Handles are content
//!   hashes, so nothing in it ever goes stale and nothing expires. Attach a
//!   [`gem_store::ModelStore`] and it becomes two-tiered: evicted models **spill** to
//!   disk, and a lookup that misses memory **warm-starts** from disk — deserialisation
//!   instead of an EM re-fit, with bit-identical transforms. Lookups that miss memory
//!   are **single-flight**: N concurrent requests for one missing handle pay one EM fit
//!   ([`CacheStats::coalesced_fits`]) or one snapshot decode. Snapshot reads, writes and
//!   deletes all run **outside the cache lock**, so a slow disk never blocks a lookup
//!   of another model.
//! * [`EmbedService`] — the front-end, holding the model cache directly: the typed,
//!   handle-based [`ServeRequest`] protocol (`Fit` → [`ModelHandle`] → `Embed`/`Evict`,
//!   the one-shot `EmbedCorpus` path for any [`gem_core::MethodRegistry`] method by
//!   name, and `PushModel`/`PullModel` snapshot shipping between replicas) with the
//!   stable-coded [`ServeError`] taxonomy. Each request is one model lookup (or fit) and
//!   one transform, served on the calling thread.
//! * [`net::GemServer`] / [`client::GemClient`] — the same protocol over TCP (the
//!   `gem-served` and `gem-client` binaries wrap them). Each connection opens with the
//!   `gem_proto::binary` hello and then speaks length-prefixed frames (raw-IEEE-754
//!   f64 payloads, chunked corpus upload, streamed embed rows); [`framing`] holds the
//!   handshake, read step, reply encoder and writer that `gem-router` shares. The
//!   server multiplexes every connection onto one bounded executor pool and answers
//!   **out of order** (a cheap `Embed` overtakes a slow `Fit`); the client's pipelined
//!   mode ([`GemClient::send`] / [`GemClient::recv_any`]) correlates replies by
//!   envelope id.
//!
//! ```
//! use gem_core::{FeatureSet, GemColumn, GemConfig, MethodRegistry};
//! use gem_serve::{EmbedService, ServeRequest};
//! use std::sync::Arc;
//!
//! let config = GemConfig::fast();
//! let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
//! service.register_gem_family(&config);
//!
//! let corpus = Arc::new(vec![
//!     GemColumn::new((0..40).map(f64::from).collect(), "age"),
//!     GemColumn::new((0..40).map(|i| 500.0 + 3.0 * f64::from(i)).collect(), "price"),
//! ]);
//! // Fit once; the returned handle names the model from now on.
//! let fitted = service
//!     .serve_one(ServeRequest::fit(Arc::clone(&corpus), config.clone(), FeatureSet::ds()))
//!     .unwrap();
//! let handle = fitted.handle().unwrap();
//! // Embed by handle: the request carries no corpus, so nothing can be refitted.
//! let served = service
//!     .serve_one(ServeRequest::embed(handle, corpus.to_vec()))
//!     .unwrap();
//! assert!(served.cache_hit());
//! assert_eq!(served.matrix().unwrap().rows(), corpus.len());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod cache;
pub mod client;
pub mod demo;
mod error;
pub mod framing;
mod handle;
pub mod metrics;
pub mod net;
mod service;
pub mod sync;

pub use cache::{CachePolicy, CacheStats, CacheTier, ServedFrom};
pub use client::{
    ClientError, EmbedOutcome, FitOutcome, GemClient, HealthOutcome, HealthState, PipelinedReply,
    PushOutcome, SnapshotOutcome,
};
pub use error::ServeError;
pub use gem_store::fingerprint;
pub use gem_store::{
    config_fingerprint, corpus_fingerprint, decode_snapshot, encode_snapshot, model_key, GcPolicy,
    ModelKey, ModelStore, SnapshotError, StoreError, StoreStats,
};
pub use handle::ModelHandle;
pub use metrics::{RequestShape, ServerMetrics, SHAPES};
pub use net::{
    default_workers, shutdown_summary, GemServer, ServerCounters, ServerHandle,
    DEFAULT_QUEUE_CAPACITY,
};
pub use service::{
    EmbedService, ModelInfo, ServeRequest, ServeResponse, ServeResult, ServiceStats,
};
pub use sync::{lock_or_recover, lock_recoveries};
