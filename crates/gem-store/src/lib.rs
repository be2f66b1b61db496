//! # gem-store
//!
//! Full [`gem_core::GemModel`] persistence: deterministic model fingerprints and a
//! fingerprint-addressed on-disk store, the durability tier of the serving stack.
//!
//! The EM fit is the expensive step of the Gem pipeline; PR 2's in-memory model cache
//! amortises it *within* a process, but every restart still re-paid ~90ms per model.
//! This crate closes that gap:
//!
//! * [`fingerprint`] — deterministic [`ModelKey`]s (FNV-1a over every value bit, header
//!   byte, column boundary and configuration field). Moved here from `gem-serve` so the
//!   cache key and the storage address are literally the same value; `gem-serve`
//!   re-exports it unchanged.
//! * [`ModelStore`] — a directory of serialised models, one file per key
//!   (`<corpus>-<config>.gem.json`), written atomically (temp file + rename) with a
//!   magic/version header that is validated before any payload is interpreted.
//!   [`ModelStore::list`] / [`ModelStore::gc`] / [`ModelStore::stats`] operate the
//!   directory; the `store` CLI bin wraps them for humans.
//!
//! A saved model reloaded in a fresh process produces **bit-identical**
//! `GemModel::transform` output — every fitted component (GMM, Equation 7 scaler,
//! autoencoder weights, text embedder) round-trips exactly (weights via IEEE-754 bit
//! patterns). `gem-serve`'s model cache uses the store as its second tier: models evicted
//! for its capacity bound spill to disk, and lookups that miss memory warm-start from
//! disk before falling back to a cold fit.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod fingerprint;
mod store;

pub use fingerprint::{
    config_fingerprint, corpus_fingerprint, fit_model_key, model_key, updated_model_key,
    updated_model_key_from_fingerprint, CorpusHasher, ModelKey,
};
pub use store::{
    decode_snapshot, encode_snapshot, encode_snapshot_with_parent, snapshot_parent, GcPolicy,
    ModelStore, SnapshotError, StoreEntry, StoreError, StoreStats, STORE_FORMAT_MIN_VERSION,
    STORE_FORMAT_VERSION, STORE_MAGIC,
};
