//! # gem-text
//!
//! Deterministic header-text embeddings — the offline substitute for the SBERT model used in
//! §3.3 of the paper.
//!
//! The paper embeds column headers with Sentence-BERT so that lexically/semantically related
//! headers land close together in cosine space, then L1-normalises the embedding and
//! concatenates it with the value embeddings. Running a transformer offline in pure Rust is
//! out of scope for this reproduction, so this crate provides [`HashEmbedder`]: a
//! deterministic embedder that
//!
//! 1. tokenises a header into lower-cased word tokens (splitting on punctuation, underscores
//!    and camelCase boundaries),
//! 2. folds common abbreviations and close synonyms onto canonical forms via a small
//!    built-in [`SynonymTable`],
//! 3. hashes each token and each character trigram into a fixed-dimensional vector
//!    (feature hashing with a signed hash, i.e. the "hashing trick"), and
//! 4. averages and L2-normalises the result.
//!
//! The properties that matter for the downstream experiments are preserved: identical
//! headers map to identical vectors, headers sharing tokens ("score_cricket" vs
//! "score_rugby") are similar but not identical, and unrelated headers are nearly
//! orthogonal.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod embedder;
mod synonyms;
mod tokenizer;

pub use embedder::{HashEmbedder, TextEmbedder, DEFAULT_TEXT_DIM};
pub use synonyms::SynonymTable;
pub use tokenizer::tokenize;
