//! Deterministic model keys: a corpus fingerprint combined with a configuration hash.
//!
//! A fitted [`gem_core::GemModel`] is a pure function of the fit corpus and the
//! configuration, so a cache can key models by a fingerprint of both. The fingerprint
//! must be deterministic across runs and platforms (FNV-1a over explicit byte
//! encodings — no `DefaultHasher`, whose seeds vary per process) and sensitive to every
//! input that changes the fitted model: any value bit, any header byte, the column
//! order, and every configuration field.

use gem_core::{Composition, FeatureSet, GemColumn, GemConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher — the workspace's canonical implementation
/// (exposed so digest-printing tools don't grow their own copies of the constants).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The cache key of one fitted model: which corpus it was fitted on and with which
/// configuration. Identical inputs always produce identical keys; distinct inputs
/// produce distinct keys up to 64-bit FNV-1a collisions — FNV is fast and stable but not
/// collision-resistant, so the cache assumes cooperating callers (a serving deployment's
/// own corpora), not adversarial ones. A collision would serve the colliding corpus's
/// model; swap in a cryptographic digest before exposing the cache to untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Fingerprint of the fit corpus (values, headers and column order).
    pub corpus: u64,
    /// Fingerprint of the pipeline configuration and feature set.
    pub config: u64,
}

impl ModelKey {
    /// Canonical hex rendering `{corpus:016x}-{config:016x}` — the address a model store
    /// files the key's model under, and the form the `store` CLI accepts.
    pub fn to_hex(self) -> String {
        format!("{:016x}-{:016x}", self.corpus, self.config)
    }

    /// Parse a [`ModelKey::to_hex`] rendering. Returns `None` for anything that is not
    /// exactly two 16-digit lower-case hex halves joined by `-` — the strictness
    /// guarantees `from_hex(k.to_hex()) == Some(k)` *and* that every accepted string is
    /// some key's `to_hex` (no `+`-prefixed or upper-case aliases for the same key).
    pub fn from_hex(text: &str) -> Option<ModelKey> {
        let (corpus, config) = text.split_once('-')?;
        let parse = |half: &str| -> Option<u64> {
            if half.len() != 16 || !half.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
                return None;
            }
            u64::from_str_radix(half, 16).ok()
        };
        Some(ModelKey {
            corpus: parse(corpus)?,
            config: parse(config)?,
        })
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Fingerprint a corpus: every value bit (via `f64::to_bits`, so `-0.0` vs `0.0` and NaN
/// payloads are distinguished), every header byte, and the column order and boundaries.
pub fn corpus_fingerprint(columns: &[GemColumn]) -> u64 {
    let mut h = CorpusHasher::new(columns.len() as u64);
    h.push_columns(columns);
    h.finish()
}

/// Incremental form of [`corpus_fingerprint`] for corpora that arrive in slices — the
/// binary wire codec's chunked upload streams columns through one of these so a server
/// (or routing tier) computes the fingerprint **as chunks land**, without a second pass
/// over the assembled corpus. The digest depends only on the column stream, never on
/// chunk boundaries: feeding the same columns in any slicing yields exactly
/// `corpus_fingerprint` of the whole — which is what keeps a chunk-uploaded fit's handle
/// bit-identical to the key the client computes locally.
///
/// The total column count is hashed first (it prefixes the flat encoding), which is why
/// the chunked upload protocol declares it up front in `begin_fit`.
#[derive(Debug, Clone, Copy)]
pub struct CorpusHasher {
    h: Fnv1a,
}

impl CorpusHasher {
    /// Start a corpus digest that will cover exactly `total_columns` columns.
    pub fn new(total_columns: u64) -> Self {
        let mut h = Fnv1a::new();
        h.write_u64(total_columns);
        CorpusHasher { h }
    }

    /// Absorb the next column of the stream (corpus order).
    pub fn push_column(&mut self, column: &GemColumn) {
        self.h.write_u64(column.header.len() as u64);
        self.h.write(column.header.as_bytes());
        self.h.write_u64(column.values.len() as u64);
        for &v in &column.values {
            self.h.write_u64(v.to_bits());
        }
    }

    /// Absorb a slice of consecutive columns.
    pub fn push_columns(&mut self, columns: &[GemColumn]) {
        for column in columns {
            self.push_column(column);
        }
    }

    /// The corpus fingerprint. Equals [`corpus_fingerprint`] of the concatenated stream
    /// when exactly the declared number of columns was pushed.
    pub fn finish(self) -> u64 {
        self.h.finish()
    }
}

/// Fingerprint a pipeline configuration plus feature set. Hashes the `Debug` rendering,
/// which covers every field of [`GemConfig`] (including the nested GMM configuration and
/// composition) and stays in sync automatically when fields are added; float fields
/// render with shortest-round-trip formatting, so distinct values never collide.
///
/// The `parallel` flag is canonicalised away first: it selects the execution strategy,
/// not the fitted model (the parallel and serial paths are bit-identical by
/// construction), so requests differing only in it share one cached model.
pub fn config_fingerprint(config: &GemConfig, features: FeatureSet) -> u64 {
    let canonical = config.clone().with_parallel(true);
    let mut h = Fnv1a::new();
    h.write(format!("{canonical:?}|{features:?}").as_bytes());
    h.finish()
}

/// The full model key for fitting `config`/`features` on `columns`.
pub fn model_key(columns: &[GemColumn], config: &GemConfig, features: FeatureSet) -> ModelKey {
    ModelKey {
        corpus: corpus_fingerprint(columns),
        config: config_fingerprint(config, features),
    }
}

/// The key a `Fit` request names: the model fitted with `config` (its composition
/// replaced by the request's `composition` override, when there is one) and `features`
/// on the corpus whose [`corpus_fingerprint`] is `corpus`. The serving replica and the
/// router both derive `Fit` handles here, so a router places a model exactly where the
/// replica will address it, before the model exists.
pub fn fit_model_key(
    corpus: u64,
    config: &GemConfig,
    features: FeatureSet,
    composition: Option<Composition>,
) -> ModelKey {
    let config = match composition {
        Some(composition) => {
            config_fingerprint(&config.clone().with_composition(composition), features)
        }
        None => config_fingerprint(config, features),
    };
    ModelKey { corpus, config }
}

/// The key of the model produced by folding `new_columns` into the model at `parent` via
/// `GemModel::fit_update`.
///
/// The corpus half is a domain-separated chain over the parent's corpus fingerprint and
/// the new columns' fingerprint, so it is sensitive to the *entire update history*: the
/// same new columns folded into different parents — or the same columns applied in a
/// different order along an update chain — yield distinct keys, and an updated model can
/// never collide with a from-scratch fit of the grown corpus (which would wrongly claim
/// its parameters were re-estimated). The config half is inherited unchanged: an update
/// reuses the parent's frozen configuration by definition.
pub fn updated_model_key(parent: ModelKey, new_columns: &[GemColumn]) -> ModelKey {
    updated_model_key_from_fingerprint(parent, corpus_fingerprint(new_columns))
}

/// [`updated_model_key`] when the new columns' fingerprint is already known — e.g.
/// computed incrementally by a [`CorpusHasher`] while a chunked upload streamed in, so
/// routing a chunked `fit_update` never re-walks the assembled corpus.
pub fn updated_model_key_from_fingerprint(parent: ModelKey, new_corpus: u64) -> ModelKey {
    let mut h = Fnv1a::new();
    h.write(b"gem-fit-update");
    h.write_u64(parent.corpus);
    h.write_u64(new_corpus);
    ModelKey {
        corpus: h.finish(),
        config: parent.config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<GemColumn> {
        vec![
            GemColumn::new(vec![1.0, 2.0, 3.0], "age"),
            GemColumn::new(vec![10.0, 20.0], "price"),
        ]
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(
            corpus_fingerprint(&columns()),
            corpus_fingerprint(&columns())
        );
        let cfg = GemConfig::fast();
        assert_eq!(
            config_fingerprint(&cfg, FeatureSet::ds()),
            config_fingerprint(&cfg, FeatureSet::ds())
        );
    }

    #[test]
    fn fingerprint_is_sensitive_to_values_headers_and_order() {
        let base = corpus_fingerprint(&columns());
        let mut changed_value = columns();
        changed_value[0].values[1] = 2.0000000001;
        assert_ne!(base, corpus_fingerprint(&changed_value));
        let mut changed_header = columns();
        changed_header[1].header = "cost".to_string();
        assert_ne!(base, corpus_fingerprint(&changed_header));
        let mut reordered = columns();
        reordered.swap(0, 1);
        assert_ne!(base, corpus_fingerprint(&reordered));
        // Moving a value across a column boundary changes the key even though the flat
        // value stream is unchanged.
        let regrouped = vec![
            GemColumn::new(vec![1.0, 2.0], "age"),
            GemColumn::new(vec![3.0, 10.0, 20.0], "price"),
        ];
        let grouped = vec![
            GemColumn::new(vec![1.0, 2.0, 3.0], "age"),
            GemColumn::new(vec![10.0, 20.0], "price"),
        ];
        assert_ne!(corpus_fingerprint(&regrouped), corpus_fingerprint(&grouped));
    }

    #[test]
    fn fingerprint_distinguishes_negative_zero_from_zero() {
        let a = vec![GemColumn::values_only(vec![0.0])];
        let b = vec![GemColumn::values_only(vec![-0.0])];
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
    }

    #[test]
    fn config_fingerprint_is_sensitive_to_every_axis() {
        let base = config_fingerprint(&GemConfig::fast(), FeatureSet::ds());
        assert_ne!(
            base,
            config_fingerprint(&GemConfig::fast(), FeatureSet::dsc())
        );
        let mut more_components = GemConfig::fast();
        more_components.gmm.n_components += 1;
        assert_ne!(base, config_fingerprint(&more_components, FeatureSet::ds()));
        let mut other_seed = GemConfig::fast();
        other_seed.gmm.seed ^= 1;
        assert_ne!(base, config_fingerprint(&other_seed, FeatureSet::ds()));
        let agg = GemConfig::fast().with_composition(gem_core::Composition::Aggregation);
        assert_ne!(base, config_fingerprint(&agg, FeatureSet::ds()));
    }

    #[test]
    fn parallel_flag_does_not_change_the_fingerprint() {
        // `parallel` picks the execution strategy, not the model; both settings produce
        // bit-identical fits, so they must share one cache entry.
        let serial = GemConfig::fast().with_parallel(false);
        let parallel = GemConfig::fast().with_parallel(true);
        assert_eq!(
            config_fingerprint(&serial, FeatureSet::ds()),
            config_fingerprint(&parallel, FeatureSet::ds())
        );
    }

    #[test]
    fn model_key_hex_rendering_round_trips() {
        let key = model_key(&columns(), &GemConfig::fast(), FeatureSet::ds());
        let hex = key.to_hex();
        assert_eq!(hex.len(), 33);
        assert_eq!(ModelKey::from_hex(&hex), Some(key));
        assert_eq!(format!("{key}"), hex);
        for bad in [
            "",
            "abc",
            "0-1",
            &hex[..32],
            "zzzzzzzzzzzzzzzz-0000000000000000",
            // Aliases u64 parsing would accept but to_hex never produces.
            "+fffffffffffffff-0000000000000000",
            "FFFFFFFFFFFFFFFF-0000000000000000",
        ] {
            assert_eq!(ModelKey::from_hex(bad), None, "{bad}");
        }
    }

    #[test]
    fn updated_key_is_chain_sensitive_and_collision_free() {
        let cfg = GemConfig::fast();
        let parent = model_key(&columns(), &cfg, FeatureSet::ds());
        let growth = vec![GemColumn::new(vec![5.0, 6.0], "score")];
        let updated = updated_model_key(parent, &growth);
        // Config half inherited, corpus half distinct from both the parent's and a
        // from-scratch fit of the grown corpus.
        assert_eq!(updated.config, parent.config);
        assert_ne!(updated.corpus, parent.corpus);
        let mut grown = columns();
        grown.extend(growth.iter().cloned());
        let refit = model_key(&grown, &cfg, FeatureSet::ds());
        assert_ne!(updated.corpus, refit.corpus);
        // Deterministic, parent-sensitive, and order-sensitive along a chain.
        assert_eq!(updated, updated_model_key(parent, &growth));
        let other_parent = model_key(&grown, &cfg, FeatureSet::ds());
        assert_ne!(updated, updated_model_key(other_parent, &growth));
        let second = vec![GemColumn::new(vec![7.0], "rank")];
        let a_then_b = updated_model_key(updated_model_key(parent, &growth), &second);
        let b_then_a = updated_model_key(updated_model_key(parent, &second), &growth);
        assert_ne!(a_then_b, b_then_a);
    }

    #[test]
    fn incremental_hashing_is_chunking_invariant() {
        // The chunked-upload equality the wire protocol depends on: any slicing of the
        // column stream digests to the one-shot fingerprint.
        let corpus: Vec<GemColumn> = (0..17)
            .map(|c| {
                GemColumn::new(
                    (0..(c % 5) + 1)
                        .map(|i| (c * 31 + i) as f64 * 0.25 - 3.0)
                        .collect(),
                    format!("col_{c}"),
                )
            })
            .collect();
        let one_shot = corpus_fingerprint(&corpus);
        for chunk_size in [1, 2, 3, 5, 16, 17, 100] {
            let mut h = CorpusHasher::new(corpus.len() as u64);
            for slice in corpus.chunks(chunk_size) {
                h.push_columns(slice);
            }
            assert_eq!(h.finish(), one_shot, "chunk_size {chunk_size}");
        }
        // Column-at-a-time matches too, and the declared count matters.
        let mut h = CorpusHasher::new(corpus.len() as u64);
        for column in &corpus {
            h.push_column(column);
        }
        assert_eq!(h.finish(), one_shot);
        let mut wrong_total = CorpusHasher::new(corpus.len() as u64 + 1);
        wrong_total.push_columns(&corpus);
        assert_ne!(wrong_total.finish(), one_shot);
    }

    #[test]
    fn updated_key_from_fingerprint_matches_the_column_form() {
        let cfg = GemConfig::fast();
        let parent = model_key(&columns(), &cfg, FeatureSet::ds());
        let growth = vec![GemColumn::new(vec![5.0, 6.0], "score")];
        let mut h = CorpusHasher::new(growth.len() as u64);
        h.push_columns(&growth);
        assert_eq!(
            updated_model_key_from_fingerprint(parent, h.finish()),
            updated_model_key(parent, &growth)
        );
    }

    #[test]
    fn model_key_combines_both_fingerprints() {
        let cfg = GemConfig::fast();
        let key = model_key(&columns(), &cfg, FeatureSet::ds());
        assert_eq!(key.corpus, corpus_fingerprint(&columns()));
        assert_eq!(key.config, config_fingerprint(&cfg, FeatureSet::ds()));
        let other = model_key(&columns(), &cfg, FeatureSet::d());
        assert_eq!(key.corpus, other.corpus);
        assert_ne!(key, other);
    }

    #[test]
    fn fit_key_applies_the_composition_override_before_hashing() {
        let cfg = GemConfig::fast();
        let corpus = corpus_fingerprint(&columns());
        assert_eq!(
            fit_model_key(corpus, &cfg, FeatureSet::ds(), None),
            model_key(&columns(), &cfg, FeatureSet::ds())
        );
        let overridden = fit_model_key(
            corpus,
            &cfg,
            FeatureSet::ds(),
            Some(Composition::Aggregation),
        );
        assert_eq!(
            overridden,
            model_key(
                &columns(),
                &cfg.clone().with_composition(Composition::Aggregation),
                FeatureSet::ds()
            )
        );
        assert_ne!(
            overridden,
            fit_model_key(corpus, &cfg, FeatureSet::ds(), None)
        );
    }
}
