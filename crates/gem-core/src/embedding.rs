//! The end-to-end Gem embedding pipeline (Algorithm 1 of the paper).

use crate::config::{FeatureSet, GemConfig};
use crate::model::GemModel;
use gem_gmm::{GmmError, UnivariateGmm};
use gem_numeric::Matrix;
use std::fmt;

/// One numeric column presented to the embedder: its raw values plus (optionally) its
/// header. This is deliberately independent of `gem-data`'s richer `Column` type so the
/// core library can be used on any source of columns.
#[derive(Debug, Clone, PartialEq)]
pub struct GemColumn {
    /// Numeric cell values.
    pub values: Vec<f64>,
    /// Column header (may be empty when no context is available).
    pub header: String,
}

impl GemColumn {
    /// Create a column with a header.
    pub fn new(values: Vec<f64>, header: impl Into<String>) -> Self {
        GemColumn {
            values,
            header: header.into(),
        }
    }

    /// Create a header-less column (numeric-only settings, e.g. GitTables).
    pub fn values_only(values: Vec<f64>) -> Self {
        GemColumn {
            values,
            header: String::new(),
        }
    }
}

/// Errors from the Gem pipeline and the unified method layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GemError {
    /// No columns were provided.
    NoColumns,
    /// Every provided column was empty, so no GMM can be fitted.
    NoValues,
    /// The requested feature set selects nothing.
    EmptyFeatureSet,
    /// The configured header embedding dimension (`text_dim`) is below the embedder's
    /// minimum of 2.
    TextDimTooSmall(usize),
    /// The underlying GMM fit failed.
    Gmm(GmmError),
    /// A supervised method was invoked without training labels (carries the method name).
    MissingLabels(String),
    /// A supervised method received a label slice whose length differs from the column
    /// count.
    LabelCountMismatch {
        /// Method name.
        method: String,
        /// Number of columns passed.
        columns: usize,
        /// Number of labels passed.
        labels: usize,
    },
    /// A method name was not found in the registry.
    UnknownMethod(String),
}

impl fmt::Display for GemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemError::NoColumns => write!(f, "no columns to embed"),
            GemError::NoValues => write!(f, "all columns are empty; cannot fit a GMM"),
            GemError::EmptyFeatureSet => write!(f, "feature set selects no evidence type"),
            GemError::TextDimTooSmall(dim) => write!(
                f,
                "text embedding dimension {dim} is below the minimum of 2"
            ),
            GemError::Gmm(e) => write!(f, "GMM fit failed: {e}"),
            GemError::MissingLabels(method) => {
                write!(f, "supervised method `{method}` needs training labels")
            }
            GemError::LabelCountMismatch {
                method,
                columns,
                labels,
            } => {
                write!(
                    f,
                    "supervised method `{method}` needs one label per column \
                     (got {labels} labels for {columns} columns)"
                )
            }
            GemError::UnknownMethod(name) => {
                write!(f, "no method named `{name}` is registered")
            }
        }
    }
}

impl std::error::Error for GemError {}

impl From<GmmError> for GemError {
    fn from(e: GmmError) -> Self {
        GemError::Gmm(e)
    }
}

/// Bit-exact JSON encoding of a column: the header as a string, every value as an
/// IEEE-754 bit pattern ([`gem_json::bits`]). Serving fingerprints hash value *bits*, so
/// a column shipped over a wire or reloaded from disk must reproduce every value exactly
/// — NaN payloads and signed zeros included — for the remote corpus to key the same
/// model as the local one.
impl gem_json::ToJson for GemColumn {
    fn to_json(&self) -> gem_json::Json {
        gem_json::object(vec![
            ("header", gem_json::string(self.header.clone())),
            ("values", gem_json::bits_array(&self.values)),
        ])
    }
}

impl gem_json::FromJson for GemColumn {
    fn from_json(value: &gem_json::Json) -> Result<Self, gem_json::JsonError> {
        Ok(GemColumn {
            header: value.str_field("header")?,
            values: gem_json::as_bits_array(value.field("values")?)?,
        })
    }
}

/// The output of the Gem pipeline: the composed embedding matrix plus the individual blocks
/// (useful for ablations and for downstream systems that want the raw signature).
#[derive(Debug, Clone, PartialEq)]
pub struct GemEmbedding {
    /// Final per-column embedding (one row per column), composed according to the
    /// configuration's [`crate::Composition`].
    pub matrix: Matrix,
    /// The L1-normalised distributional + statistical block (the paper's `P_i`), or the
    /// relevant subset when one of the two was disabled. Empty (0-column) when neither was
    /// requested.
    pub value_block: Matrix,
    /// The L1-normalised header block (`S_i`). Empty (0-column) when contextual features
    /// were not requested.
    pub header_block: Matrix,
    /// The raw (un-normalised) GMM signature, one row per column, rows summing to 1.
    pub signature: Matrix,
    /// The fitted GMM, exposed so callers can inspect components or assign clusters
    /// (Equation 12).
    pub gmm: Option<UnivariateGmm>,
}

impl GemEmbedding {
    /// Hard cluster assignment per column: the index of the Gaussian component with the
    /// highest mean responsibility (Equation 12 applied at column granularity).
    pub fn component_assignments(&self) -> Vec<usize> {
        (0..self.signature.rows())
            .map(|r| {
                self.signature
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Number of embedded columns.
    pub fn n_columns(&self) -> usize {
        self.matrix.rows()
    }
}

/// The Gem embedder. Construct one with a [`GemConfig`], then call
/// [`GemEmbedder::embed`] on a set of columns — or [`GemEmbedder::fit`] once and
/// [`GemModel::transform`] many times when the same corpus backs repeated requests.
#[derive(Debug, Clone)]
pub struct GemEmbedder {
    config: GemConfig,
}

impl Default for GemEmbedder {
    fn default() -> Self {
        GemEmbedder::new(GemConfig::default())
    }
}

impl GemEmbedder {
    /// Create an embedder from a configuration.
    pub fn new(config: GemConfig) -> Self {
        GemEmbedder { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GemConfig {
        &self.config
    }

    /// Embed the full Gem feature set (D+S+C) — Algorithm 1 as published.
    ///
    /// # Errors
    /// See [`GemEmbedder::embed`].
    pub fn embed_full(&self, columns: &[GemColumn]) -> Result<GemEmbedding, GemError> {
        self.embed(columns, FeatureSet::dsc())
    }

    /// Embed the numeric-only feature set (D+S) used in Table 2.
    ///
    /// # Errors
    /// See [`GemEmbedder::embed`].
    pub fn embed_numeric(&self, columns: &[GemColumn]) -> Result<GemEmbedding, GemError> {
        self.embed(columns, FeatureSet::ds())
    }

    /// Run the Gem pipeline on `columns`, using only the evidence types selected by
    /// `features` (the ablation axis of Figure 3).
    ///
    /// Steps (Algorithm 1):
    /// 1. stack all values and fit the shared GMM (skipped when D is not selected),
    /// 2. per column, compute mean responsibilities (the signature),
    /// 3. compute and standardise the statistical features (Equation 7),
    /// 4. concatenate signature and statistics and L1-normalise (Equations 8–9),
    /// 5. embed headers and L1-normalise (Equation 10),
    /// 6. compose the blocks (Equations 11/13 for concatenation, or the configured
    ///    alternative).
    ///
    /// # Errors
    /// * [`GemError::NoColumns`] when `columns` is empty,
    /// * [`GemError::EmptyFeatureSet`] when `features` selects nothing,
    /// * [`GemError::NoValues`] when D or S is selected but every column is empty,
    /// * [`GemError::Gmm`] when the EM fit fails.
    pub fn embed(
        &self,
        columns: &[GemColumn],
        features: FeatureSet,
    ) -> Result<GemEmbedding, GemError> {
        // The one-shot path is fit + transform fused over shared per-column blocks, so
        // the input is borrowed throughout (no corpus-sized clone) and the output is
        // bit-identical to fitting a model and transforming the same columns.
        GemModel::fit_transform(columns, &self.config, features).map(|(_, embedding)| embedding)
    }

    /// Fit a reusable [`GemModel`] on `columns`: the expensive corpus-level state (EM fit,
    /// Equation 7 parameters, autoencoder weights) is estimated once, after which
    /// [`GemModel::transform`] embeds any batch of columns — seen or unseen — against the
    /// frozen model.
    ///
    /// # Errors
    /// See [`GemEmbedder::embed`].
    pub fn fit(&self, columns: &[GemColumn], features: FeatureSet) -> Result<GemModel, GemError> {
        GemModel::fit(columns, &self.config, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::Composition;
    use gem_numeric::distance::cosine_similarity;

    fn corpus() -> Vec<GemColumn> {
        // Three "age-like" columns, three "price-like" columns (log-normal-ish large
        // values), two "year" columns.
        let mut cols = Vec::new();
        for s in 0..3 {
            let values: Vec<f64> = (0..80)
                .map(|i| 25.0 + ((i * 7 + s * 3) % 40) as f64 * 0.5)
                .collect();
            cols.push(GemColumn::new(values, format!("age_{s}")));
        }
        for s in 0..3 {
            let values: Vec<f64> = (0..80)
                .map(|i| 1000.0 + ((i * 13 + s * 11) % 100) as f64 * 45.0)
                .collect();
            cols.push(GemColumn::new(values, format!("price_{s}")));
        }
        for s in 0..2 {
            let values: Vec<f64> = (0..60).map(|i| 1980.0 + ((i + s) % 32) as f64).collect();
            cols.push(GemColumn::new(values, format!("year_{s}")));
        }
        cols
    }

    fn fast_embedder() -> GemEmbedder {
        GemEmbedder::new(GemConfig::fast())
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let e = fast_embedder();
        assert_eq!(
            e.embed(&[], FeatureSet::ds()).unwrap_err(),
            GemError::NoColumns
        );
        let empty_fs = FeatureSet {
            distributional: false,
            statistical: false,
            contextual: false,
        };
        assert_eq!(
            e.embed(&corpus(), empty_fs).unwrap_err(),
            GemError::EmptyFeatureSet
        );
        let empty_cols = vec![
            GemColumn::values_only(vec![]),
            GemColumn::values_only(vec![]),
        ];
        assert_eq!(
            e.embed(&empty_cols, FeatureSet::ds()).unwrap_err(),
            GemError::NoValues
        );
    }

    #[test]
    fn error_display() {
        assert!(GemError::NoColumns.to_string().contains("no columns"));
        assert!(GemError::NoValues.to_string().contains("empty"));
        assert!(GemError::EmptyFeatureSet
            .to_string()
            .contains("feature set"));
    }

    #[test]
    fn full_embedding_shapes_are_consistent() {
        let e = fast_embedder();
        let cols = corpus();
        let emb = e.embed_full(&cols).unwrap();
        assert_eq!(emb.n_columns(), cols.len());
        // D block: k components; S block: 7 features; C block: text_dim.
        let k = e.config().gmm.n_components;
        assert_eq!(emb.signature.cols(), k);
        assert_eq!(emb.value_block.cols(), k + 7);
        assert_eq!(emb.header_block.cols(), e.config().text_dim);
        assert_eq!(emb.dim(), k + 7 + e.config().text_dim);
        assert!(emb.matrix.all_finite());
        assert!(emb.gmm.is_some());
    }

    #[test]
    fn numeric_only_embedding_excludes_headers() {
        let e = fast_embedder();
        let emb = e.embed_numeric(&corpus()).unwrap();
        assert_eq!(emb.header_block.cols(), 0);
        assert_eq!(emb.dim(), e.config().gmm.n_components + 7);
    }

    #[test]
    fn value_block_rows_are_l1_normalized() {
        let e = fast_embedder();
        let emb = e.embed_numeric(&corpus()).unwrap();
        for r in 0..emb.value_block.rows() {
            let l1: f64 = emb.value_block.row(r).iter().map(|v| v.abs()).sum();
            assert!((l1 - 1.0).abs() < 1e-9, "row {r} has L1 {l1}");
        }
    }

    #[test]
    fn same_type_columns_are_more_similar_than_cross_type() {
        let e = fast_embedder();
        let emb = e.embed_numeric(&corpus()).unwrap();
        let sim =
            |a: usize, b: usize| cosine_similarity(emb.matrix.row(a), emb.matrix.row(b)).unwrap();
        // Age columns (0,1,2) should be closer to each other than to price columns (3,4,5).
        let within = (sim(0, 1) + sim(0, 2) + sim(1, 2)) / 3.0;
        let across = (sim(0, 3) + sim(1, 4) + sim(2, 5)) / 3.0;
        assert!(
            within > across,
            "within-type similarity {within} should exceed cross-type {across}"
        );
    }

    #[test]
    fn contextual_only_embedding_ignores_values() {
        let e = fast_embedder();
        let cols = vec![
            GemColumn::new(vec![1.0, 2.0], "engine_power"),
            GemColumn::new(vec![9999.0, 12345.0], "engine_power"),
            GemColumn::new(vec![1.0, 2.0], "bird_species_count"),
        ];
        let emb = e.embed(&cols, FeatureSet::c()).unwrap();
        // Identical headers give identical rows even though the values differ wildly.
        let s01 = cosine_similarity(emb.matrix.row(0), emb.matrix.row(1)).unwrap();
        let s02 = cosine_similarity(emb.matrix.row(0), emb.matrix.row(2)).unwrap();
        assert!((s01 - 1.0).abs() < 1e-9);
        assert!(s02 < 0.9);
        assert_eq!(emb.value_block.cols(), 0);
        assert!(emb.gmm.is_none());
    }

    #[test]
    fn feature_set_controls_dimensionality() {
        let e = fast_embedder();
        let cols = corpus();
        let k = e.config().gmm.n_components;
        let d = e.embed(&cols, FeatureSet::d()).unwrap();
        assert_eq!(d.dim(), k);
        let s = e.embed(&cols, FeatureSet::s()).unwrap();
        assert_eq!(s.dim(), 7);
        let c = e.embed(&cols, FeatureSet::c()).unwrap();
        assert_eq!(c.dim(), e.config().text_dim);
        let dc = e.embed(&cols, FeatureSet::dc()).unwrap();
        assert_eq!(dc.dim(), k + e.config().text_dim);
    }

    #[test]
    fn component_assignments_are_valid_indices() {
        let e = fast_embedder();
        let emb = e.embed_numeric(&corpus()).unwrap();
        let assignments = emb.component_assignments();
        assert_eq!(assignments.len(), corpus().len());
        let k = e.config().gmm.n_components;
        assert!(assignments.iter().all(|&a| a < k));
    }

    #[test]
    fn aggregation_and_autoencoder_compositions_produce_finite_embeddings() {
        let cols = corpus();
        let agg = GemEmbedder::new(GemConfig::fast().with_composition(Composition::Aggregation))
            .embed_full(&cols)
            .unwrap();
        assert!(agg.matrix.all_finite());
        assert_eq!(agg.n_columns(), cols.len());
        let ae_cfg = GemConfig::fast().with_composition(Composition::Autoencoder {
            latent_dim: 8,
            epochs: 60,
        });
        let ae = GemEmbedder::new(ae_cfg).embed_full(&cols).unwrap();
        assert_eq!(ae.dim(), 8);
        assert!(ae.matrix.all_finite());
    }

    #[test]
    fn deterministic_given_the_same_configuration() {
        let cols = corpus();
        let a = fast_embedder().embed_numeric(&cols).unwrap();
        let b = fast_embedder().embed_numeric(&cols).unwrap();
        assert_eq!(a.matrix, b.matrix);
    }

    #[test]
    fn default_embedder_uses_paper_configuration() {
        let e = GemEmbedder::default();
        assert_eq!(e.config().gmm.n_components, 50);
    }

    #[test]
    fn gem_column_json_round_trip_is_bit_exact() {
        use gem_json::{FromJson, Json, ToJson};
        let column = GemColumn::new(
            vec![1.5, -0.0, 0.0, f64::NAN, f64::INFINITY, 1e-308],
            "wei\"rd\nheader",
        );
        let text = column.to_json().to_compact_string();
        let back = GemColumn::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.header, column.header);
        let bits = |c: &GemColumn| c.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&column));
        assert!(GemColumn::from_json(&Json::Null).is_err());
    }
}
