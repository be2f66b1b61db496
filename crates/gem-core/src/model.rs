//! The fitted Gem model: the fit/transform split of Algorithm 1.
//!
//! [`crate::GemEmbedder::embed`] runs the whole pipeline in one shot, which re-fits the
//! shared GMM on every call — fine for experiments, fatal for serving, where the same
//! corpus is embedded against over and over. [`GemModel`] splits the pipeline at the
//! natural seam of the paper:
//!
//! * [`GemModel::fit`] runs the expensive, corpus-level estimation once: the EM fit of
//!   the shared GMM (§3.1), the cross-column standardisation parameters of Equation 7,
//!   and (for the autoencoder composition) the trained compression network.
//! * [`GemModel::transform`] applies the frozen model to any set of columns — the fit
//!   corpus, a single new column, or a batch of unseen queries — borrowing its input and
//!   allocating nothing proportional to the fit corpus.
//!
//! [`GemModel::fit_transform`] fuses both for the one-shot path and is **bit-identical**
//! to the pre-split `GemEmbedder::embed` (asserted by the workspace property tests).
//!
//! Both compute the per-column rows of steps 2–3 in one pass when D and S are selected:
//! the statistical row sorts the column, and the signature row reads that sorted copy to
//! evaluate the GMM once per distinct number of a low-cardinality column. The rows are
//! bit-identical to [`crate::signature_matrix`] and
//! [`crate::statistical_feature_matrix`], and `fit_transform` fits the Equation 7
//! parameters from the same raw rows it standardises.

use crate::compose::{compose, concat_blocks, fit_autoencoder, Composition};
use crate::config::{FeatureSet, GemConfig};
use crate::embedding::{GemColumn, GemEmbedding, GemError};
use crate::features::{statistical_block, value_rows, STATISTICAL_FEATURE_NAMES};
use crate::signature::{signature_matrix, stack_values};
use gem_gmm::UnivariateGmm;
use gem_json::{number, object, FromJson, Json, JsonError, ToJson};
use gem_nn::Autoencoder;
use gem_numeric::standardize::l1_normalize_rows;
use gem_numeric::Matrix;
use gem_text::{HashEmbedder, TextEmbedder};

/// Schema version written into every serialised [`GemModel`]. Bump when the envelope's
/// shape changes incompatibly; loaders reject snapshots whose version they do not
/// understand instead of misinterpreting them.
pub const GEM_MODEL_SCHEMA_VERSION: u64 = 1;

/// Frozen per-feature standardisation parameters (Equation 7), estimated on the fit
/// corpus and applied unchanged to every transformed column so new columns land in the
/// same standardised space as the corpus they are compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl FeatureScaler {
    /// Estimate per-feature mean and standard deviation over the rows of `features`
    /// (one row per column, one matrix-column per statistical feature).
    pub fn fit(features: &Matrix) -> Self {
        let cols = features.cols();
        let mut means = Vec::with_capacity(cols);
        let mut stds = Vec::with_capacity(cols);
        for c in 0..cols {
            let col = features.column(c);
            if col.is_empty() {
                means.push(0.0);
                stds.push(0.0);
                continue;
            }
            let n = col.len() as f64;
            let mean = col.iter().sum::<f64>() / n;
            let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            means.push(mean);
            stds.push(var.sqrt());
        }
        FeatureScaler { means, stds }
    }

    /// Standardise `features` with the frozen parameters. Features whose fit-corpus
    /// standard deviation is (near) zero map to zero, mirroring
    /// [`gem_numeric::standardize::standardize_columns`] — on the fit corpus itself the
    /// output is bit-identical to that function.
    ///
    /// # Panics
    /// Panics when the feature width differs from the fitted width.
    pub fn transform(&self, features: &Matrix) -> Matrix {
        assert_eq!(
            features.cols(),
            self.means.len(),
            "feature width differs from the fitted width"
        );
        let mut out = Matrix::zeros(features.rows(), features.cols());
        for r in 0..features.rows() {
            for c in 0..features.cols() {
                if self.stds[c] >= 1e-12 {
                    out.set(r, c, (features.get(r, c) - self.means[c]) / self.stds[c]);
                }
            }
        }
        out
    }

    /// Per-feature means over the fit corpus.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-feature standard deviations over the fit corpus.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

/// The per-query feature blocks computed by a frozen model, before composition.
struct Blocks {
    signature: Matrix,
    value_block: Matrix,
    header_block: Matrix,
}

/// A fitted Gem pipeline: the shared [`UnivariateGmm`], the Equation 7 standardisation
/// parameters, the header embedder and (for the autoencoder composition) the trained
/// compression network. Fit once per corpus with [`GemModel::fit`], then call
/// [`GemModel::transform`] for every batch of columns — including columns the model has
/// never seen.
#[derive(Debug, Clone)]
pub struct GemModel {
    config: GemConfig,
    features: FeatureSet,
    gmm: Option<UnivariateGmm>,
    scaler: Option<FeatureScaler>,
    text: HashEmbedder,
    autoencoder: Option<Autoencoder>,
    n_fit_columns: usize,
}

impl GemModel {
    /// Fit the corpus-level model state: stack the values and fit the shared GMM (when
    /// distributional features are selected), estimate the Equation 7 standardisation
    /// parameters (when statistical features are selected), and train the composition
    /// autoencoder (when that composition is configured).
    ///
    /// # Errors
    /// * [`GemError::NoColumns`] when `columns` is empty,
    /// * [`GemError::EmptyFeatureSet`] when `features` selects nothing,
    /// * [`GemError::NoValues`] when D or S is selected but every column is empty,
    /// * [`GemError::Gmm`] when the EM fit fails.
    pub fn fit(
        columns: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> Result<Self, GemError> {
        Self::fit_impl(columns, config, features, false).map(|(model, _)| model)
    }

    /// Fit on `columns` and embed them in one pass, sharing the per-column blocks between
    /// the two phases. This is what [`crate::GemEmbedder::embed`] runs; its output is
    /// bit-identical to fitting and then transforming the same columns.
    ///
    /// # Errors
    /// See [`GemModel::fit`].
    pub fn fit_transform(
        columns: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
    ) -> Result<(Self, GemEmbedding), GemError> {
        Self::fit_impl(columns, config, features, true)
            .map(|(model, embedding)| (model, embedding.expect("embedding requested")))
    }

    fn fit_impl(
        columns: &[GemColumn],
        config: &GemConfig,
        features: FeatureSet,
        want_embedding: bool,
    ) -> Result<(Self, Option<GemEmbedding>), GemError> {
        if columns.is_empty() {
            return Err(GemError::NoColumns);
        }
        if !features.is_non_empty() {
            return Err(GemError::EmptyFeatureSet);
        }
        let values: Vec<&[f64]> = columns.iter().map(|c| c.values.as_slice()).collect();

        // 1. The shared GMM over the stacked corpus (Algorithm 1, step 1).
        let gmm = if features.distributional {
            let stacked = stack_values(&values);
            if stacked.is_empty() {
                return Err(GemError::NoValues);
            }
            Some(UnivariateGmm::fit(&stacked, &config.gmm)?)
        } else {
            None
        };

        if features.statistical && values.iter().all(|v| v.is_empty()) {
            return Err(GemError::NoValues);
        }

        // The concatenation/aggregation compositions are stateless, so a pure fit needs
        // no signature; the autoencoder must be trained on the fit corpus's blocks.
        let train_ae = matches!(config.composition, Composition::Autoencoder { .. });
        let embed = want_embedding || train_ae;
        // Equation 7 parameters, estimated across the fit corpus from the same raw rows
        // the embedding standardises.
        let signature_gmm = if embed { gmm.as_ref() } else { None };
        let (signature, raw_stats) = raw_blocks(
            signature_gmm,
            features.statistical,
            &values,
            config.parallel,
        );
        let scaler = features.statistical.then(|| FeatureScaler::fit(&raw_stats));

        let mut model = GemModel {
            config: config.clone(),
            features,
            gmm,
            scaler,
            text: HashEmbedder::new(config.text_dim),
            autoencoder: None,
            n_fit_columns: columns.len(),
        };
        if !embed {
            return Ok((model, None));
        }

        let blocks = model.compute_blocks(columns, signature, &raw_stats);
        // The concatenated matrix trains the autoencoder and is handed on to the fused
        // embedding so it isn't rebuilt; degenerate all-zero-width blocks (unreachable
        // through the public constructors, which enforce k ≥ 1 / text_dim ≥ 2) skip the
        // training, mirroring the one-shot compose guard.
        let mut ae_input: Option<Matrix> = None;
        if let Composition::Autoencoder { latent_dim, epochs } = config.composition {
            let parts = present_blocks(&blocks);
            if !parts.is_empty() {
                let concatenated = concat_blocks(&parts);
                model.autoencoder = Some(fit_autoencoder(&concatenated, latent_dim, epochs));
                ae_input = Some(concatenated);
            }
        }
        let embedding = want_embedding.then(|| model.compose_embedding(blocks, ae_input));
        Ok((model, embedding))
    }

    /// Fold `new_columns` into this fitted model **incrementally**: the expensive
    /// corpus-level estimates — the EM-fitted GMM, the Equation 7 scaler, the trained
    /// autoencoder — are reused frozen, so the update computes nothing per column and
    /// only grows the corpus accounting. The hash embedder needs no retraining for the
    /// new headers: its vocabulary is the feature-hash space itself, so unseen tokens
    /// already have well-defined coordinates.
    ///
    /// The updated model is the Rao-Blackwellised serving story for corpus growth: a
    /// replica absorbs `new_columns` without re-running EM over the grown stack. The
    /// price is that the update is an approximation — the GMM components and
    /// standardisation parameters still describe the parent corpus. By construction,
    /// embeds of columns the parent has seen are **bit-identical** between parent and
    /// updated model, and the new columns embed like any unseen query; callers that need
    /// the parameters re-estimated run a full [`GemModel::fit`] instead.
    ///
    /// Identity bookkeeping (the updated fingerprint and the recorded `parent` lineage)
    /// lives with the store/serving layer, which knows the model's key.
    ///
    /// # Errors
    /// [`GemError::NoColumns`] when `new_columns` is empty — an empty update is almost
    /// certainly a caller bug, and admitting it would mint a second key for the same
    /// model state.
    pub fn fit_update(&self, new_columns: &[GemColumn]) -> Result<Self, GemError> {
        if new_columns.is_empty() {
            return Err(GemError::NoColumns);
        }
        let mut updated = self.clone();
        updated.n_fit_columns = self.n_fit_columns + new_columns.len();
        Ok(updated)
    }

    /// Embed `columns` against the frozen model — steps 2–6 of Algorithm 1 with every
    /// corpus-level estimate (GMM, Equation 7 parameters, autoencoder weights) reused
    /// rather than re-fitted. The input is borrowed; nothing proportional to the fit
    /// corpus is allocated or cloned.
    ///
    /// The columns need not be the fit corpus: unseen columns are projected into the
    /// corpus's signature and standardised-feature space, which is what a serving system
    /// needs to embed queries against a cached model. Columns with no finite values get
    /// the GMM's prior weights as their signature (and zero raw statistics), so degenerate
    /// queries degrade gracefully instead of erroring.
    ///
    /// # Errors
    /// [`GemError::NoColumns`] when `columns` is empty.
    pub fn transform(&self, columns: &[GemColumn]) -> Result<GemEmbedding, GemError> {
        if columns.is_empty() {
            return Err(GemError::NoColumns);
        }
        let values: Vec<&[f64]> = columns.iter().map(|c| c.values.as_slice()).collect();
        let (signature, raw_stats) = raw_blocks(
            self.gmm.as_ref(),
            self.features.statistical,
            &values,
            self.config.parallel,
        );
        Ok(self.compose_embedding(self.compute_blocks(columns, signature, &raw_stats), None))
    }

    /// Steps 3–5 from the per-column rows: standardised statistics, value and header
    /// blocks for `columns`, whose signature and raw statistical rows [`raw_blocks`]
    /// computed.
    fn compute_blocks(
        &self,
        columns: &[GemColumn],
        signature: Matrix,
        raw_stats: &Matrix,
    ) -> Blocks {
        let n = columns.len();

        // 3. Statistical features, standardised with the frozen Equation 7 parameters.
        let statistical = match &self.scaler {
            Some(scaler) => scaler.transform(raw_stats),
            None => Matrix::zeros(n, 0),
        };

        // 4. Augmented value block, L1-normalised (Equations 8–9). The standardised
        // statistical block is first brought onto the same per-row mass as the signature
        // (whose rows are probability vectors summing to 1); without this balancing the
        // seven statistical z-scores carry several times the L1 mass of the signature and
        // drown out the distributional evidence in cosine space.
        let value_block = if self.features.distributional || self.features.statistical {
            let balanced_stats = if self.features.distributional && statistical.cols() > 0 {
                l1_normalize_rows(&statistical)
            } else {
                statistical.clone()
            };
            let augmented = signature
                .hconcat(&balanced_stats)
                .expect("same number of columns by construction");
            l1_normalize_rows(&augmented)
        } else {
            Matrix::zeros(n, 0)
        };

        // 5. Contextual block, L1-normalised (Equation 10).
        let header_block = if self.features.contextual {
            let rows: Vec<Vec<f64>> = columns.iter().map(|c| self.text.embed(&c.header)).collect();
            let m = Matrix::from_rows(&rows).expect("uniform embedder output width");
            l1_normalize_rows(&m)
        } else {
            Matrix::zeros(n, 0)
        };

        Blocks {
            signature,
            value_block,
            header_block,
        }
    }

    /// Step 6: merge the blocks (Equations 11/13 or the configured alternative), using
    /// the autoencoder trained at fit time instead of re-training per call.
    /// `precomputed_concat` lets the fused fit path reuse the concatenated matrix it
    /// just trained the autoencoder on instead of rebuilding it.
    fn compose_embedding(
        &self,
        blocks: Blocks,
        precomputed_concat: Option<Matrix>,
    ) -> GemEmbedding {
        let Blocks {
            signature,
            value_block,
            header_block,
        } = blocks;
        let mut parts: Vec<&Matrix> = Vec::new();
        if value_block.cols() > 0 {
            parts.push(&value_block);
        }
        if header_block.cols() > 0 {
            parts.push(&header_block);
        }
        let matrix = match self.config.composition {
            Composition::Autoencoder { latent_dim, .. } => match &self.autoencoder {
                Some(ae) => {
                    let concatenated = precomputed_concat.unwrap_or_else(|| concat_blocks(&parts));
                    ae.encode(&concatenated)
                }
                // Only reachable when every block had zero width (degenerate
                // configuration); mirror the one-shot compose guard's empty output.
                None => Matrix::zeros(value_block.rows(), latent_dim.max(1)),
            },
            composition => compose(&parts, composition),
        };
        GemEmbedding {
            matrix,
            value_block,
            header_block,
            signature,
            gmm: self.gmm.clone(),
        }
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &GemConfig {
        &self.config
    }

    /// The feature set the model embeds with.
    pub fn features(&self) -> FeatureSet {
        self.features
    }

    /// The fitted shared GMM (`None` when distributional features are not selected).
    pub fn gmm(&self) -> Option<&UnivariateGmm> {
        self.gmm.as_ref()
    }

    /// The frozen Equation 7 standardisation parameters (`None` when statistical features
    /// are not selected).
    pub fn scaler(&self) -> Option<&FeatureScaler> {
        self.scaler.as_ref()
    }

    /// Number of columns in the fit corpus.
    pub fn n_fit_columns(&self) -> usize {
        self.n_fit_columns
    }

    /// EM iterations the winning GMM restart ran at fit time (`0` when distributional
    /// features are not selected). A [`GemModel::fit_update`] inherits the parent's
    /// count — its whole point is that no new EM iterations run.
    pub fn em_iterations(&self) -> usize {
        self.gmm.as_ref().map_or(0, UnivariateGmm::n_iterations)
    }

    /// Dimensionality of the embeddings [`GemModel::transform`] produces.
    pub fn dim(&self) -> usize {
        let k = self.gmm.as_ref().map_or(0, UnivariateGmm::n_components);
        let s = if self.features.statistical {
            STATISTICAL_FEATURE_NAMES.len()
        } else {
            0
        };
        let value = k + s;
        let header = if self.features.contextual {
            self.config.text_dim
        } else {
            0
        };
        match self.config.composition {
            Composition::Concatenation => value + header,
            Composition::Aggregation => {
                // Aggregation zero-pads the present blocks to a common width.
                match (value, header) {
                    (0, h) => h,
                    (v, 0) => v,
                    (v, h) => v.max(h),
                }
            }
            Composition::Autoencoder { latent_dim, .. } => self.autoencoder.as_ref().map_or_else(
                || latent_dim.max(1).min(value + header),
                Autoencoder::latent_dim,
            ),
        }
    }
}

impl GemModel {
    /// Approximate resident memory of the fitted state, in bytes: GMM parameters,
    /// standardisation parameters and autoencoder weights (each 8 bytes per `f64`) plus
    /// the struct overhead. Reported as the serving cache's resident bytes; the
    /// estimate deliberately ignores allocator overhead and small container headers.
    pub fn approx_mem_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<GemModel>() as u64;
        if let Some(gmm) = &self.gmm {
            // weights + means + variances.
            bytes += 3 * 8 * gmm.n_components() as u64;
        }
        if let Some(scaler) = &self.scaler {
            bytes += 8 * (scaler.means.len() + scaler.stds.len()) as u64;
        }
        if let Some(ae) = &self.autoencoder {
            bytes += 8 * ae.n_parameters() as u64;
        }
        // Per-header scratch vector of the hash embedder.
        bytes += 8 * self.config.text_dim as u64;
        bytes
    }
}

/// Bit-exact JSON persistence of the frozen standardisation parameters: the arrays use
/// the IEEE-754 bit encoding, so a reloaded scaler standardises bit-identically.
impl ToJson for FeatureScaler {
    fn to_json(&self) -> Json {
        object(vec![
            ("means", gem_json::bits_array(&self.means)),
            ("stds", gem_json::bits_array(&self.stds)),
        ])
    }
}

impl FromJson for FeatureScaler {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let means = gem_json::as_bits_array(value.field("means")?)?;
        let stds = gem_json::as_bits_array(value.field("stds")?)?;
        if means.len() != stds.len() {
            return Err(JsonError::conversion(
                "scaler means and stds must be equal-length",
            ));
        }
        Ok(FeatureScaler { means, stds })
    }
}

/// JSON persistence of the **entire** fitted model — the envelope the `gem-store`
/// crate's `ModelStore` writes to disk. Every fitted component
/// round-trips exactly (the GMM via shortest-round-trip decimals, the scaler and
/// autoencoder weights via IEEE-754 bit patterns), so a model reloaded in a fresh
/// process produces **bit-identical** [`GemModel::transform`] output — no EM re-fit, no
/// autoencoder re-training. The envelope carries [`GEM_MODEL_SCHEMA_VERSION`] and the
/// full fit configuration, and the loader cross-validates the component set against the
/// feature set so a corrupted or hand-edited snapshot fails at load time rather than at
/// serve time.
impl ToJson for GemModel {
    fn to_json(&self) -> Json {
        let opt = |component: Option<Json>| component.unwrap_or(Json::Null);
        object(vec![
            ("schema_version", number(GEM_MODEL_SCHEMA_VERSION as f64)),
            ("config", self.config.to_json()),
            ("features", self.features.to_json()),
            ("gmm", opt(self.gmm.as_ref().map(ToJson::to_json))),
            ("scaler", opt(self.scaler.as_ref().map(ToJson::to_json))),
            ("text", self.text.to_json()),
            (
                "autoencoder",
                opt(self.autoencoder.as_ref().map(ToJson::to_json)),
            ),
            ("n_fit_columns", number(self.n_fit_columns as f64)),
        ])
    }
}

impl FromJson for GemModel {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let schema_version = value.num_field("schema_version")? as u64;
        if schema_version != GEM_MODEL_SCHEMA_VERSION {
            return Err(JsonError::conversion(format!(
                "unsupported GemModel schema version {schema_version} \
                 (this build reads version {GEM_MODEL_SCHEMA_VERSION})"
            )));
        }
        let config = GemConfig::from_json(value.field("config")?)?;
        let features = FeatureSet::from_json(value.field("features")?)?;
        if !features.is_non_empty() {
            return Err(JsonError::conversion(
                "persisted model selects no evidence type",
            ));
        }
        let optional = |key: &str| -> Result<Option<&Json>, JsonError> {
            let field = value.field(key)?;
            Ok(if field.is_null() { None } else { Some(field) })
        };
        let gmm = optional("gmm")?.map(UnivariateGmm::from_json).transpose()?;
        let scaler = optional("scaler")?
            .map(FeatureScaler::from_json)
            .transpose()?;
        let text = HashEmbedder::from_json(value.field("text")?)?;
        let autoencoder = optional("autoencoder")?
            .map(Autoencoder::from_json)
            .transpose()?;

        // Cross-field validation: the component set must match what a fit with this
        // feature set would have produced.
        if features.distributional != gmm.is_some() {
            return Err(JsonError::conversion(
                "distributional feature flag disagrees with GMM presence",
            ));
        }
        if features.statistical != scaler.is_some() {
            return Err(JsonError::conversion(
                "statistical feature flag disagrees with scaler presence",
            ));
        }
        // A scaler of the wrong width would pass its own (internally consistent)
        // round-trip but panic at transform time; reject it while we can still name the
        // file, not the request.
        if let Some(scaler) = &scaler {
            if scaler.means.len() != STATISTICAL_FEATURE_NAMES.len() {
                return Err(JsonError::conversion(format!(
                    "scaler has {} features, the statistical block computes {}",
                    scaler.means.len(),
                    STATISTICAL_FEATURE_NAMES.len()
                )));
            }
        }
        if text.dim() != config.text_dim {
            return Err(JsonError::conversion(
                "text embedder dimension disagrees with the configuration",
            ));
        }
        let ae_composition = matches!(config.composition, Composition::Autoencoder { .. });
        if autoencoder.is_some() && !ae_composition {
            return Err(JsonError::conversion(
                "autoencoder present but the composition is not autoencoder",
            ));
        }
        Ok(GemModel {
            config,
            features,
            gmm,
            scaler,
            text,
            autoencoder,
            n_fit_columns: value.num_field("n_fit_columns")? as usize,
        })
    }
}

/// Steps 2 and 3 before standardisation: each column's signature row under `gmm` (per-
/// column mean responsibilities, n × k) and, when `statistical` is set, its raw
/// statistical row (n × 7); a block not selected is n × 0. D+S computes both rows of a
/// column in one pass under one fan-out ([`value_rows`]); D-only and S-only run their
/// own block.
fn raw_blocks(
    gmm: Option<&UnivariateGmm>,
    statistical: bool,
    values: &[&[f64]],
    parallel: bool,
) -> (Matrix, Matrix) {
    let none = || Matrix::zeros(values.len(), 0);
    match (gmm, statistical) {
        (Some(gmm), true) => value_rows(gmm, values, parallel),
        (Some(gmm), false) => (signature_matrix(gmm, values, parallel), none()),
        (None, true) => (none(), statistical_block(values, parallel)),
        (None, false) => (none(), none()),
    }
}

fn present_blocks(blocks: &Blocks) -> Vec<&Matrix> {
    let mut parts = Vec::new();
    if blocks.value_block.cols() > 0 {
        parts.push(&blocks.value_block);
    }
    if blocks.header_block.cols() > 0 {
        parts.push(&blocks.header_block);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{
        statistical_feature_matrix, value_rows_serial_values, STATISTICAL_FANOUT_VALUES,
    };
    use crate::signature::SIGNATURE_FANOUT_CELLS;

    fn corpus() -> Vec<GemColumn> {
        let mut cols = Vec::new();
        for s in 0..3 {
            let values: Vec<f64> = (0..70)
                .map(|i| 20.0 + ((i * 5 + s * 7) % 50) as f64 * 0.4)
                .collect();
            cols.push(GemColumn::new(values, format!("age_{s}")));
        }
        for s in 0..3 {
            let values: Vec<f64> = (0..70)
                .map(|i| 2000.0 + ((i * 11 + s * 3) % 90) as f64 * 55.0)
                .collect();
            cols.push(GemColumn::new(values, format!("price_{s}")));
        }
        cols
    }

    #[test]
    fn fit_transform_matches_fit_then_transform_exactly() {
        let cols = corpus();
        let config = GemConfig::fast();
        for features in [
            FeatureSet::d(),
            FeatureSet::s(),
            FeatureSet::c(),
            FeatureSet::ds(),
            FeatureSet::dsc(),
        ] {
            let (model, fused) = GemModel::fit_transform(&cols, &config, features).unwrap();
            let separate = model.transform(&cols).unwrap();
            assert_eq!(fused.matrix, separate.matrix, "{}", features.label());
            assert_eq!(fused.signature, separate.signature);
            assert_eq!(fused.value_block, separate.value_block);
            assert_eq!(fused.header_block, separate.header_block);
        }
    }

    #[test]
    fn transform_embeds_columns_unseen_at_fit_time() {
        let cols = corpus();
        let model = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::ds()).unwrap();
        let unseen = vec![
            GemColumn::new(
                (0..40).map(|i| 25.0 + (i % 30) as f64 * 0.6).collect(),
                "age_new",
            ),
            GemColumn::new(
                (0..40).map(|i| 2500.0 + (i % 40) as f64 * 60.0).collect(),
                "price_new",
            ),
        ];
        let emb = model.transform(&unseen).unwrap();
        assert_eq!(emb.n_columns(), 2);
        assert_eq!(emb.dim(), model.dim());
        assert!(emb.matrix.all_finite());
        // The unseen age-like column should be closer to the corpus age columns than the
        // unseen price-like column is.
        let corpus_emb = model.transform(&cols).unwrap();
        let sim = |a: &[f64], b: &[f64]| gem_numeric::distance::cosine_similarity(a, b).unwrap();
        assert!(
            sim(emb.matrix.row(0), corpus_emb.matrix.row(0))
                > sim(emb.matrix.row(1), corpus_emb.matrix.row(0))
        );
    }

    #[test]
    fn transform_of_empty_valued_column_falls_back_to_the_prior() {
        let cols = corpus();
        let model = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::d()).unwrap();
        let emb = model.transform(&[GemColumn::values_only(vec![])]).unwrap();
        let weights = model.gmm().unwrap().weights();
        for (a, b) in emb.signature.row(0).iter().zip(weights) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        let config = GemConfig::fast();
        assert_eq!(
            GemModel::fit(&[], &config, FeatureSet::ds()).unwrap_err(),
            GemError::NoColumns
        );
        let empty_fs = FeatureSet {
            distributional: false,
            statistical: false,
            contextual: false,
        };
        assert_eq!(
            GemModel::fit(&corpus(), &config, empty_fs).unwrap_err(),
            GemError::EmptyFeatureSet
        );
        let empty_cols = vec![GemColumn::values_only(vec![])];
        assert_eq!(
            GemModel::fit(&empty_cols, &config, FeatureSet::ds()).unwrap_err(),
            GemError::NoValues
        );
        let model = GemModel::fit(&corpus(), &config, FeatureSet::ds()).unwrap();
        assert_eq!(model.transform(&[]).unwrap_err(), GemError::NoColumns);
    }

    #[test]
    fn autoencoder_composition_is_frozen_at_fit_time() {
        let cols = corpus();
        let config = GemConfig::fast().with_composition(Composition::Autoencoder {
            latent_dim: 6,
            epochs: 40,
        });
        let (model, fused) = GemModel::fit_transform(&cols, &config, FeatureSet::ds()).unwrap();
        assert_eq!(fused.dim(), 6);
        assert_eq!(model.dim(), 6);
        // Transforming twice gives identical output: the autoencoder is not re-trained.
        let a = model.transform(&cols).unwrap();
        let b = model.transform(&cols).unwrap();
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.matrix, fused.matrix);
    }

    #[test]
    fn scaler_matches_corpus_standardisation_and_reports_parameters() {
        let features =
            Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]]).unwrap();
        let scaler = FeatureScaler::fit(&features);
        assert_eq!(scaler.means(), &[3.0, 5.0]);
        // Constant feature: std 0 → transformed to zero.
        let out = scaler.transform(&features);
        assert_eq!(
            out,
            gem_numeric::standardize::standardize_columns(&features)
        );
        assert_eq!(out.column(1), vec![0.0, 0.0, 0.0]);
        assert_eq!(scaler.stds().len(), 2);
    }

    fn reparse(json: &Json) -> Json {
        Json::parse(&json.to_pretty_string()).unwrap()
    }

    #[test]
    fn model_round_trips_through_json_with_bit_identical_transform() {
        let cols = corpus();
        for (config, features) in [
            (GemConfig::fast(), FeatureSet::dsc()),
            (GemConfig::fast(), FeatureSet::d()),
            (
                GemConfig::fast().with_composition(Composition::Autoencoder {
                    latent_dim: 5,
                    epochs: 25,
                }),
                FeatureSet::ds(),
            ),
        ] {
            let model = GemModel::fit(&cols, &config, features).unwrap();
            let restored = GemModel::from_json(&reparse(&model.to_json())).unwrap();
            assert_eq!(restored.features(), model.features());
            assert_eq!(restored.config(), model.config());
            assert_eq!(restored.n_fit_columns(), model.n_fit_columns());
            assert_eq!(restored.dim(), model.dim());
            let a = model.transform(&cols).unwrap();
            let b = restored.transform(&cols).unwrap();
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.value_block, b.value_block);
            assert_eq!(a.header_block, b.header_block);
        }
    }

    #[test]
    fn model_decoding_rejects_version_and_consistency_violations() {
        let model = GemModel::fit(&corpus(), &GemConfig::fast(), FeatureSet::ds()).unwrap();
        let tamper = |key: &str, new_value: Json| {
            let mut pairs = match model.to_json() {
                Json::Object(pairs) => pairs,
                _ => unreachable!(),
            };
            for pair in pairs.iter_mut() {
                if pair.0 == key {
                    pair.1 = new_value.clone();
                }
            }
            Json::Object(pairs)
        };
        // Future schema version.
        let err = GemModel::from_json(&tamper("schema_version", number(99.0))).unwrap_err();
        assert!(err.message.contains("schema version"), "{err}");
        // GMM missing although distributional features are selected.
        assert!(GemModel::from_json(&tamper("gmm", Json::Null)).is_err());
        // Scaler missing although statistical features are selected.
        assert!(GemModel::from_json(&tamper("scaler", Json::Null)).is_err());
        // Scaler present but of the wrong width (internally consistent, so only the
        // cross-field check can catch it before transform panics).
        let narrow = FeatureScaler {
            means: vec![0.0; 6],
            stds: vec![1.0; 6],
        };
        let err = GemModel::from_json(&tamper("scaler", narrow.to_json())).unwrap_err();
        assert!(err.message.contains("6"), "{err}");
        // Unsolicited autoencoder.
        let ae_cfg = GemConfig::fast().with_composition(Composition::Autoencoder {
            latent_dim: 4,
            epochs: 10,
        });
        let ae_model = GemModel::fit(&corpus(), &ae_cfg, FeatureSet::ds()).unwrap();
        let mut pairs = match ae_model.to_json() {
            Json::Object(pairs) => pairs,
            _ => unreachable!(),
        };
        for pair in pairs.iter_mut() {
            if pair.0 == "config" {
                pair.1 = GemConfig::fast().to_json();
            }
        }
        assert!(GemModel::from_json(&Json::Object(pairs)).is_err());
        // The untampered envelope still loads.
        assert!(GemModel::from_json(&model.to_json()).is_ok());
    }

    #[test]
    fn approx_mem_bytes_tracks_fitted_components() {
        let cols = corpus();
        let small = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::d()).unwrap();
        let larger = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::dsc()).unwrap();
        assert!(small.approx_mem_bytes() > 0);
        assert!(larger.approx_mem_bytes() > small.approx_mem_bytes());
        let ae_cfg = GemConfig::fast().with_composition(Composition::Autoencoder {
            latent_dim: 6,
            epochs: 10,
        });
        let with_ae = GemModel::fit(&cols, &ae_cfg, FeatureSet::dsc()).unwrap();
        assert!(with_ae.approx_mem_bytes() > larger.approx_mem_bytes());
    }

    #[test]
    fn model_exposes_fit_metadata() {
        let cols = corpus();
        let model = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::dsc()).unwrap();
        assert_eq!(model.n_fit_columns(), cols.len());
        assert_eq!(model.features(), FeatureSet::dsc());
        assert!(model.gmm().is_some());
        assert!(model.scaler().is_some());
        assert_eq!(
            model.config().gmm.n_components,
            GemConfig::fast().gmm.n_components
        );
        let k = model.gmm().unwrap().n_components();
        assert_eq!(model.dim(), k + 7 + model.config().text_dim);
    }

    fn growth_columns() -> Vec<GemColumn> {
        vec![
            GemColumn::new(
                (0..60).map(|i| 22.0 + (i % 25) as f64 * 0.8).collect(),
                "age_new",
            ),
            GemColumn::new(
                (0..60).map(|i| 1800.0 + (i % 35) as f64 * 45.0).collect(),
                "price_new",
            ),
        ]
    }

    #[test]
    fn fit_update_keeps_old_column_embeddings_bit_identical() {
        let cols = corpus();
        let parent = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::dsc()).unwrap();
        let updated = parent.fit_update(&growth_columns()).unwrap();
        // Frozen components → every column the parent has seen embeds to the same bits.
        let before = parent.transform(&cols).unwrap();
        let after = updated.transform(&cols).unwrap();
        assert_eq!(before.matrix, after.matrix);
        assert_eq!(before.signature, after.signature);
        // The update only grows the corpus accounting; dimensionality and the EM
        // iteration count are inherited.
        assert_eq!(updated.n_fit_columns(), cols.len() + 2);
        assert_eq!(updated.dim(), parent.dim());
        assert_eq!(updated.em_iterations(), parent.em_iterations());
        assert!(parent.em_iterations() > 0);
        // And the new columns are embeddable against the updated model.
        let grown = updated.transform(&growth_columns()).unwrap();
        assert_eq!(grown.n_columns(), 2);
        assert!(grown.matrix.all_finite());
    }

    #[test]
    fn fit_update_chains_accumulate_corpus_accounting() {
        let cols = corpus();
        let parent = GemModel::fit(&cols, &GemConfig::fast(), FeatureSet::ds()).unwrap();
        let step1 = parent.fit_update(&growth_columns()).unwrap();
        let step2 = step1.fit_update(&growth_columns()[..1]).unwrap();
        assert_eq!(step2.n_fit_columns(), cols.len() + 3);
        let before = parent.transform(&cols).unwrap();
        let after = step2.transform(&cols).unwrap();
        assert_eq!(before.matrix, after.matrix);
    }

    #[test]
    fn fit_update_rejects_empty_updates() {
        let model = GemModel::fit(&corpus(), &GemConfig::fast(), FeatureSet::ds()).unwrap();
        assert_eq!(model.fit_update(&[]).unwrap_err(), GemError::NoColumns);
    }

    #[test]
    fn serial_and_parallel_model_fits_are_bit_identical() {
        let serial_cfg = GemConfig::fast().with_parallel(false);
        let parallel_cfg = GemConfig::fast().with_parallel(true);
        // Four differently scaled columns holding `total_values` values between them.
        let batch = |total_values: usize| -> Vec<GemColumn> {
            let queries: Vec<GemColumn> = (0..4)
                .map(|c| {
                    let len = total_values / 4 + usize::from(c < total_values % 4);
                    let values = (0..len)
                        .map(|i| (20.0 + ((i * 7 + c) % 90) as f64 * 40.0) * (c + 1) as f64);
                    GemColumn::new(values.collect(), format!("gate_{c}"))
                })
                .collect();
            assert_eq!(
                queries.iter().map(|q| q.values.len()).sum::<usize>(),
                total_values
            );
            queries
        };
        // The statistical-only model has no GMM and fits on a corpus above the
        // statistical gate, so its fit fans out too.
        for (features, cols) in [
            (FeatureSet::dsc(), corpus()),
            (FeatureSet::d(), corpus()),
            (FeatureSet::s(), batch(STATISTICAL_FANOUT_VALUES + 1)),
        ] {
            let (serial, serial_emb) =
                GemModel::fit_transform(&cols, &serial_cfg, features).unwrap();
            let (parallel, parallel_emb) =
                GemModel::fit_transform(&cols, &parallel_cfg, features).unwrap();
            assert_eq!(serial_emb.matrix, parallel_emb.matrix);
            // Query batches on either side of the work gate the feature set's pass
            // uses: the largest that stays on the calling thread and the smallest that
            // fans out. D+S fills both rows of a column in one fan-out.
            let k = serial.gmm().map_or(0, UnivariateGmm::n_components);
            let gate = match (features.distributional, features.statistical) {
                (true, true) => value_rows_serial_values(k),
                (true, false) => SIGNATURE_FANOUT_CELLS / k,
                _ => STATISTICAL_FANOUT_VALUES,
            };
            for total_values in [gate, gate + 1] {
                let queries = batch(total_values);
                assert_eq!(
                    serial.transform(&queries).unwrap().matrix,
                    parallel.transform(&queries).unwrap().matrix,
                    "{} at {total_values} values",
                    features.label()
                );
            }
            let (Some(sg), Some(pg)) = (serial.gmm(), parallel.gmm()) else {
                continue;
            };
            for (a, b) in sg.weights().iter().zip(pg.weights()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in sg.means().iter().zip(pg.means()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in sg.variances().iter().zip(pg.variances()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Columns exercising every edge of the fused pass (NaN, ±inf, signed zeros in both
    /// orders, all-equal, single-value and empty columns), then alternating
    /// integer-valued columns (few distinct values: one GMM row per distinct number)
    /// and continuous ones (the per-value kernel) until the batch holds exactly
    /// `total_values` values.
    fn edge_batch(total_values: usize) -> Vec<GemColumn> {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut cols: Vec<GemColumn> = [
            vec![30.0, nan, 45.0, 30.0, nan, 45.0, 30.0, 30.0],
            [inf, -inf, 40.0].repeat(8),
            vec![-0.0, 0.0, 0.0, -0.0, 25.0, 25.0, -0.0, 0.0],
            vec![0.0, -0.0, -0.0, 0.0, 25.0, 0.0, -0.0, 25.0],
            vec![33.0; 16],
            vec![33.0],
            vec![],
        ]
        .into_iter()
        .enumerate()
        .map(|(i, values)| GemColumn::new(values, format!("edge_{i}")))
        .collect();
        let edges: usize = cols.iter().map(|c| c.values.len()).sum();
        let mut left = total_values - edges;
        for c in 0.. {
            if left == 0 {
                break;
            }
            let len = left.min(300);
            let values = (0..len).map(|i| {
                if c % 2 == 0 {
                    20.0 + ((i * 7 + c) % 13) as f64 * 5.0
                } else {
                    20.0 + ((i * 37 + c * 11) % 997) as f64 * 0.173
                }
            });
            cols.push(GemColumn::new(values.collect(), format!("fill_{c}")));
            left -= len;
        }
        cols
    }

    /// The embedding `model` must give `columns`, composed from the public blocks:
    /// `signature_matrix`, and `statistical_feature_matrix` standardised by the
    /// model's `FeatureScaler`, joined by Equations 8–9, next to the header block.
    /// Returns the signature and the composed matrix.
    fn composed_from_public_blocks(model: &GemModel, columns: &[GemColumn]) -> (Matrix, Matrix) {
        let values: Vec<&[f64]> = columns.iter().map(|c| c.values.as_slice()).collect();
        let signature = signature_matrix(model.gmm().unwrap(), &values, false);
        let scaler = model.scaler().unwrap();
        let stats = scaler.transform(&statistical_feature_matrix(&values));
        let value_block =
            l1_normalize_rows(&signature.hconcat(&l1_normalize_rows(&stats)).unwrap());
        let text = HashEmbedder::new(model.config().text_dim);
        let headers: Vec<Vec<f64>> = columns.iter().map(|c| text.embed(&c.header)).collect();
        let header_block = l1_normalize_rows(&Matrix::from_rows(&headers).unwrap());
        let matrix = compose(&[&value_block, &header_block], model.config().composition);
        (signature, matrix)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_pass_equals_the_composed_public_blocks_on_both_sides_of_the_gate() {
        for parallel in [false, true] {
            let config = GemConfig::fast().with_parallel(parallel);
            let k = config.gmm.n_components;
            let frozen = GemModel::fit(&corpus(), &config, FeatureSet::dsc()).unwrap();
            let gate = value_rows_serial_values(k);
            for total_values in [gate, gate + 1] {
                let cols = edge_batch(total_values);
                let label = format!("parallel {parallel}, {total_values} values");
                // fit_transform: the scaler comes from the public statistical rows.
                let (model, fused) =
                    GemModel::fit_transform(&cols, &config, FeatureSet::dsc()).unwrap();
                assert_eq!(model.gmm().unwrap().n_components(), k);
                let values: Vec<&[f64]> = cols.iter().map(|c| c.values.as_slice()).collect();
                let scaler = FeatureScaler::fit(&statistical_feature_matrix(&values));
                let fitted = model.scaler().unwrap();
                assert_eq!(bits(fitted.means()), bits(scaler.means()), "{label}");
                assert_eq!(bits(fitted.stds()), bits(scaler.stds()), "{label}");
                // transform, of the fit corpus and against a model fitted elsewhere.
                for (model, embedding) in [
                    (&model, fused),
                    (&model, model.transform(&cols).unwrap()),
                    (&frozen, frozen.transform(&cols).unwrap()),
                ] {
                    let (signature, matrix) = composed_from_public_blocks(model, &cols);
                    let got = &embedding.signature;
                    assert_eq!(bits(got.as_slice()), bits(signature.as_slice()), "{label}");
                    let got = &embedding.matrix;
                    assert_eq!(bits(got.as_slice()), bits(matrix.as_slice()), "{label}");
                }
            }
        }
    }
}
