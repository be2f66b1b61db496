//! The serving error taxonomy.
//!
//! Every way a serving request can fail is a typed [`ServeError`] variant with a
//! **stable machine-readable code** ([`ServeError::code`]) and a self-explanatory
//! message that names the remedy, not just the failure. The codes are part of the wire
//! protocol (`gem-proto` carries them verbatim in error response bodies), so clients
//! branch on `code()` — e.g. `unknown_model` ⇒ re-`Fit` and retry — instead of parsing
//! prose, and the prose can improve without breaking anyone.

use crate::handle::ModelHandle;
use gem_core::GemError;
use std::fmt;

/// A failed serving request. See [`ServeError::code`] for the stable code taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// An `Embed` named a handle that resolves in neither cache tier. The service never
    /// refits implicitly (a handle carries no corpus): the client must `Fit` first.
    UnknownModel {
        /// The handle that failed to resolve.
        handle: ModelHandle,
    },
    /// An `EmbedCorpus` named a method the registry does not know.
    UnknownMethod {
        /// The unknown method name.
        method: String,
    },
    /// The request was structurally invalid (malformed handle, missing labels, label
    /// count mismatch, …) — re-sending it unchanged can never succeed.
    InvalidRequest {
        /// Why the request was rejected.
        reason: String,
    },
    /// Fitting the model failed (empty corpus, empty feature set, EM failure, …).
    Fit(GemError),
    /// The model resolved but transforming the query columns failed.
    Transform(GemError),
    /// The store tier failed during an operation that needed it (listing models).
    Store {
        /// The underlying store error.
        message: String,
    },
    /// The work queue was full when the request arrived, so it was shed at admission
    /// instead of stalling every connection behind an unbounded backlog. The request
    /// was **not** executed; retrying after the hint is expected to succeed once the
    /// queue drains.
    Overloaded {
        /// Frames already waiting when this one was shed.
        queue_depth: u64,
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// Handling the request panicked on its executor. The server caught the panic and
    /// serves on, but this request has no answer: retrying it unchanged will most likely
    /// panic again.
    Internal,
}

impl ServeError {
    /// Every stable error code, in declaration order — the protocol's error taxonomy.
    pub const CODES: [&'static str; 8] = [
        "unknown_model",
        "unknown_method",
        "invalid_request",
        "fit_failed",
        "transform_failed",
        "store_error",
        "overloaded",
        "internal",
    ];

    /// The stable machine-readable code of this error. Codes never change meaning;
    /// clients branch on them (`unknown_model` ⇒ `Fit` then retry).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownModel { .. } => "unknown_model",
            ServeError::UnknownMethod { .. } => "unknown_method",
            ServeError::InvalidRequest { .. } => "invalid_request",
            ServeError::Fit(_) => "fit_failed",
            ServeError::Transform(_) => "transform_failed",
            ServeError::Store { .. } => "store_error",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Internal => "internal",
        }
    }

    /// Classify a method-layer [`GemError`]: label problems are the *request's* fault
    /// (retrying unchanged cannot help), everything else is a pipeline failure.
    pub(crate) fn from_method_error(error: GemError) -> Self {
        match error {
            GemError::MissingLabels(_) | GemError::LabelCountMismatch { .. } => {
                ServeError::InvalidRequest {
                    reason: error.to_string(),
                }
            }
            other => ServeError::Fit(other),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { handle } => write!(
                f,
                "no model for handle {handle}: it was never fitted here, or was evicted \
                 — send a Fit request for the corpus first (handles are resolved, never \
                 refitted implicitly)"
            ),
            ServeError::UnknownMethod { method } => {
                write!(
                    f,
                    "no method named `{method}` is registered with this service"
                )
            }
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::Fit(e) => write!(f, "fitting the model failed: {e}"),
            ServeError::Transform(e) => write!(f, "transforming the queries failed: {e}"),
            ServeError::Store { message } => write!(f, "model store operation failed: {message}"),
            ServeError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "work queue is full ({queue_depth} requests waiting): this request was \
                 shed without being executed — retry after {retry_after_ms} ms or send \
                 it to another replica"
            ),
            ServeError::Internal => write!(
                f,
                "internal server error: the request panicked on its executor — the \
                 server is still serving, but this request has no answer; please report it"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ModelKey;

    #[test]
    fn every_variant_has_a_distinct_stable_code() {
        let handle = ModelHandle::from(ModelKey {
            corpus: 1,
            config: 2,
        });
        let variants = [
            ServeError::UnknownModel { handle },
            ServeError::UnknownMethod { method: "x".into() },
            ServeError::InvalidRequest { reason: "r".into() },
            ServeError::Fit(GemError::NoValues),
            ServeError::Transform(GemError::NoColumns),
            ServeError::Store {
                message: "m".into(),
            },
            ServeError::Overloaded {
                queue_depth: 64,
                retry_after_ms: 100,
            },
            ServeError::Internal,
        ];
        let codes: Vec<&str> = variants.iter().map(|v| v.code()).collect();
        assert_eq!(codes, ServeError::CODES);
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Messages are self-explanatory: the unknown-model one names the remedy.
        assert!(variants[0].to_string().contains("Fit"));
    }

    #[test]
    fn label_errors_classify_as_invalid_requests() {
        assert_eq!(
            ServeError::from_method_error(GemError::MissingLabels("Sherlock".into())).code(),
            "invalid_request"
        );
        assert_eq!(
            ServeError::from_method_error(GemError::NoValues).code(),
            "fit_failed"
        );
    }
}
