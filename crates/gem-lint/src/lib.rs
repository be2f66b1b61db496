//! # gem-lint
//!
//! Workspace-aware static analysis for the Gem serving stack: six invariants that the
//! test suite cannot economically enforce (they are properties of *all* code paths,
//! not of any single input) become machine-checked rules over the source tree.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `L1` | **lock discipline** — serving locks go through `gem_serve::sync::lock_or_recover` (never `.lock().unwrap()`), and no guard stays live across an EM fit, a transform, or model-store I/O |
//! | `L2` | **no silent refit** — `gem-serve`'s service/engine/net modules never call `GemEmbedder::embed` / `fit_transform`; unknown handles stay typed errors |
//! | `L3` | **panic-free wire** — no `unwrap`/`expect`/`panic!`/slice-indexing in `net.rs`, `client.rs`, `framing.rs`, the dispatch layer (`service.rs`, `engine.rs`), or anywhere in `gem-proto` or `gem-router` |
//! | `L4` | **protocol bump** — `gem-proto`'s body shapes are fingerprinted into `wire-fingerprint.json`; a shape change without a `PROTOCOL_VERSION` bump is an error |
//! | `L5` | **bit-exactness** — no decimal float formatting and no `as f32`/`as f64` casts in `gem-store`, `gem-proto`, or `persist` modules |
//! | `L6` | **dispatch seam** — embedding-method structs are constructed only inside the `MethodRegistry` wiring |
//!
//! Test code (`#[cfg(test)]` / `#[test]` regions) is exempt from every rule.
//! Violations are suppressible only with an in-source pragma that carries a reason —
//! `// gem-lint: allow(L3, reason = "…")` — and a malformed or reason-less pragma is
//! itself an error (`L0`).
//!
//! The implementation is deliberately a lightweight lexer + line scanner (see
//! [`lexer`]), not a full parser: every check needs only token positions relative to
//! strings, comments, braces and test regions, which keeps the whole workspace pass
//! well under the 2-second budget the CI `invariants` step and the tier-1
//! `lint_gate` test hold it to.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod fingerprint;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use fingerprint::{
    check_fingerprint, fingerprint_json, parse_fingerprint_json, wire_fingerprint_of,
    WireFingerprint,
};

/// One rule violation (or pragma error), anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule code (`L0`–`L6`).
    pub rule: String,
    /// Repository-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// One-line suggested fix.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}]: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )?;
        write!(f, "  hint: {}", self.hint)
    }
}

/// Which rules run. The default runs everything; fixture tests disable a rule to prove
/// each check actually carries its own weight.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Rule codes to skip entirely (e.g. `["L3"]`).
    pub disabled: Vec<String>,
}

impl LintConfig {
    /// A config with every rule except `code` enabled.
    pub fn without(code: &str) -> Self {
        LintConfig {
            disabled: vec![code.to_string()],
        }
    }
}

/// The outcome of a workspace pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations, in file-walk order.
    pub diagnostics: Vec<Diagnostic>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Well-formed `allow` pragmas encountered (the lint gate bounds these).
    pub allow_pragmas: usize,
}

impl LintReport {
    /// No violations at all?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as the rustc-style text report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "gem-lint: {} file(s) scanned, {} violation(s), {} allow pragma(s)\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.allow_pragmas
        ));
        out
    }

    /// Render as the machine-readable JSON report (`gem-lint --json`).
    pub fn to_json(&self) -> String {
        use gem_json::{object, string, u64_number, Json};
        let violations = self
            .diagnostics
            .iter()
            .map(|d| {
                object(vec![
                    ("rule", string(d.rule.clone())),
                    ("path", string(d.path.clone())),
                    ("line", u64_number(d.line as u64)),
                    ("message", string(d.message.clone())),
                    ("hint", string(d.hint.clone())),
                ])
            })
            .collect::<Vec<_>>();
        let mut text = object(vec![
            ("ok", Json::Bool(self.diagnostics.is_empty())),
            ("files_scanned", u64_number(self.files_scanned as u64)),
            ("allow_pragmas", u64_number(self.allow_pragmas as u64)),
            ("violations", Json::Array(violations)),
        ])
        .to_pretty_string();
        text.push('\n');
        text
    }
}

/// Lint one source file. `path` is the repository-relative path (forward slashes) —
/// the rules scope themselves by it, so fixtures can impersonate any file. Returns the
/// surviving diagnostics and the number of well-formed allow pragmas.
pub fn lint_source(path: &str, src: &str, config: &LintConfig) -> (Vec<Diagnostic>, usize) {
    let model = lexer::lex(src);
    let mut raw = Vec::new();
    let pragmas = rules::collect_pragmas(path, &model, &mut raw);
    rules::check_file(path, &model, config, &mut raw);
    let kept: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| d.rule == "L0" || !rules::suppressed(&pragmas, &d.rule, d.line))
        .collect();
    (kept, pragmas.len())
}

/// Every Rust source file the workspace pass covers: `crates/*/src/**` and the
/// umbrella `src/**`, sorted for deterministic reports.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repository-relative path with forward slashes (rule scoping keys off this form).
pub fn relative_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the full pass over a workspace: every per-file rule plus the L4 fingerprint
/// check against `<root>/wire-fingerprint.json`.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in workspace_sources(root)? {
        let src = std::fs::read_to_string(&path)?;
        let label = relative_label(root, &path);
        let (diags, pragmas) = lint_source(&label, &src, config);
        report.diagnostics.extend(diags);
        report.allow_pragmas += pragmas;
        report.files_scanned += 1;
    }
    if !config.disabled.iter().any(|d| d == "L4") {
        let proto_label = "crates/gem-proto/src/lib.rs";
        let proto_path = root.join(proto_label);
        if proto_path.is_file() {
            let proto_src = std::fs::read_to_string(&proto_path)?;
            match wire_fingerprint_of(&proto_src) {
                Ok(current) => {
                    let committed = std::fs::read_to_string(root.join("wire-fingerprint.json")).ok();
                    report.diagnostics.extend(check_fingerprint(
                        proto_label,
                        &current,
                        committed.as_deref(),
                    ));
                }
                Err(reason) => report.diagnostics.push(Diagnostic {
                    rule: "L4".to_string(),
                    path: proto_label.to_string(),
                    line: 1,
                    message: format!("could not extract the wire fingerprint: {reason}"),
                    hint: "keep PROTOCOL_VERSION and the four wire types declared as plain `pub const` / `pub enum` / `pub struct` items".to_string(),
                }),
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragmas_suppress_only_their_rule_and_line() {
        let src = "fn f(v: &V) {\n    v.x.unwrap(); // gem-lint: allow(L3, reason = \"checked above\")\n    v.y.unwrap();\n}\n";
        let (diags, pragmas) =
            lint_source("crates/gem-proto/src/lib.rs", src, &LintConfig::default());
        assert_eq!(pragmas, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn an_own_line_pragma_covers_the_next_line() {
        let src = "fn f(v: &V) {\n    // gem-lint: allow(L3, reason = \"startup only\")\n    v.x.unwrap();\n}\n";
        let (diags, _) = lint_source("crates/gem-proto/src/lib.rs", src, &LintConfig::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_reasonless_pragma_is_its_own_error_and_suppresses_nothing() {
        let src = "fn f(v: &V) {\n    v.x.unwrap(); // gem-lint: allow(L3)\n}\n";
        let (diags, pragmas) =
            lint_source("crates/gem-proto/src/lib.rs", src, &LintConfig::default());
        assert_eq!(pragmas, 0, "malformed pragmas do not count as pragmas");
        let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"L0"), "{diags:?}");
        assert!(
            rules.contains(&"L3"),
            "the violation still fires: {diags:?}"
        );
    }

    #[test]
    fn disabling_a_rule_silences_it() {
        let src = "fn f(v: &V) { v.x.unwrap(); }\n";
        let (diags, _) = lint_source(
            "crates/gem-proto/src/lib.rs",
            src,
            &LintConfig::without("L3"),
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn diagnostics_render_rustc_style() {
        let d = Diagnostic {
            rule: "L3".into(),
            path: "crates/gem-proto/src/lib.rs".into(),
            line: 7,
            message: "boom".into(),
            hint: "fix it".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("error[L3]: crates/gem-proto/src/lib.rs:7: boom"));
        assert!(text.contains("hint: fix it"));
    }
}
