//! The rule implementations: L1–L3, L5, L6 (per-file token and guard-liveness checks)
//! plus the `L0` pragma grammar. The workspace-level L4 protocol-bump rule lives in
//! [`crate::fingerprint`].
//!
//! Every check runs over the [`crate::lexer`] code view, so string literals and
//! comments can never produce a match, and `#[cfg(test)]` / `#[test]` regions are
//! exempt (test code is allowed to unwrap, construct methods directly, and so on —
//! the invariants guard production paths).

use crate::lexer::{LineInfo, SourceModel};
use crate::{Diagnostic, LintConfig};

/// Every rule code this crate knows, in order.
pub const RULES: [&str; 7] = ["L0", "L1", "L2", "L3", "L4", "L5", "L6"];

/// What each rule enforces, one line per code (rendered by `gem-lint --help` and the
/// README table).
pub fn rule_summary(code: &str) -> &'static str {
    match code {
        "L0" => "gem-lint pragmas must be well-formed and carry a reason",
        "L1" => {
            "lock discipline: no bare lock unwraps, no guard live across fit/transform/store I/O"
        }
        "L2" => "no silent refit: serving modules never call GemEmbedder::embed / fit_transform",
        "L3" => {
            "panic-free wire: no unwrap/expect/panic!/indexing in net, client, the dispatch layer, gem-proto, or gem-router"
        }
        "L4" => {
            "protocol bump: gem-proto wire shapes may not change without a PROTOCOL_VERSION bump"
        }
        "L5" => "bit-exactness: no float formatting or f32/f64 casts in serialization modules",
        "L6" => "dispatch seam: method structs are constructed only via MethodRegistry wiring",
        _ => "unknown rule",
    }
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

/// A parsed `// gem-lint: allow(Lx, reason = "…")` pragma.
#[derive(Debug)]
pub struct Pragma {
    /// Line the pragma comment sits on.
    pub line: usize,
    /// Rule codes it suppresses.
    pub codes: Vec<String>,
    /// True when the pragma is the only thing on its line, so it covers the next line.
    pub own_line: bool,
}

/// Scan a file for pragmas. Malformed pragmas (unparseable, unknown code, missing or
/// empty reason) become `L0` diagnostics — `L0` itself is never suppressible, so a
/// pragma cannot excuse its own malformation.
pub fn collect_pragmas(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for line in &model.lines {
        // A pragma is a comment *beginning* with the directive — prose that merely
        // mentions `gem-lint:` mid-sentence (docs, this file) is not a pragma.
        let Some(directive) = line.comment.trim().strip_prefix("gem-lint:").map(str::trim) else {
            continue;
        };
        let mut bad = |message: &str| {
            out.push(Diagnostic {
                rule: "L0".to_string(),
                path: path.to_string(),
                line: line.number,
                message: format!("malformed gem-lint pragma: {message}"),
                hint: "the only accepted form is `// gem-lint: allow(Lx, reason = \"…\")`"
                    .to_string(),
            });
        };
        let Some(inner) = directive
            .strip_prefix("allow(")
            .and_then(|rest| rest.rfind(')').map(|end| &rest[..end]))
        else {
            bad("expected `allow(…)`");
            continue;
        };
        // Split the code list from the mandatory reason.
        let (codes_part, reason_part) = match inner.find("reason") {
            Some(pos) => (inner[..pos].trim_end_matches([',', ' ']), &inner[pos..]),
            None => {
                bad("missing `reason = \"…\"` — every suppression must say why");
                continue;
            }
        };
        let reason_ok = reason_part
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.rfind('"').map(|end| r[..end].trim().to_string()))
            .filter(|r| !r.is_empty());
        if reason_ok.is_none() {
            bad("the reason must be a non-empty quoted string");
            continue;
        }
        let codes: Vec<String> = codes_part
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        if codes.is_empty() {
            bad("no rule codes listed");
            continue;
        }
        if let Some(unknown) = codes.iter().find(|c| !RULES.contains(&c.as_str())) {
            bad(&format!("unknown rule code `{unknown}`"));
            continue;
        }
        if codes.iter().any(|c| c == "L0") {
            bad("L0 cannot be suppressed");
            continue;
        }
        pragmas.push(Pragma {
            line: line.number,
            codes,
            own_line: line.code.trim().is_empty(),
        });
    }
    pragmas
}

/// Is a diagnostic with `rule` at `line` suppressed by one of `pragmas`?
pub fn suppressed(pragmas: &[Pragma], rule: &str, line: usize) -> bool {
    pragmas.iter().any(|p| {
        p.codes.iter().any(|c| c == rule) && (p.line == line || (p.own_line && p.line + 1 == line))
    })
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

fn l1_scoped(path: &str) -> bool {
    path.starts_with("crates/gem-serve/src/") || path.starts_with("crates/gem-router/src/")
}

fn l2_scoped(path: &str) -> bool {
    matches!(
        path,
        "crates/gem-serve/src/service.rs"
            | "crates/gem-serve/src/engine.rs"
            | "crates/gem-serve/src/net.rs"
    )
}

fn l3_scoped(path: &str) -> bool {
    matches!(
        path,
        "crates/gem-serve/src/net.rs"
            | "crates/gem-serve/src/client.rs"
            | "crates/gem-serve/src/framing.rs"
            | "crates/gem-serve/src/service.rs"
            | "crates/gem-serve/src/engine.rs"
    ) || path.starts_with("crates/gem-proto/src/")
        || path.starts_with("crates/gem-router/src/")
}

fn l5_scoped(path: &str) -> bool {
    path.starts_with("crates/gem-store/src/")
        || path.starts_with("crates/gem-proto/src/")
        || path.ends_with("/persist.rs")
        || path == "crates/gem-serve/src/framing.rs"
}

fn l6_exempt(path: &str) -> bool {
    path.starts_with("crates/gem-baselines/src/") || path == "crates/gem-core/src/method.rs"
}

// ---------------------------------------------------------------------------
// The per-file pass
// ---------------------------------------------------------------------------

/// Run every per-file rule over one lexed source file.
pub fn check_file(path: &str, model: &SourceModel, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let enabled = |rule: &str| !config.disabled.iter().any(|d| d == rule);
    if enabled("L1") && l1_scoped(path) {
        check_l1_lock_tokens(path, model, out);
        check_l1_guard_liveness(path, model, out);
    }
    if enabled("L2") && l2_scoped(path) {
        check_l2_no_silent_refit(path, model, out);
    }
    if enabled("L3") && l3_scoped(path) {
        check_l3_panic_freedom(path, model, out);
    }
    if enabled("L5") && l5_scoped(path) {
        check_l5_bit_exactness(path, model, out);
    }
    if enabled("L6") && !l6_exempt(path) {
        check_l6_dispatch_seam(path, model, out);
    }
}

fn non_test_lines(model: &SourceModel) -> impl Iterator<Item = &LineInfo> {
    model.lines.iter().filter(|l| !l.in_test)
}

// --- L1a: bare lock unwraps ------------------------------------------------

const L1_LOCK_TOKENS: [&str; 6] = [
    ".lock().unwrap()",
    ".lock().expect(",
    ".read().unwrap()",
    ".read().expect(",
    ".write().unwrap()",
    ".write().expect(",
];

fn check_l1_lock_tokens(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    for line in non_test_lines(model) {
        for token in L1_LOCK_TOKENS {
            if line.code.contains(token) {
                out.push(Diagnostic {
                    rule: "L1".to_string(),
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{token}` decides poisoning policy at the call site instead of the shared recovery helper"
                    ),
                    hint: "acquire serving locks through gem_serve::sync::lock_or_recover so poisoning recovery stays in one audited place".to_string(),
                });
            }
        }
    }
}

// --- L1b: guard liveness ---------------------------------------------------

/// Calls that must never run under a held lock guard: EM fits, transforms and model
/// store I/O all take milliseconds-to-seconds, and a guard held across them turns one
/// slow model into a stall for every concurrent request on that lock.
const L1_FORBIDDEN_CALLS: [&str; 10] = [
    "GemModel::fit",
    ".fit(",
    ".fit_update(",
    ".transform(",
    ".fit_transform(",
    ".save(",
    ".save_with_parent(",
    ".load_path(",
    ".load_hex(",
    ".remove_hex(",
];

struct LiveGuard {
    name: Option<String>,
    depth: usize,
    bound_at: usize,
}

fn check_l1_guard_liveness(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut stmt: Option<(String, usize, usize)> = None; // (text, start line, depth)

    for line in &model.lines {
        if line.in_test {
            continue;
        }
        // Retire guards whose enclosing block has closed.
        guards.retain(|g| line.depth_at_start >= g.depth);
        // Explicit drops end liveness early.
        guards.retain(|g| match &g.name {
            Some(name) => !line.code.contains(&format!("drop({name})")),
            None => true,
        });

        // While any guard is live, the line may not reach into fit/transform/store I/O.
        if !guards.is_empty() {
            for token in L1_FORBIDDEN_CALLS {
                let hit = if token == ".load(" {
                    // `.load(Ordering…)` is an atomic read, not store I/O.
                    has_load_call_not_atomic(&line.code)
                } else {
                    line.code.contains(token)
                };
                if hit {
                    let guard = guards.last().expect("non-empty");
                    out.push(Diagnostic {
                        rule: "L1".to_string(),
                        path: path.to_string(),
                        line: line.number,
                        message: format!(
                            "`{token}` runs while the lock guard bound at line {} is still live",
                            guard.bound_at
                        ),
                        hint: "narrow the critical section: copy what you need out of the guard and drop it before fitting, transforming, or touching the model store".to_string(),
                    });
                }
            }
        }

        // Statement assembly: track `let … = <expr ending in a lock acquisition>;`.
        let trimmed = line.code.trim();
        if stmt.is_none() && trimmed.starts_with("let ") {
            stmt = Some((String::new(), line.number, line.depth_at_start));
        }
        if let Some((text, start, depth)) = &mut stmt {
            text.push_str(trimmed);
            text.push(' ');
            if trimmed.ends_with(';') {
                if let Some(name) = guard_binding(text) {
                    guards.push(LiveGuard {
                        name,
                        depth: *depth,
                        bound_at: *start,
                    });
                }
                stmt = None;
            } else if trimmed.ends_with('{') || trimmed.ends_with('}') {
                // The "statement" opened a block (match/closure/loop) — too complex to
                // be the simple guard-binding shape; stop assembling.
                stmt = None;
            }
        }
    }
    let _ = guards;
}

/// `.load(` present with a non-`Ordering` argument (i.e. actual store I/O).
fn has_load_call_not_atomic(code: &str) -> bool {
    let mut rest = code;
    while let Some(at) = rest.find(".load(") {
        let arg = rest[at + ".load(".len()..].trim_start();
        if !arg.starts_with("Ordering") && !arg.starts_with("std::sync::atomic::Ordering") {
            return true;
        }
        rest = &rest[at + ".load(".len()..];
    }
    false
}

/// If `stmt` is `let [mut] <pat> = <expr>;` whose expression *is* a lock acquisition
/// (not a chained temporary like `lock_or_recover(&x).peek(k)`), return
/// `Some(binding name)` (`Some(None)` for non-identifier patterns). `None` means no
/// guard is bound.
fn guard_binding(stmt: &str) -> Option<Option<String>> {
    let stmt = stmt.trim();
    let rest = stmt.strip_prefix("let ")?;
    let eq = find_top_level_eq(rest)?;
    let pat = rest[..eq].trim();
    let mut expr = rest[eq + 1..].trim().trim_end_matches(';').trim_end();
    // Strip adapters that forward the guard unchanged.
    loop {
        if let Some(shorter) = expr.strip_suffix(".unwrap()") {
            expr = shorter.trim_end();
        } else if let Some(shorter) = expr.strip_suffix(".0") {
            expr = shorter.trim_end();
        } else if let Some(shorter) = strip_trailing_call(expr, ".expect") {
            expr = shorter.trim_end();
        } else {
            break;
        }
    }
    let acquires = expr.ends_with(".lock()")
        || expr.ends_with(".locked()")
        || trailing_call_name(expr).is_some_and(|name| {
            matches!(
                name,
                "lock_or_recover"
                    | "lock_or_recover_with"
                    | "wait_or_recover"
                    | "wait_timeout_or_recover"
            )
        });
    if !acquires {
        return None;
    }
    let name = pat.strip_prefix("mut ").unwrap_or(pat);
    let is_ident = !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_');
    Some(is_ident.then(|| name.to_string()))
}

/// Position of the `=` that separates pattern from initializer (depth 0, not part of
/// `==`, `=>`, `<=`, `>=`, `!=`, `+=`, …).
fn find_top_level_eq(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = i.checked_sub(1).map(|j| bytes[j]);
                let next = bytes.get(i + 1);
                let compound = matches!(
                    prev,
                    Some(
                        b'=' | b'<'
                            | b'>'
                            | b'!'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    )
                ) || next == Some(&b'=')
                    || next == Some(&b'>');
                if !compound {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// If `expr` ends in `<…>name(balanced args)`, return `name`.
fn trailing_call_name(expr: &str) -> Option<&str> {
    let expr = expr.trim_end();
    if !expr.ends_with(')') {
        return None;
    }
    let open = matching_open_paren(expr)?;
    let head = &expr[..open];
    let name_start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let name = &head[name_start..];
    (!name.is_empty()).then_some(name)
}

/// If `expr` ends in `method(balanced args)` where the text right before the arguments
/// ends with `method_prefix`, return the expression with that trailing call removed.
fn strip_trailing_call<'a>(expr: &'a str, method_prefix: &str) -> Option<&'a str> {
    let expr = expr.trim_end();
    if !expr.ends_with(')') {
        return None;
    }
    let open = matching_open_paren(expr)?;
    let head = &expr[..open];
    head.ends_with(method_prefix)
        .then(|| &head[..head.len() - method_prefix.len()])
}

/// Index of the `(` matching the final `)` of `expr`.
fn matching_open_paren(expr: &str) -> Option<usize> {
    let bytes = expr.as_bytes();
    let mut depth = 0i32;
    for i in (0..bytes.len()).rev() {
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

// --- L2: no silent refit ---------------------------------------------------

const L2_TOKENS: [&str; 2] = ["GemEmbedder::embed", ".fit_transform("];

fn check_l2_no_silent_refit(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    for line in non_test_lines(model) {
        for token in L2_TOKENS {
            if line.code.contains(token) {
                out.push(Diagnostic {
                    rule: "L2".to_string(),
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{token}` re-fits from a corpus inside a serving module — an unknown handle must stay a typed error, never a silent refit"
                    ),
                    hint: "resolve handles through EmbedService / ModelCache; only explicit Fit and FitUpdate requests may create models".to_string(),
                });
            }
        }
    }
}

// --- L3: panic-free wire ---------------------------------------------------

const L3_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn check_l3_panic_freedom(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    for line in non_test_lines(model) {
        for token in L3_TOKENS {
            if line.code.contains(token) {
                out.push(Diagnostic {
                    rule: "L3".to_string(),
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{token}` can panic on attacker-controlled wire input"
                    ),
                    hint: "return a typed error (ProtoError / ServeError / ClientError) — a malformed line must answer with an error body, not kill the connection".to_string(),
                });
            }
        }
        if let Some(col) = slice_index_position(&line.code) {
            out.push(Diagnostic {
                rule: "L3".to_string(),
                path: path.to_string(),
                line: line.number,
                message: format!(
                    "slice indexing at column {} can panic out of bounds on wire-derived data",
                    col + 1
                ),
                hint: "use .get(…) and surface a typed error for the missing case".to_string(),
            });
        }
    }
}

/// Byte position of an indexing `[` (one immediately preceded by an identifier char,
/// `)` or `]`), ignoring attribute lines. `&[u8]` and `[T; N]` type positions are not
/// matches because their `[` follows `&`, `(`, `<` or whitespace.
fn slice_index_position(code: &str) -> Option<usize> {
    let trimmed = code.trim_start();
    if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
        return None;
    }
    let bytes = code.as_bytes();
    (1..bytes.len()).find(|&i| {
        bytes[i] == b'['
            && (bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b')' | b']'))
    })
}

// --- L5: bit-exactness -----------------------------------------------------

fn check_l5_bit_exactness(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    for line in non_test_lines(model) {
        for token in [" as f64", " as f32"] {
            if line.code.contains(token) {
                out.push(Diagnostic {
                    rule: "L5".to_string(),
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{}` in a serialization module loses or fabricates float bits",
                        token.trim_start()
                    ),
                    hint: "persisted numbers must round-trip exactly: integers via gem_json::u64_number / u64_field, floats via gem_json::bits / to_bits".to_string(),
                });
            }
        }
        for s in &line.strings {
            for token in ["{:e}", "{:."] {
                if s.contains(token) {
                    out.push(Diagnostic {
                        rule: "L5".to_string(),
                        path: path.to_string(),
                        line: line.number,
                        message: format!(
                            "`{token}` formatting in a serialization module renders floats in decimal, which does not round-trip bit-exactly"
                        ),
                        hint: "floats cross serialization only as IEEE-754 bit patterns (gem_json::bits); render human-facing numbers outside store/proto modules".to_string(),
                    });
                }
            }
        }
    }
}

// --- L6: dispatch seam -----------------------------------------------------

/// Every embedding-method struct the registry wires. Constructing one of these outside
/// the registry seam bypasses name registration, config plumbing and the paper's
/// method taxonomy.
const L6_METHOD_STRUCTS: [&str; 10] = [
    "GemMethod",
    "SatoSc",
    "SherlockSc",
    "PythagorasSc",
    "PeriodicEncoder",
    "KsEncoder",
    "SelfOrganizingMap",
    "PiecewiseLinearEncoder",
    "SquashingGmm",
    "SquashingSom",
];

fn check_l6_dispatch_seam(path: &str, model: &SourceModel, out: &mut Vec<Diagnostic>) {
    for line in non_test_lines(model) {
        for name in L6_METHOD_STRUCTS {
            for form in [
                format!("{name}::new("),
                format!("{name}::default("),
                format!("{name} {{"),
            ] {
                if let Some(at) = line.code.find(&form) {
                    // Require a word boundary so e.g. `MySatoSc::new(` cannot match.
                    let boundary = at == 0 || {
                        let prev = line.code.as_bytes()[at - 1];
                        !(prev.is_ascii_alphanumeric() || prev == b'_')
                    };
                    if boundary {
                        out.push(Diagnostic {
                            rule: "L6".to_string(),
                            path: path.to_string(),
                            line: line.number,
                            message: format!(
                                "`{name}` is constructed outside the MethodRegistry wiring"
                            ),
                            hint: "instantiate methods through gem_core::MethodRegistry (register_gem_family / gem_baselines::register_baselines) so every method stays name-addressable".to_string(),
                        });
                    }
                }
            }
        }
    }
}
