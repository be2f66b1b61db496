//! L4 — the protocol-bump rule.
//!
//! The wire contract of `gem-proto` is its four body shapes: `RequestBody`,
//! `ResponseBody`, `WireStats` and `WireModelInfo`. This module extracts those
//! declarations from `crates/gem-proto/src/lib.rs` (via the [`crate::lexer`] code
//! view, so comments and attributes cannot perturb the result), canonicalizes them to
//! a whitespace-normalized listing, and digests the listing with FNV-1a 64.
//!
//! The digest is committed at the repository root as `wire-fingerprint.json` together
//! with the `PROTOCOL_VERSION` it was taken at. The rule: **the shapes may only change
//! together with a version bump.** A drifted digest under an unchanged version is the
//! exact failure mode that ships silently incompatible peers, and it is an error; a
//! bumped version with a stale fingerprint is also an error (regenerate with
//! `gem-lint --write-fingerprint`), so the committed file always describes HEAD.

use crate::lexer;
use crate::Diagnostic;
use gem_json::{object, string, u64_number, Json};

/// The wire types whose declarations constitute the protocol surface.
pub const WIRE_TYPES: [&str; 4] = ["RequestBody", "ResponseBody", "WireStats", "WireModelInfo"];

/// The extracted protocol surface of a `gem-proto` source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFingerprint {
    /// The `PROTOCOL_VERSION` constant's value.
    pub protocol_version: u64,
    /// `(type name, canonical shape)` in [`WIRE_TYPES`] order.
    pub shapes: Vec<(String, String)>,
    /// FNV-1a 64 digest over the canonical shapes (version-independent).
    pub digest: String,
    /// 1-based line of the `PROTOCOL_VERSION` declaration (diagnostics anchor here).
    pub version_line: usize,
}

/// Extract the fingerprint from `gem-proto/src/lib.rs` source text.
pub fn wire_fingerprint_of(proto_src: &str) -> Result<WireFingerprint, String> {
    let model = lexer::lex(proto_src);
    // Join the code view into one stream for declaration scanning; line breaks become
    // spaces so multi-line declarations normalize away.
    let code: String = model
        .lines
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");

    let (protocol_version, version_line) = extract_version(&model)?;
    let mut shapes = Vec::new();
    for name in WIRE_TYPES {
        let shape = extract_shape(&code, name)
            .ok_or_else(|| format!("could not find a `{name}` declaration in gem-proto"))?;
        shapes.push((name.to_string(), shape));
    }
    let canonical = shapes
        .iter()
        .map(|(name, shape)| format!("{name}={shape};"))
        .collect::<String>();
    Ok(WireFingerprint {
        protocol_version,
        shapes,
        digest: format!("fnv1a64:{:016x}", fnv1a64(canonical.as_bytes())),
        version_line,
    })
}

fn extract_version(model: &lexer::SourceModel) -> Result<(u64, usize), String> {
    for line in &model.lines {
        if let Some(rest) = line
            .code
            .trim()
            .strip_prefix("pub const PROTOCOL_VERSION: u64 =")
        {
            let value: u64 = rest
                .trim()
                .trim_end_matches(';')
                .trim()
                .parse()
                .map_err(|_| "PROTOCOL_VERSION is not an integer literal".to_string())?;
            return Ok((value, line.number));
        }
    }
    Err("no `pub const PROTOCOL_VERSION: u64 = …;` declaration found".to_string())
}

/// Pull the `{ … }` body of `pub enum NAME` / `pub struct NAME` out of the joined code
/// view and canonicalize it: whitespace collapsed, `pub ` markers dropped, trailing
/// commas normalized.
fn extract_shape(code: &str, name: &str) -> Option<String> {
    let decl = ["pub enum ", "pub struct "].iter().find_map(|kw| {
        let needle = format!("{kw}{name}");
        code.find(&needle).and_then(|at| {
            // Reject partial matches like `WireStatsExt`.
            let after = code[at + needle.len()..].trim_start();
            after.starts_with('{').then(|| at + needle.len())
        })
    })?;
    let open = code[decl..].find('{')? + decl;
    let mut depth = 0usize;
    let bytes = code.as_bytes();
    let mut end = None;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &code[open + 1..end?];
    let mut collapsed = body
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .replace("pub ", "");
    // Normalize punctuation spacing and trailing commas so pure reformatting (rustfmt
    // reflows, added trailing commas) cannot move the digest.
    for (from, to) in [
        (" ,", ","),
        (", ", ","),
        (" :", ":"),
        (": ", ":"),
        (" {", "{"),
        ("{ ", "{"),
        (" }", "}"),
        ("} ", "}"),
        ("( ", "("),
        (" )", ")"),
        (",}", "}"),
        (",)", ")"),
    ] {
        while collapsed.contains(from) {
            collapsed = collapsed.replace(from, to);
        }
    }
    Some(collapsed.trim_matches([' ', ',']).to_string())
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Render a fingerprint as the committed `wire-fingerprint.json` text.
pub fn fingerprint_json(fp: &WireFingerprint) -> String {
    let shapes = fp
        .shapes
        .iter()
        .map(|(name, shape)| (name.as_str(), string(shape.clone())))
        .collect::<Vec<_>>();
    let mut text = object(vec![
        ("protocol_version", u64_number(fp.protocol_version)),
        ("digest", string(fp.digest.clone())),
        ("shapes", object(shapes)),
    ])
    .to_pretty_string();
    text.push('\n');
    text
}

/// Parse a committed `wire-fingerprint.json`.
pub fn parse_fingerprint_json(text: &str) -> Result<(u64, String), String> {
    let value = Json::parse(text).map_err(|e| e.to_string())?;
    let version = value
        .u64_field("protocol_version")
        .map_err(|e| e.to_string())?;
    let digest = value.str_field("digest").map_err(|e| e.to_string())?;
    Ok((version, digest))
}

/// The L4 check: compare the protocol surface at HEAD against the committed
/// fingerprint. `committed` is the file text, or `None` when the file is absent.
pub fn check_fingerprint(
    proto_path: &str,
    current: &WireFingerprint,
    committed: Option<&str>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let anchor = |message: String, hint: &str| Diagnostic {
        rule: "L4".to_string(),
        path: proto_path.to_string(),
        line: current.version_line,
        message,
        hint: hint.to_string(),
    };
    let Some(text) = committed else {
        out.push(anchor(
            "wire-fingerprint.json is missing, so protocol drift cannot be detected".to_string(),
            "generate it with `gem-lint --write-fingerprint` and commit it",
        ));
        return out;
    };
    let (committed_version, committed_digest) = match parse_fingerprint_json(text) {
        Ok(parsed) => parsed,
        Err(reason) => {
            out.push(anchor(
                format!("wire-fingerprint.json is unreadable: {reason}"),
                "regenerate it with `gem-lint --write-fingerprint`",
            ));
            return out;
        }
    };
    match (
        current.digest == committed_digest,
        current.protocol_version == committed_version,
    ) {
        (true, true) => {}
        (false, true) => out.push(anchor(
            format!(
                "gem-proto wire shapes changed but PROTOCOL_VERSION is still {} — peers on the committed protocol would misparse these bodies",
                current.protocol_version
            ),
            "bump PROTOCOL_VERSION (and document the change in its history note), then regenerate the fingerprint with `gem-lint --write-fingerprint`",
        )),
        (_, false) => out.push(anchor(
            format!(
                "wire-fingerprint.json was taken at protocol version {committed_version}, but HEAD declares {} — the committed fingerprint is stale",
                current.protocol_version
            ),
            "regenerate it with `gem-lint --write-fingerprint` and commit it alongside the version bump",
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = r#"
/// docs
pub const PROTOCOL_VERSION: u64 = 3;
/// A request.
pub enum RequestBody {
    /// Fit it.
    Fit { corpus: Vec<GemColumn>, config: GemConfig },
    Stats,
}
pub enum ResponseBody { Fitted { handle: String, dim: u64 }, Error { code: String } }
pub struct WireStats { pub hits: u64, pub misses: u64 }
pub struct WireModelInfo { pub handle: String }
"#;

    #[test]
    fn extraction_is_stable_under_comments_and_whitespace() {
        let a = wire_fingerprint_of(TOY).unwrap();
        let reflowed = TOY
            .replace(
                "Fit { corpus: Vec<GemColumn>, config: GemConfig },",
                "Fit {\n        // reflowed\n        corpus: Vec<GemColumn>,\n        config: GemConfig,\n    },",
            )
            .replace("/// docs", "/// different docs entirely");
        let b = wire_fingerprint_of(&reflowed).unwrap();
        assert_eq!(a.digest, b.digest, "formatting must not move the digest");
        assert_eq!(a.protocol_version, 3);
        assert_eq!(a.version_line, 3);
    }

    #[test]
    fn shape_changes_move_the_digest() {
        let a = wire_fingerprint_of(TOY).unwrap();
        let grown = TOY.replace("dim: u64 }", "dim: u64, extra: bool }");
        let b = wire_fingerprint_of(&grown).unwrap();
        assert_ne!(a.digest, b.digest);
        // …and a version bump alone does not.
        let bumped = TOY.replace("u64 = 3", "u64 = 4");
        let c = wire_fingerprint_of(&bumped).unwrap();
        assert_eq!(a.digest, c.digest);
        assert_eq!(c.protocol_version, 4);
    }

    #[test]
    fn fingerprint_json_round_trips() {
        let fp = wire_fingerprint_of(TOY).unwrap();
        let text = fingerprint_json(&fp);
        let (version, digest) = parse_fingerprint_json(&text).unwrap();
        assert_eq!(version, fp.protocol_version);
        assert_eq!(digest, fp.digest);
        assert!(check_fingerprint("p", &fp, Some(&text)).is_empty());
    }

    #[test]
    fn drift_without_a_bump_is_the_hard_error() {
        let fp = wire_fingerprint_of(TOY).unwrap();
        let committed = fingerprint_json(&fp);
        let drifted =
            wire_fingerprint_of(&TOY.replace("dim: u64 }", "dim: u64, extra: bool }")).unwrap();
        let diags = check_fingerprint("p", &drifted, Some(&committed));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("PROTOCOL_VERSION is still 3"));
        // Bumping the version flips it to the (also-error) stale-fingerprint case…
        let bumped = wire_fingerprint_of(
            &TOY.replace("dim: u64 }", "dim: u64, extra: bool }")
                .replace("u64 = 3", "u64 = 4"),
        )
        .unwrap();
        let diags = check_fingerprint("p", &bumped, Some(&committed));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("stale"));
        // …until the fingerprint is regenerated, which makes it clean.
        let regenerated = fingerprint_json(&bumped);
        assert!(check_fingerprint("p", &bumped, Some(&regenerated)).is_empty());
    }

    #[test]
    fn missing_or_corrupt_fingerprint_files_are_errors() {
        let fp = wire_fingerprint_of(TOY).unwrap();
        assert_eq!(check_fingerprint("p", &fp, None).len(), 1);
        assert_eq!(check_fingerprint("p", &fp, Some("not json")).len(), 1);
    }
}
