//! The fixture suite: one known-bad snippet per rule, asserting the exact rule code
//! and line each violation anchors to — and, for every rule, a **live check**: the
//! same fixture goes silent when that one rule is disabled, proving the finding comes
//! from the named check and not from a neighbouring rule.

use gem_lint::{lint_source, LintConfig};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Lint `fixture_name` under `as_path`, returning `(rule, line)` pairs.
fn violations(fixture_name: &str, as_path: &str, config: &LintConfig) -> Vec<(String, usize)> {
    let (diags, _) = lint_source(as_path, &fixture(fixture_name), config);
    diags.into_iter().map(|d| (d.rule, d.line)).collect()
}

fn expect(fixture_name: &str, as_path: &str, rule: &str, lines: &[usize]) {
    let found = violations(fixture_name, as_path, &LintConfig::default());
    let expected: Vec<(String, usize)> = lines.iter().map(|&l| (rule.to_string(), l)).collect();
    assert_eq!(found, expected, "{fixture_name} under {as_path}");
    // Live check: with the rule disabled, the fixture must go completely silent —
    // a fixture that still fires would mean another rule is doing this one's work.
    let silent = violations(fixture_name, as_path, &LintConfig::without(rule));
    assert!(
        silent.is_empty(),
        "{fixture_name} still fires with {rule} disabled: {silent:?}"
    );
}

#[test]
fn l1_bare_lock_unwraps_fire_at_their_lines() {
    expect(
        "l1_lock_unwrap.rs",
        "crates/gem-serve/src/metrics.rs",
        "L1",
        &[6, 9],
    );
}

#[test]
fn l1_outside_gem_serve_the_same_code_is_clean() {
    let found = violations(
        "l1_lock_unwrap.rs",
        "crates/gem-data/src/lib.rs",
        &LintConfig::default(),
    );
    assert!(found.is_empty(), "L1 is scoped to gem-serve: {found:?}");
}

#[test]
fn l1_guard_held_across_fit_and_store_io_fires() {
    expect(
        "l1_guard_liveness.rs",
        "crates/gem-serve/src/cache.rs",
        "L1",
        &[10, 11, 16, 19],
    );
}

#[test]
fn l1_and_l3_cover_the_router_tier() {
    // The cluster tier holds the same locks and speaks the same wire as gem-serve:
    // both rule scopes include `crates/gem-router/src/`, so a bare lock unwrap there
    // fires the lock-discipline rule AND the panic-free-wire rule.
    let as_path = "crates/gem-router/src/cluster.rs";
    let found = violations("router_lock_unwrap.rs", as_path, &LintConfig::default());
    assert_eq!(
        found,
        vec![
            ("L1".to_string(), 7),
            ("L1".to_string(), 11),
            ("L3".to_string(), 7),
            ("L3".to_string(), 11),
        ],
        "{found:?}"
    );
    // Live checks: disabling either rule removes exactly its own findings.
    let only_l3 = violations("router_lock_unwrap.rs", as_path, &LintConfig::without("L1"));
    assert!(only_l3.iter().all(|(rule, _)| rule == "L3"), "{only_l3:?}");
    let only_l1 = violations("router_lock_unwrap.rs", as_path, &LintConfig::without("L3"));
    assert!(only_l1.iter().all(|(rule, _)| rule == "L1"), "{only_l1:?}");
    // And the wire fixture fires under a router path exactly as under gem-proto.
    expect(
        "l3_panic_wire.rs",
        "crates/gem-router/src/server.rs",
        "L3",
        &[10, 12, 13, 18],
    );
}

#[test]
fn l2_silent_refits_fire_in_serving_modules_only() {
    expect(
        "l2_silent_refit.rs",
        "crates/gem-serve/src/service.rs",
        "L2",
        &[8, 13],
    );
    let elsewhere = violations(
        "l2_silent_refit.rs",
        "crates/gem-eval/src/lib.rs",
        &LintConfig::default(),
    );
    assert!(
        elsewhere.is_empty(),
        "eval code may legitimately fit from corpora: {elsewhere:?}"
    );
}

#[test]
fn l3_panic_paths_fire_with_tests_exempt() {
    expect(
        "l3_panic_wire.rs",
        "crates/gem-proto/src/lib.rs",
        "L3",
        &[10, 12, 13, 18],
    );
    // The dispatch layer runs every wire request on an executor, so it is wire surface.
    for dispatch in [
        "crates/gem-serve/src/service.rs",
        "crates/gem-serve/src/cache.rs",
    ] {
        expect("l3_panic_wire.rs", dispatch, "L3", &[10, 12, 13, 18]);
    }
    // The same file under a non-wire path is clean: L3 is about the wire surface.
    let elsewhere = violations(
        "l3_panic_wire.rs",
        "crates/gem-core/src/lib.rs",
        &LintConfig::default(),
    );
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn l3_covers_the_binary_codec_modules() {
    // The negotiated binary codec is wire surface: gem-proto's frame codec rides the
    // existing crate-prefix scope, and gem-serve's framing module (the server-side
    // frame pump) is enumerated explicitly.
    expect(
        "l3_panic_wire.rs",
        "crates/gem-proto/src/binary.rs",
        "L3",
        &[10, 12, 13, 18],
    );
    expect(
        "l3_panic_wire.rs",
        "crates/gem-serve/src/framing.rs",
        "L3",
        &[10, 12, 13, 18],
    );
}

#[test]
fn l5_float_formatting_and_casts_fire_in_serialization_modules() {
    expect(
        "l5_bit_exactness.rs",
        "crates/gem-store/src/store.rs",
        "L5",
        &[7, 8, 12, 12],
    );
    // persist.rs modules anywhere are in scope too.
    let persist = violations(
        "l5_bit_exactness.rs",
        "crates/gem-nn/src/persist.rs",
        &LintConfig::default(),
    );
    assert_eq!(persist.len(), 4);
}

#[test]
fn l5_covers_the_binary_codec_modules() {
    // Raw little-endian IEEE-754 bytes are the whole point of the binary codec: a
    // float cast or decimal render in either codec module would break bit-exactness.
    expect(
        "l5_bit_exactness.rs",
        "crates/gem-proto/src/binary.rs",
        "L5",
        &[7, 8, 12, 12],
    );
    expect(
        "l5_bit_exactness.rs",
        "crates/gem-serve/src/framing.rs",
        "L5",
        &[7, 8, 12, 12],
    );
}

#[test]
fn l6_method_construction_fires_outside_the_registry_seam() {
    expect(
        "l6_dispatch.rs",
        "crates/gem-eval/src/harness.rs",
        "L6",
        &[7, 8, 9],
    );
    // The registry wiring itself is exempt.
    for exempt in [
        "crates/gem-baselines/src/lib.rs",
        "crates/gem-core/src/method.rs",
    ] {
        let found = violations("l6_dispatch.rs", exempt, &LintConfig::default());
        assert!(found.is_empty(), "{exempt}: {found:?}");
    }
}

#[test]
fn pragmas_suppress_with_reason_and_error_without() {
    let (diags, pragmas) = lint_source(
        "crates/gem-proto/src/lib.rs",
        &fixture("pragma_suppression.rs"),
        &LintConfig::default(),
    );
    let found: Vec<(String, usize)> = diags.iter().map(|d| (d.rule.clone(), d.line)).collect();
    assert_eq!(
        found,
        vec![
            ("L0".to_string(), 12), // reason-less pragma is its own error…
            ("L3".to_string(), 12), // …and suppresses nothing
            ("L3".to_string(), 13), // a pragma for the wrong rule suppresses nothing
        ],
        "{found:?}"
    );
    assert_eq!(pragmas, 3, "well-formed pragmas counted, malformed not");
}

// --- L4: the committed fingerprint matches HEAD, and drift is caught -------

fn real_proto_source() -> String {
    let path = format!("{}/../gem-proto/src/lib.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("gem-proto sources present in the workspace")
}

fn committed_fingerprint() -> String {
    let path = format!("{}/../../wire-fingerprint.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("wire-fingerprint.json committed at the repo root")
}

#[test]
fn committed_fingerprint_matches_gem_proto_at_head() {
    let current = gem_lint::wire_fingerprint_of(&real_proto_source()).unwrap();
    let diags = gem_lint::check_fingerprint(
        "crates/gem-proto/src/lib.rs",
        &current,
        Some(&committed_fingerprint()),
    );
    assert!(
        diags.is_empty(),
        "gem-proto drifted from wire-fingerprint.json — bump PROTOCOL_VERSION and/or \
         regenerate with `gem-lint --write-fingerprint`: {diags:?}"
    );
}

#[test]
fn shape_drift_without_a_version_bump_is_caught_on_the_real_protocol() {
    // Grow a real wire struct by one field, leaving PROTOCOL_VERSION untouched —
    // exactly the change L4 exists to catch.
    let drifted_src = real_proto_source().replace(
        "pub struct WireModelInfo {",
        "pub struct WireModelInfo { pub drifted: bool,",
    );
    let drifted = gem_lint::wire_fingerprint_of(&drifted_src).unwrap();
    let diags = gem_lint::check_fingerprint(
        "crates/gem-proto/src/lib.rs",
        &drifted,
        Some(&committed_fingerprint()),
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "L4");
    assert!(diags[0].message.contains("PROTOCOL_VERSION is still"));
    assert!(diags[0].hint.contains("bump PROTOCOL_VERSION"));
}

#[test]
fn a_version_bump_alone_demands_a_fingerprint_regeneration() {
    let current = gem_lint::wire_fingerprint_of(&real_proto_source()).unwrap();
    let bumped_src = real_proto_source().replace(
        &format!(
            "pub const PROTOCOL_VERSION: u64 = {};",
            current.protocol_version
        ),
        &format!(
            "pub const PROTOCOL_VERSION: u64 = {};",
            current.protocol_version + 1
        ),
    );
    let bumped = gem_lint::wire_fingerprint_of(&bumped_src).unwrap();
    let diags = gem_lint::check_fingerprint(
        "crates/gem-proto/src/lib.rs",
        &bumped,
        Some(&committed_fingerprint()),
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("stale"), "{diags:?}");
}

#[test]
fn a_tampered_digest_is_rejected() {
    let current = gem_lint::wire_fingerprint_of(&real_proto_source()).unwrap();
    let tampered = committed_fingerprint().replace("fnv1a64:", "fnv1a64:f00d");
    let diags =
        gem_lint::check_fingerprint("crates/gem-proto/src/lib.rs", &current, Some(&tampered));
    assert_eq!(diags.len(), 1, "{diags:?}");
}
