//! Command-line client for `gem-served`.
//!
//! ```sh
//! gem-client gen-corpus <file> [--columns N] [--rows N] [--seed N]
//! gem-client fit <addr> --corpus <file> [--components N] [--features D+S] [--composition NAME]
//! gem-client embed <addr> --handle <hex> --queries <file> [--out <file>]
//! gem-client pull <addr> --handle <hex> --out <file>
//! gem-client push <addr> --snapshot <file>
//! gem-client pipeline <addr> --corpus <file> [--components N] [--features D+S] [--queries N]
//! gem-client stats <addr>
//! gem-client health <addr>
//! gem-client list <addr>
//! gem-client evict <addr> --handle <hex>
//! gem-client verify <addr> --corpus <file> [--components N] [--features D+S]
//! ```
//!
//! * `gen-corpus` writes a deterministic synthetic corpus file (JSON `{"columns":
//!   [...]}` with bit-pattern values) for smoke tests.
//! * `fit` prints `handle: <hex>` — pass that hex to `embed`/`evict`/`pull`.
//! * `embed` prints the matrix shape and an FNV-1a digest of its value bits;
//!   `--out` additionally writes the bit-exact matrix JSON (two identical embeds
//!   produce byte-identical files).
//! * `pull` / `push` ship a model between replicas as its serialized snapshot (the
//!   bit-exact `gem-store` envelope): pull a handle from one server into a file, push
//!   the file to another, and the same handle resolves there — no corpus on the wire,
//!   no refit.
//! * `pipeline` fires a mixed pipelined workload on one connection — a deliberately
//!   slow cold `Fit` followed by N cheap `Embed`s — and verifies the out-of-order
//!   protocol end to end: every reply correlates to its request id, every embed is
//!   bit-identical to the in-process serial path, the embeds overtake the fit, and
//!   pipelining beats the same N embeds run lockstep (the speedup is printed).
//! * `verify` fits and embeds the whole corpus remotely *and* runs the same
//!   fit + transform in-process, and fails unless the matrices are bit-identical —
//!   the end-to-end correctness gate CI runs against a live server.
//! * `stats` prints the cache/service counters plus the per-shape latency quantile
//!   table (p50/p90/p99 in microseconds) the server accumulates.
//! * `health` asks the admission layer how it is doing: `ok`, `degraded` (backlog or
//!   all workers busy) or `overloaded` (queue full, new requests are being shed),
//!   with queue depth and a retry-after hint. Load balancers and scripts branch on
//!   the exit code without parsing output.
//!
//! Exit codes: `0` success, `1` usage/transport/verification failure, `2` typed server
//! error (the stable code is printed, e.g. `unknown_model`), `3` the server reported
//! `overloaded` health.
//!
//! `--retry N` (valid before any command) retries transient typed errors — an
//! `overloaded` shed, or a router mid-fail-over (`replica_unavailable`, `no_replica`)
//! — up to N times, sleeping the server's `retry_after_ms` hint (200 ms when the
//! error carries none) between attempts, instead of exiting 2 on the first shed.

use gem_core::{Composition, FeatureSet, GemColumn, GemConfig, GemModel};
use gem_json::{FromJson, Json, ToJson};
use gem_numeric::Matrix;
use gem_proto::{RequestBody, ResponseBody};
use gem_serve::{ClientError, GemClient, HealthState, ModelHandle};
use std::process::ExitCode;

/// Failures split by exit code: `Usage` exits 1, `Server` exits 2, `Overloaded`
/// (the server's health probe reported it is shedding) exits 3.
enum CliError {
    Usage(String),
    Server {
        code: String,
        message: String,
        retry_after_ms: Option<u64>,
    },
    Overloaded,
}

impl From<ClientError> for CliError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => CliError::Server {
                code,
                message,
                retry_after_ms,
            },
            other => CliError::Usage(other.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

type CliResult = Result<(), CliError>;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} needs a number, got `{text}`")),
        None => Ok(default),
    }
}

/// Reject typo'd or unknown flags instead of silently ignoring them (a silently ignored
/// `--component 8` would fit a 50-component model and hand back a handle for the wrong
/// model). Every gem-client flag takes a value, so arguments must come as
/// `--flag value` pairs and a value may not itself look like a flag.
fn check_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument `{flag}`"));
        }
        if !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag `{flag}` (allowed here: {})",
                allowed.join(", ")
            ));
        }
        match args.get(i + 1) {
            None => return Err(format!("{flag} needs a value")),
            Some(value) if value.starts_with("--") => {
                return Err(format!("{flag} needs a value, got the flag `{value}`"))
            }
            Some(_) => {}
        }
        i += 2;
    }
    Ok(())
}

fn parse_features(label: &str) -> Result<FeatureSet, String> {
    let features = FeatureSet {
        distributional: label.contains('D'),
        statistical: label.contains('S'),
        contextual: label.contains('C'),
    };
    let canonical = features.label();
    if !features.is_non_empty() || canonical != label {
        return Err(format!(
            "`{label}` is not a feature set label (use one of D, S, C, D+S, C+S, D+C, D+C+S)"
        ));
    }
    Ok(features)
}

fn parse_composition(name: &str) -> Result<Composition, String> {
    match name {
        "concatenation" => Ok(Composition::Concatenation),
        "aggregation" => Ok(Composition::Aggregation),
        other => Err(format!(
            "`{other}` is not a composition (use `concatenation` or `aggregation`; \
             autoencoder compositions need the library API)"
        )),
    }
}

fn read_columns(path: &str) -> Result<Vec<GemColumn>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read corpus {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    json.field("columns")
        .and_then(|columns| {
            columns
                .as_array()
                .ok_or_else(|| gem_json::JsonError::conversion("`columns` is not an array"))?
                .iter()
                .map(GemColumn::from_json)
                .collect()
        })
        .map_err(|e| format!("{path}: {e}"))
}

fn config_of(args: &[String]) -> Result<GemConfig, String> {
    let components = flag_num(args, "--components", GemConfig::default().gmm.n_components)?;
    Ok(GemConfig::with_components(components))
}

fn features_of(args: &[String]) -> Result<FeatureSet, String> {
    match flag_value(args, "--features") {
        Some(label) => parse_features(&label),
        None => Ok(FeatureSet::ds()),
    }
}

fn handle_of(args: &[String]) -> Result<ModelHandle, String> {
    let text = flag_value(args, "--handle").ok_or("--handle <hex> is required")?;
    ModelHandle::parse(&text)
}

/// FNV-1a over the matrix's value bits: a compact digest two bit-identical embeddings
/// always share (and distinct ones essentially never do).
fn matrix_digest(matrix: &Matrix) -> u64 {
    let mut hasher = gem_serve::fingerprint::Fnv1a::new();
    for value in matrix.as_slice() {
        hasher.write_u64(value.to_bits());
    }
    hasher.finish()
}

fn gen_corpus(path: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--columns", "--rows", "--seed"])?;
    let n_columns: usize = flag_num(args, "--columns", 24)?;
    let rows: usize = flag_num(args, "--rows", 60)?;
    let seed: u64 = flag_num(args, "--seed", 7)?;
    let columns = gem_serve::demo::synthetic_corpus(n_columns, rows, seed);
    let json = gem_json::object(vec![(
        "columns",
        Json::Array(columns.iter().map(|c| c.to_json()).collect()),
    )]);
    std::fs::write(path, json.to_compact_string())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {n_columns} columns x {rows} rows to {path}");
    Ok(())
}

fn fit(addr: &str, args: &[String]) -> CliResult {
    check_flags(
        args,
        &["--corpus", "--components", "--features", "--composition"],
    )?;
    let corpus = read_columns(&flag_value(args, "--corpus").ok_or("--corpus <file> is required")?)?;
    let config = config_of(args)?;
    let features = features_of(args)?;
    let composition = flag_value(args, "--composition")
        .map(|name| parse_composition(&name))
        .transpose()?;
    let mut client = GemClient::connect(addr)?;
    let outcome = client
        .fit_with_composition(&corpus, &config, features, composition)
        .map_err(CliError::from)?;
    println!("handle: {}", outcome.handle);
    println!(
        "dim: {} served_from: {}",
        outcome.dim,
        outcome.served_from.wire_name()
    );
    Ok(())
}

fn fit_update(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--handle", "--corpus"])?;
    let handle = handle_of(args)?;
    let new_columns =
        read_columns(&flag_value(args, "--corpus").ok_or("--corpus <file> is required")?)?;
    let mut client = GemClient::connect(addr)?;
    let outcome = client
        .fit_update(handle, &new_columns)
        .map_err(CliError::from)?;
    println!("handle: {}", outcome.handle);
    println!(
        "dim: {} served_from: {}",
        outcome.dim,
        outcome.served_from.wire_name()
    );
    Ok(())
}

fn embed(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--handle", "--queries", "--out"])?;
    let handle = handle_of(args)?;
    let queries =
        read_columns(&flag_value(args, "--queries").ok_or("--queries <file> is required")?)?;
    let mut client = GemClient::connect(addr)?;
    let outcome = client.embed(handle, &queries).map_err(CliError::from)?;
    println!(
        "rows: {} cols: {} served_from: {} digest: {:016x}",
        outcome.matrix.rows(),
        outcome.matrix.cols(),
        outcome.served_from.wire_name(),
        matrix_digest(&outcome.matrix)
    );
    if let Some(out) = flag_value(args, "--out") {
        std::fs::write(&out, outcome.matrix.to_json().to_compact_string())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("matrix written to {out}");
    }
    Ok(())
}

fn stats(addr: &str) -> CliResult {
    let mut client = GemClient::connect(addr)?;
    let stats = client.stats().map_err(CliError::from)?;
    println!(
        "requests: {} resident_models: {} resident_bytes: {}",
        stats.requests, stats.resident_models, stats.resident_bytes
    );
    println!(
        "hits: {} warm_starts: {} misses: {} evictions: {} spills: {} store_errors: {}",
        stats.hits,
        stats.warm_starts,
        stats.misses,
        stats.evictions,
        stats.spills,
        stats.store_errors
    );
    println!(
        "coalesced_fits: {} fit_micros: {} em_iterations: {}",
        stats.coalesced_fits, stats.fit_micros, stats.em_iterations
    );
    match (stats.store_entries, stats.store_bytes) {
        (Some(entries), Some(bytes)) => println!("store: {entries} entries, {bytes} bytes"),
        _ => println!("store: (none attached)"),
    }
    if stats.latencies.is_empty() {
        println!("latencies: (no requests observed yet)");
    } else {
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}",
            "shape", "count", "p50_us", "p90_us", "p99_us"
        );
        for row in &stats.latencies {
            println!(
                "{:<16} {:>8} {:>10} {:>10} {:>10}",
                row.shape, row.count, row.p50_us, row.p90_us, row.p99_us
            );
        }
    }
    Ok(())
}

fn health(addr: &str) -> CliResult {
    let mut client = GemClient::connect(addr)?;
    let health = client.health().map_err(CliError::from)?;
    println!(
        "state: {} queue: {}/{} busy_workers: {}/{}",
        health.state,
        health.queue_depth,
        health.queue_capacity,
        health.busy_workers,
        health.workers
    );
    if let Some(ms) = health.retry_after_ms {
        println!("retry_after_ms: {ms}");
    }
    if health.state == HealthState::Overloaded {
        return Err(CliError::Overloaded);
    }
    Ok(())
}

fn list(addr: &str) -> CliResult {
    let mut client = GemClient::connect(addr)?;
    let models = client.list_models().map_err(CliError::from)?;
    println!(
        "{:<33} {:>6} {:>6} {:>10}",
        "handle", "tier", "dim", "bytes"
    );
    for model in &models {
        println!(
            "{:<33} {:>6} {:>6} {:>10}",
            model.handle,
            model.tier,
            model
                .dim
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_string()),
            model.bytes
        );
    }
    println!("{} models", models.len());
    Ok(())
}

fn evict(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--handle"])?;
    let handle = handle_of(args)?;
    let mut client = GemClient::connect(addr)?;
    let existed = client.evict(handle).map_err(CliError::from)?;
    println!(
        "{}: {}",
        handle,
        if existed { "evicted" } else { "not found" }
    );
    Ok(())
}

fn pull(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--handle", "--out"])?;
    let handle = handle_of(args)?;
    let out = flag_value(args, "--out").ok_or("--out <file> is required")?;
    let mut client = GemClient::connect(addr)?;
    let pulled = client.pull_model(handle).map_err(CliError::from)?;
    let text = pulled.snapshot.to_compact_string();
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "pulled {} ({} bytes, served_from: {}) to {out}",
        pulled.handle,
        text.len(),
        pulled.served_from.wire_name()
    );
    Ok(())
}

fn push(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--snapshot"])?;
    let path = flag_value(args, "--snapshot").ok_or("--snapshot <file> is required")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
    let snapshot = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut client = GemClient::connect(addr)?;
    let pushed = client.push_model(&snapshot).map_err(CliError::from)?;
    println!("pushed: {} dim: {}", pushed.handle, pushed.dim);
    Ok(())
}

/// The pipelined-protocol exercise: one connection, a slow cold `Fit` followed by N
/// cheap `Embed`s, responses collected in completion order. Verifies correlation,
/// bit-exactness against the in-process serial path, out-of-order overtaking, and the
/// throughput edge over the same embeds run lockstep.
fn pipeline(addr: &str, args: &[String]) -> CliResult {
    check_flags(
        args,
        &["--corpus", "--components", "--features", "--queries"],
    )?;
    let corpus = read_columns(&flag_value(args, "--corpus").ok_or("--corpus <file> is required")?)?;
    let config = config_of(args)?;
    let features = features_of(args)?;
    let n_queries: usize = flag_num(args, "--queries", 16)?;
    if n_queries == 0 || corpus.is_empty() {
        return Err("pipeline needs a non-empty corpus and --queries >= 1".into());
    }
    let queries: Vec<GemColumn> = (0..n_queries)
        .map(|i| corpus[i % corpus.len()].clone())
        .collect();

    let mut client = GemClient::connect(addr)?;
    // Warm the embed handle, and compute the serial reference in-process.
    let fitted = client
        .fit(&corpus, &config, features)
        .map_err(CliError::from)?;
    let local = GemModel::fit(&corpus, &config, features)
        .map_err(|e| format!("in-process fit failed: {e}"))?;
    let reference: Vec<Matrix> = queries
        .iter()
        .map(|q| {
            local
                .transform(std::slice::from_ref(q))
                .map(|e| e.matrix)
                .map_err(|e| format!("in-process transform failed: {e}"))
        })
        .collect::<Result<_, _>>()?;

    // The slow half of the mixed batch: a heavier configuration (never the cached
    // handle), evicted between phases so each phase pays a genuinely cold fit.
    let mut slow_config = config.clone();
    slow_config.gmm.n_components += 16;

    // Lockstep mixed batch: the PR 4 client's only mode — the fit must complete before
    // the first embed can even be sent, so every embed queues behind it.
    let started = std::time::Instant::now();
    let slow = client
        .fit(&corpus, &slow_config, features)
        .map_err(CliError::from)?;
    for (i, query) in queries.iter().enumerate() {
        let outcome = client
            .embed(fitted.handle, std::slice::from_ref(query))
            .map_err(CliError::from)?;
        if outcome.matrix != reference[i] {
            return Err(CliError::Usage(format!(
                "MISMATCH: lockstep embed {i} differs from the in-process serial path"
            )));
        }
    }
    let lockstep = started.elapsed();
    client.evict(slow.handle).map_err(CliError::from)?;

    // Pipelined mixed batch: all N+1 requests in flight at once; the clock stops when
    // the last *embed* lands (the fit keeps running and is drained afterwards).
    let started = std::time::Instant::now();
    let fit_id = client
        .send(RequestBody::Fit {
            corpus: corpus.clone(),
            config: slow_config,
            features,
            composition: None,
        })
        .map_err(CliError::from)?;
    let mut embed_ids = Vec::with_capacity(n_queries);
    for query in &queries {
        embed_ids.push(
            client
                .send(RequestBody::Embed {
                    handle: fitted.handle.to_hex(),
                    queries: vec![query.clone()],
                })
                .map_err(CliError::from)?,
        );
    }
    let mut arrival: Vec<u64> = Vec::new();
    let mut verified = 0usize;
    let mut pipelined = None;
    while client.pending() > 0 {
        let reply = client.recv_any().map_err(CliError::from)?;
        arrival.push(reply.id);
        let body = reply.outcome.map_err(CliError::from)?;
        if reply.id == fit_id {
            if !matches!(body, ResponseBody::Fitted { .. }) {
                return Err("pipelined fit answered with a non-fitted body".into());
            }
        } else {
            let index = embed_ids
                .iter()
                .position(|id| *id == reply.id)
                .ok_or_else(|| format!("reply to id {} which was never sent", reply.id))?;
            let ResponseBody::Embedded { matrix, .. } = body else {
                return Err(
                    format!("pipelined embed {index} answered with a non-embedded body").into(),
                );
            };
            if matrix != reference[index] {
                return Err(CliError::Usage(format!(
                    "MISMATCH: pipelined embed {index} differs from the in-process serial path"
                )));
            }
            verified += 1;
            if verified == n_queries {
                pipelined = Some(started.elapsed());
            }
        }
    }
    let pipelined = pipelined.expect("all embeds were answered");
    client.evict(slow.handle).map_err(CliError::from)?;

    let fit_position = arrival
        .iter()
        .position(|id| *id == fit_id)
        .expect("fit was answered");
    let overtook = fit_position; // replies that landed before the slow fit's
    let speedup = lockstep.as_secs_f64() / pipelined.as_secs_f64().max(1e-9);
    println!(
        "pipeline: OK — {verified}/{n_queries} pipelined embeds bit-identical to the \
         serial path, {overtook} overtook the slow fit (fit answered {}/{})",
        fit_position + 1,
        arrival.len()
    );
    println!(
        "mixed batch (1 slow fit + {n_queries} embeds), time to last embed — \
         lockstep: {:.2} ms  pipelined: {:.2} ms  speedup: {speedup:.2}x",
        lockstep.as_secs_f64() * 1e3,
        pipelined.as_secs_f64() * 1e3
    );
    if overtook == 0 {
        return Err(CliError::Usage(
            "pipelining had no effect: no embed overtook the slow fit (is the server \
             running with --workers >= 2?)"
                .to_string(),
        ));
    }
    Ok(())
}

fn verify(addr: &str, args: &[String]) -> CliResult {
    check_flags(args, &["--corpus", "--components", "--features"])?;
    let corpus = read_columns(&flag_value(args, "--corpus").ok_or("--corpus <file> is required")?)?;
    let config = config_of(args)?;
    let features = features_of(args)?;

    // The whole corpus goes up (chunked when it is large) and comes back embedded;
    // the frames must agree bit-for-bit with the in-process path.
    let mut client = GemClient::connect(addr)?;
    let fitted = client.fit(&corpus, &config, features)?;
    let remote = client.embed(fitted.handle, &corpus)?;
    let local = GemModel::fit(&corpus, &config, features)
        .and_then(|model| model.transform(&corpus))
        .map_err(|e| format!("in-process fit/transform failed: {e}"))?;
    if remote.matrix != local.matrix {
        return Err(CliError::Usage(format!(
            "MISMATCH: remote embedding (digest {:016x}) differs from in-process \
             GemModel::fit+transform (digest {:016x})",
            matrix_digest(&remote.matrix),
            matrix_digest(&local.matrix)
        )));
    }
    println!(
        "verify: OK — remote fit + embed bit-identical to in-process fit+transform \
         ({} x {}, handle {}, digest {:016x})",
        remote.matrix.rows(),
        remote.matrix.cols(),
        fitted.handle,
        matrix_digest(&remote.matrix)
    );
    Ok(())
}

/// Typed server errors that describe a transient condition worth retrying: the
/// admission layer shedding load, or a routing tier mid-fail-over. Each carries a
/// `retry_after_ms` hint the retry loop honors.
fn retryable(code: &str) -> bool {
    matches!(code, "overloaded" | "replica_unavailable" | "no_replica")
}

/// Remove a leading-anywhere `--retry N` pair from `args` (it is a global flag, not a
/// per-command one, so the per-command `check_flags` never sees it). Returns the
/// retry budget, 0 when absent.
fn take_retry_flag(args: &mut Vec<String>) -> Result<u32, String> {
    let Some(at) = args.iter().position(|a| a == "--retry") else {
        return Ok(0);
    };
    let value = args
        .get(at + 1)
        .ok_or("--retry needs a number of attempts")?
        .clone();
    let retries = value
        .parse()
        .map_err(|_| format!("--retry needs a number, got `{value}`"))?;
    args.drain(at..at + 2);
    Ok(retries)
}

/// Default backoff when a retryable error carries no `retry_after_ms` hint.
const DEFAULT_BACKOFF_MS: u64 = 200;

fn run() -> CliResult {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let retries = take_retry_flag(&mut args)?;
    let mut attempt = 0u32;
    loop {
        match run_command(&args) {
            Err(CliError::Server {
                code,
                message,
                retry_after_ms,
            }) if attempt < retries && retryable(&code) => {
                attempt += 1;
                let backoff = retry_after_ms.unwrap_or(DEFAULT_BACKOFF_MS);
                eprintln!(
                    "gem-client: [{code}] {message} — retrying ({attempt}/{retries}) in {backoff} ms"
                );
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
            outcome => return outcome,
        }
    }
}

fn run_command(args: &[String]) -> CliResult {
    let usage = "usage: gem-client [--retry N] \
                 <gen-corpus|fit|fit-update|embed|pull|push|pipeline|stats|health|list|evict|verify> ...\n  \
                 gem-client gen-corpus <file> [--columns N] [--rows N] [--seed N]\n  \
                 gem-client fit <addr> --corpus <file> [--components N] [--features D+S] [--composition NAME]\n  \
                 gem-client fit-update <addr> --handle <hex> --corpus <file-of-new-columns>\n  \
                 gem-client embed <addr> --handle <hex> --queries <file> [--out <file>]\n  \
                 gem-client pull <addr> --handle <hex> --out <file>\n  \
                 gem-client push <addr> --snapshot <file>\n  \
                 gem-client pipeline <addr> --corpus <file> [--components N] [--features D+S] [--queries N]\n  \
                 gem-client stats <addr>\n  \
                 gem-client health <addr>\n  \
                 gem-client list <addr>\n  \
                 gem-client evict <addr> --handle <hex>\n  \
                 gem-client verify <addr> --corpus <file> [--components N] [--features D+S]";
    let (command, target) = match (args.first(), args.get(1)) {
        (Some(command), Some(target)) => (command.as_str(), target.as_str()),
        _ => return Err(CliError::Usage(usage.to_string())),
    };
    let rest = &args[2..];
    match command {
        "gen-corpus" => gen_corpus(target, rest),
        "fit" => fit(target, rest),
        "fit-update" => fit_update(target, rest),
        "embed" => embed(target, rest),
        "pull" => pull(target, rest),
        "push" => push(target, rest),
        "pipeline" => pipeline(target, rest),
        "stats" => {
            check_flags(rest, &[])?;
            stats(target)
        }
        "health" => {
            check_flags(rest, &[])?;
            health(target)
        }
        "list" => {
            check_flags(rest, &[])?;
            list(target)
        }
        "evict" => evict(target, rest),
        "verify" => verify(target, rest),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{usage}"
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("gem-client: {message}");
            ExitCode::FAILURE
        }
        Err(CliError::Server { code, message, .. }) => {
            eprintln!("gem-client: server error [{code}]: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Overloaded) => {
            eprintln!("gem-client: server is overloaded (shedding new requests)");
            ExitCode::from(3)
        }
    }
}
