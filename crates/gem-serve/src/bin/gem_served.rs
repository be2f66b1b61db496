//! The serving daemon: `EmbedService` behind a TCP socket speaking `gem-proto`
//! length-prefixed frames after the hello handshake.
//!
//! ```sh
//! gem-served [--addr 127.0.0.1:7878] [--workers N] [--queue-capacity N]
//!            [--metrics-addr HOST:PORT] [--cache-capacity N] [--store DIR]
//!            [--components N] [--ctl-stdin]
//! ```
//!
//! * `--addr` — listen address; use port `0` for an ephemeral port. The resolved
//!   address is printed as `gem-served listening on <addr>` once the socket is bound
//!   (scripts wait for that line, then connect).
//! * `--workers` — executor-pool size: how many requests (across all connections)
//!   execute concurrently; responses return out of order as they finish. Defaults to
//!   the machine's parallelism clamped to `[2, 8]`.
//! * `--queue-capacity` — admission bound on the shared work queue. Requests arriving
//!   while this many frames wait are **shed** with a typed `overloaded` error carrying
//!   a retry-after hint, instead of stalling every connection behind an unbounded
//!   backlog. Defaults to 1024.
//! * `--metrics-addr` — also serve the Prometheus text exposition (counters, queue
//!   gauges, per-shape latency quantiles) over plain HTTP at this address; port `0`
//!   picks an ephemeral port. The resolved address is printed as
//!   `gem-served metrics on <addr>`. Every request gets the full document — the path
//!   is ignored. Off by default.
//! * `--cache-capacity` — how many fitted models stay resident (default 64). Beyond it
//!   the least recently used model is evicted: spilled to the store with `--store`,
//!   dropped without one.
//! * `--store DIR` — attach an on-disk model store: evictions spill, misses warm-start,
//!   and client handles survive restarts.
//! * `--components` — GMM components of the registered `EmbedCorpus` method family
//!   (`Fit` requests carry their own configuration and are unaffected).
//! * `--ctl-stdin` — watch stdin for graceful shutdown: a `shutdown` line (or EOF)
//!   stops accepting, drains in-flight work, and logs the one-line structured
//!   `shutdown summary` (requests served, coalesced fits, worker high-water) before
//!   exiting — the hook scripts use to end soak runs debuggably. Without the flag the
//!   server runs until killed.

use gem_core::{GemConfig, MethodRegistry};
use gem_serve::{shutdown_summary, CachePolicy, EmbedService, GemServer, ModelStore, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Serve the Prometheus text exposition over bare HTTP on its own listener thread.
///
/// One short-lived connection per scrape: the request head is drained (the path is
/// ignored — every request gets the full document), the exposition is rendered from
/// the live instruments plus the service's cache statistics, and the socket closes.
/// The thread is detached; it dies with the process.
fn spawn_metrics_listener(
    addr: &str,
    handle: ServerHandle,
    service: Arc<EmbedService>,
) -> Result<SocketAddr, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot bind metrics address {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let mut head = [0u8; 1024];
            let _ = stream.read(&mut head);
            let stats = service.stats();
            let body = handle.metrics().render(handle.counters(), Some(&stats));
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        }
    });
    Ok(bound)
}

struct Args {
    addr: String,
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    metrics_addr: Option<String>,
    capacity: usize,
    store: Option<String>,
    components: usize,
    ctl_stdin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        workers: None,
        queue_capacity: None,
        metrics_addr: None,
        capacity: 64,
        store: None,
        components: GemConfig::default().gmm.n_components,
        ctl_stdin: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs a positive integer".to_string())?,
                );
            }
            "--queue-capacity" => {
                args.queue_capacity = Some(
                    value("--queue-capacity")?
                        .parse()
                        .map_err(|_| "--queue-capacity needs a positive integer".to_string())?,
                );
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--cache-capacity" => {
                args.capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs a positive integer".to_string())?;
            }
            "--store" => args.store = Some(value("--store")?),
            "--components" => {
                args.components = value("--components")?
                    .parse()
                    .map_err(|_| "--components needs a positive integer".to_string())?;
            }
            "--ctl-stdin" => args.ctl_stdin = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.capacity == 0 {
        return Err("--cache-capacity must be positive".to_string());
    }
    if args.workers == Some(0) {
        return Err("--workers must be positive".to_string());
    }
    if args.queue_capacity == Some(0) {
        return Err("--queue-capacity must be positive".to_string());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: gem-served [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
             [--metrics-addr HOST:PORT] [--cache-capacity N] [--store DIR] [--components N] \
             [--ctl-stdin]"
        )
    })?;

    let config = GemConfig::with_components(args.components);
    let mut service = EmbedService::with_policy(
        MethodRegistry::with_gem(&config),
        CachePolicy::with_capacity(args.capacity),
    );
    service.register_gem_family(&config);
    if let Some(dir) = &args.store {
        let store = ModelStore::open(dir).map_err(|e| e.to_string())?;
        service = service.with_store(Arc::new(store));
    }

    let service = Arc::new(service);
    let mut server = GemServer::bind(Arc::clone(&service), args.addr.as_str())
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    if let Some(workers) = args.workers {
        server = server.with_workers(workers);
    }
    if let Some(capacity) = args.queue_capacity {
        server = server.with_queue_capacity(capacity);
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let metrics_addr = match &args.metrics_addr {
        Some(scrape_addr) => Some(spawn_metrics_listener(
            scrape_addr,
            handle.clone(),
            Arc::clone(&service),
        )?),
        None => None,
    };
    if args.ctl_stdin {
        // Graceful-shutdown control channel: a `shutdown` line (or stdin EOF) stops
        // the server. Opt-in because a detached process inherits /dev/null — whose
        // immediate EOF would otherwise shut a daemon down at startup.
        let ctl = handle.clone();
        std::thread::spawn(move || {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(text) if text.trim() == "shutdown" => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            ctl.shutdown();
        });
    }
    // Announce readiness on stdout (flushed) so scripts can wait for this exact line —
    // the address line's format is load-bearing (scripts `sed` the address out of it).
    println!("gem-served workers: {}", server.workers());
    if let Some(scrape) = metrics_addr {
        println!("gem-served metrics on {scrape}");
    }
    println!("gem-served listening on {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())?;
    // Only the graceful path reaches here (a kill never returns from run), so this is
    // the soak-run debugging record: one structured line, greppable key=value fields.
    println!(
        "{}",
        shutdown_summary(handle.counters(), handle.metrics(), &service.stats())
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gem-served: {message}");
            ExitCode::FAILURE
        }
    }
}
