//! The cluster front-end daemon: a `RouterServer` over a set of `gem-served`
//! replicas, with health probes, snapshot-driven fail-over, and a Prometheus
//! exposition.
//!
//! ```sh
//! gem-routed --replica HOST:PORT [--replica HOST:PORT ...] [--addr 127.0.0.1:7979]
//!            [--probe-interval MS] [--down-after N] [--connect-timeout MS]
//!            [--vnodes N] [--metrics-addr HOST:PORT] [--ctl-stdin]
//! ```
//!
//! * `--replica` — a `gem-served` replica address; repeat for each member. At least
//!   one is required. Handles are partitioned across replicas by consistent hashing.
//! * `--addr` — listen address for clients; port `0` picks an ephemeral port. The
//!   resolved address is printed as `gem-routed listening on <addr>` once bound
//!   (scripts wait for that line, then connect).
//! * `--probe-interval` — milliseconds between supervisor health probes of every
//!   replica. Defaults to 1000.
//! * `--down-after` — consecutive probe failures before a replica is marked down
//!   (forwarding failures mark it down immediately regardless). Defaults to 2.
//! * `--connect-timeout` — milliseconds for upstream connects and control traffic
//!   (probes, snapshot pulls/pushes, and each leg of a `stats` / `list-models` /
//!   `evict` fan-out; a replica that outruns it is left out of that fan-out).
//!   Defaults to 2000.
//! * `--vnodes` — virtual nodes per replica on the hash ring. Defaults to 64.
//! * `--metrics-addr` — serve the router's Prometheus text exposition (cluster
//!   counters, per-replica state/forwards/latency) over plain HTTP at this address;
//!   printed as `gem-routed metrics on <addr>`. Off by default.
//! * `--ctl-stdin` — watch stdin for admin lines:
//!   `add-replica HOST:PORT` / `remove-replica HOST:PORT` change the membership and
//!   trigger a snapshot-driven rebalance (never a refit); `rebalance` forces a pass;
//!   `shutdown` (or EOF) stops the router. Admin responses are printed to stdout as
//!   `gem-routed admin: ...` lines.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gem_router::ring::DEFAULT_VNODES;
use gem_router::{Cluster, RouterMetrics, RouterServer, Supervisor};
use gem_telemetry::spawn_exposition_listener;

struct Args {
    replicas: Vec<String>,
    addr: String,
    probe_interval_ms: u64,
    down_after: u32,
    connect_timeout_ms: u64,
    vnodes: usize,
    metrics_addr: Option<String>,
    ctl_stdin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        replicas: Vec::new(),
        addr: "127.0.0.1:7979".to_string(),
        probe_interval_ms: 1_000,
        down_after: 2,
        connect_timeout_ms: 2_000,
        vnodes: DEFAULT_VNODES,
        metrics_addr: None,
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
            "--replica" => args.replicas.push(value("--replica")?),
            "--addr" => args.addr = value("--addr")?,
            "--probe-interval" => {
                args.probe_interval_ms = value("--probe-interval")?
                    .parse()
                    .map_err(|_| "--probe-interval needs milliseconds".to_string())?;
            }
            "--down-after" => {
                args.down_after = value("--down-after")?
                    .parse()
                    .map_err(|_| "--down-after needs a positive integer".to_string())?;
            }
            "--connect-timeout" => {
                args.connect_timeout_ms = value("--connect-timeout")?
                    .parse()
                    .map_err(|_| "--connect-timeout needs milliseconds".to_string())?;
            }
            "--vnodes" => {
                args.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|_| "--vnodes needs a positive integer".to_string())?;
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--ctl-stdin" => args.ctl_stdin = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.replicas.is_empty() {
        return Err("at least one --replica HOST:PORT is required".to_string());
    }
    if args.probe_interval_ms == 0 {
        return Err("--probe-interval must be positive".to_string());
    }
    if args.down_after == 0 {
        return Err("--down-after must be positive".to_string());
    }
    if args.connect_timeout_ms == 0 {
        return Err("--connect-timeout must be positive".to_string());
    }
    if args.vnodes == 0 {
        return Err("--vnodes must be positive".to_string());
    }
    Ok(args)
}

/// One admin line from stdin. Returns `true` when the router should shut down.
fn handle_admin_line(cluster: &Arc<Cluster>, line: &str) -> bool {
    let mut words = line.split_whitespace();
    match (words.next(), words.next()) {
        (Some("shutdown"), _) => return true,
        (Some("rebalance"), _) => {
            let report = cluster.rebalance();
            println!(
                "gem-routed admin: rebalance examined={} moved={} replicated={} failures={}",
                report.examined,
                report.moved,
                report.replicated,
                report.failures.len()
            );
        }
        (Some("add-replica"), Some(addr)) => {
            if cluster.add_replica(addr) {
                let report = cluster.rebalance();
                println!(
                    "gem-routed admin: added {addr}; rebalance moved={} replicated={}",
                    report.moved, report.replicated
                );
            } else {
                println!("gem-routed admin: {addr} is already a member");
            }
        }
        (Some("remove-replica"), Some(addr)) => {
            if cluster.remove_replica(addr) {
                let report = cluster.rebalance();
                println!(
                    "gem-routed admin: removed {addr}; rebalance moved={} replicated={}",
                    report.moved, report.replicated
                );
            } else {
                println!("gem-routed admin: {addr} is not a member");
            }
        }
        (Some(other), _) => {
            println!(
                "gem-routed admin: unknown command `{other}` \
                 (add-replica ADDR | remove-replica ADDR | rebalance | shutdown)"
            );
        }
        (None, _) => {}
    }
    let _ = std::io::stdout().flush();
    false
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: gem-routed --replica HOST:PORT [--replica HOST:PORT ...] \
             [--addr HOST:PORT] [--probe-interval MS] [--down-after N] \
             [--connect-timeout MS] [--vnodes N] [--metrics-addr HOST:PORT] [--ctl-stdin]"
        )
    })?;

    let metrics = Arc::new(RouterMetrics::new());
    let cluster = Arc::new(Cluster::with_options(
        &args.replicas,
        Arc::clone(&metrics),
        args.vnodes,
        args.down_after,
        Duration::from_millis(args.probe_interval_ms),
        Duration::from_millis(args.connect_timeout_ms),
    ));

    let server = RouterServer::bind(Arc::clone(&cluster), args.addr.as_str())
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let metrics_addr = match &args.metrics_addr {
        Some(scrape_addr) => {
            let metrics = Arc::clone(&metrics);
            Some(
                spawn_exposition_listener(scrape_addr.as_str(), move || metrics.render())
                    .map_err(|e| format!("cannot bind metrics address {scrape_addr}: {e}"))?,
            )
        }
        None => None,
    };
    let mut supervisor = Supervisor::spawn(Arc::clone(&cluster));

    if args.ctl_stdin {
        // Admin + graceful-shutdown channel. Opt-in for the same reason as
        // gem-served's: a detached process inherits /dev/null, whose immediate EOF
        // would otherwise stop the daemon at startup.
        let ctl = handle.clone();
        let admin_cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(text) => {
                        if handle_admin_line(&admin_cluster, &text) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            ctl.shutdown();
        });
    }

    // Readiness lines, flushed: scripts wait for the `listening on` line and sed the
    // addresses out, exactly as with gem-served.
    println!("gem-routed replicas: {}", args.replicas.join(","));
    if let Some(scrape) = metrics_addr {
        println!("gem-routed metrics on {scrape}");
    }
    println!("gem-routed listening on {addr}");
    let _ = std::io::stdout().flush();

    server.run().map_err(|e| e.to_string())?;
    supervisor.stop();
    let states: Vec<String> = cluster
        .replica_states()
        .into_iter()
        .map(|(replica, state)| format!("{replica}={}", state.name()))
        .collect();
    println!("gem-routed shutdown replicas: {}", states.join(","));
    let _ = std::io::stdout().flush();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gem-routed: {message}");
            ExitCode::FAILURE
        }
    }
}
