//! Load generator for the gem serving stack.
//!
//! ```sh
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns release `gem-served` (and `gem-routed`) processes, drives one workload against
//! them for `--seconds`, checks every reply against an in-process oracle, and prints a
//! table of every metric followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` splits the window into an untraced and a traced half
//! and reports the per-layer ledger (see `layers.rs`), writing the recorded spans to
//! `.perfbench/spans-<workload>-seed<N>.jsonl`.

mod data;
mod layers;
mod load;
mod procs;
mod prom;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{metric, Metric};
use load::Kind;
use workloads::{Ctx, Outcome};

const WORKLOADS: [&str; 3] = ["embed-routed-small", "embed-direct-bulk", "fit-mixed-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics (the ones `BENCHMARK.json` bounds) and, for the record, the
/// workload-specific ones that only some workloads support.
fn end_to_end(o: &Outcome) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let window_s = o
        .window
        .end
        .saturating_duration_since(o.window.start)
        .as_secs_f64();
    let embeds: Vec<&load::Op> = o
        .window
        .ops
        .iter()
        .filter(|op| op.kind == Kind::Embed)
        .collect();
    let latency: Vec<f64> = embeds.iter().map(|op| op.latency_ms()).collect();
    let cols: usize = embeds.iter().map(|op| op.cols).sum();
    let n = latency.len();
    let base = format!("{n} embeds");
    let bounded = vec![
        metric(
            "setup_s",
            stats::median(&o.setup_s),
            "s",
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        metric(
            "embed_p50_ms",
            stats::percentile("embed_p50_ms", &latency, 0.5)?,
            "ms",
            base.clone(),
        ),
        metric(
            "embed_p90_ms",
            stats::percentile("embed_p90_ms", &latency, 0.9)?,
            "ms",
            base.clone(),
        ),
        metric(
            "embed_req_per_s",
            n as f64 / window_s,
            "1/s",
            format!("{n} embeds in {window_s:.3} s"),
        ),
        metric(
            "embed_cols_per_s",
            cols as f64 / window_s,
            "1/s",
            format!("{cols} columns in {window_s:.3} s"),
        ),
        metric(
            "peak_rss_mb",
            o.window.peak_rss_mb,
            "MiB",
            "summed VmHWM of router and replicas",
        ),
    ];
    // Reported only where the sample supports them.
    let mut extra = Vec::new();
    if let Ok(p99) = stats::percentile("embed_p99_ms", &latency, 0.99) {
        extra.push(metric("embed_p99_ms", p99, "ms", base));
    }
    let fits: Vec<f64> = o
        .window
        .ops
        .iter()
        .filter(|op| op.kind != Kind::Embed)
        .map(|op| op.latency_ms())
        .collect();
    if !fits.is_empty() {
        let base = format!("{} fits and fit_updates", fits.len());
        if let Ok(p50) = stats::percentile("fit_p50_ms", &fits, 0.5) {
            extra.push(metric("fit_p50_ms", p50, "ms", base.clone()));
        }
        if let Ok(p90) = stats::percentile("fit_p90_ms", &fits, 0.9) {
            extra.push(metric("fit_p90_ms", p90, "ms", base.clone()));
        }
        extra.push(metric(
            "fits_per_s",
            fits.len() as f64 / window_s,
            "1/s",
            base,
        ));
        let lags: Vec<f64> = o
            .window
            .ops
            .iter()
            .map(|op| op.lag.as_secs_f64() * 1e3)
            .collect();
        if let Ok(p99) = stats::percentile("lag_p99_ms", &lags, 0.99) {
            extra.push(metric(
                "lag_p99_ms",
                p99,
                "ms",
                format!("{} requests", lags.len()),
            ));
        }
    }
    let (attempted, failed) = o.totals();
    extra.push(metric(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        format!("{failed} failed / {attempted} attempted"),
    ));
    Ok((bounded, extra))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!(
            "  {:<34} {:>16.4} {:<8} {}",
            x.name, x.value, x.unit, x.base
        );
    }
}

fn json_line(o: &Outcome, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("{} is not a finite number", x.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        ));
    }
    let (attempted, failed) = o.totals();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let scratch = root.join(".perfbench");
    let ctx = Ctx {
        bins: procs::bin_dir()?,
        run_dir: scratch.join(format!("run-{}", std::process::id())),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "embed-routed-small" => workloads::embed_routed_small(&ctx),
        "embed-direct-bulk" => workloads::embed_direct_bulk(&ctx),
        _ => workloads::fit_mixed_open(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let mut outcome = outcome?;

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("  {}", outcome.config_line);
    let (bounded, extra) = end_to_end(&outcome)?;
    print_table("end to end", &bounded);
    print_table("workload-specific (not bounded)", &extra);
    if !args.trace {
        return json_line(&outcome, &bounded);
    }

    let mut spans = std::mem::take(&mut outcome.window.spans);
    let ledger = layers::ledger(&outcome, &mut spans)?;
    print_table(
        "per layer (traced half of the window, replays after it)",
        &ledger,
    );
    println!("spans (mean duration / mean self time, us)");
    for (name, (count, duration, own)) in trace::summarize(&spans) {
        println!("  {name:<34} n={count:<8} {duration:>12.2} {own:>12.2}");
    }
    let path: PathBuf = scratch.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&path, &spans)?;
    println!("  {} spans written to {}", spans.len(), path.display());
    json_line(&outcome, &ledger)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
