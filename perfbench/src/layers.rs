//! The per-layer ledger of a traced run: client-side spans, window deltas of the
//! replicas' and the router's expositions, and single-threaded in-process replays of
//! each layer's public functions on a seeded sample of the workload's requests (run
//! after the measured window, so they do not perturb the load).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gem_core::{
    compose, signature_matrix, stack_values, statistical_feature_matrix, GemColumn, GemConfig,
    MethodRegistry,
};
use gem_gmm::UnivariateGmm;
use gem_proto::{binary, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope};
use gem_serve::{
    decode_snapshot, encode_snapshot, model_key, CachePolicy, EmbedService, ServeRequest,
};
use gem_text::{HashEmbedder, TextEmbedder};

use crate::load::{same_bits, Kind};
use crate::prom::Window;
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workloads::Outcome;

/// Wall-clock budget of one replay group (at least one pass over the sample runs).
const REPLAY_BUDGET: Duration = Duration::from_millis(150);

/// Request shapes whose server phases are reported.
const SHAPES: [&str; 5] = ["embed", "fit", "fit_update", "push_model", "pull_model"];
const PHASES: [&str; 4] = ["queue", "decode", "execute", "encode"];

/// One reported metric with the base it was computed from.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

pub fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    base: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        base: base.into(),
    }
}

/// Mean of `f`'s self-measured durations over repeated passes of `items`, in µs, with
/// the number of timed calls. One span covers the whole group.
fn replay<T>(
    recorder: &mut Recorder,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T) -> Duration,
) -> (f64, usize) {
    let begin = Instant::now();
    let mut total = Duration::ZERO;
    let mut calls = 0usize;
    while calls == 0 || begin.elapsed() < REPLAY_BUDGET {
        for item in items {
            total += f(item);
            calls += 1;
        }
    }
    recorder.leaf(name, None, 0, (begin, Instant::now()));
    (total.as_secs_f64() * 1e6 / calls as f64, calls)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Results of the in-process replays, µs per call with call counts.
struct Replays {
    encode: (f64, usize),
    decode: (f64, usize),
    serve_one: (f64, usize),
    transform: (f64, usize),
    signature: (f64, usize),
    statistical: (f64, usize),
    contextual: (f64, usize),
    compose: (f64, usize),
    gmm_fit: (f64, usize),
    em_iterations: f64,
    model_key: (f64, usize),
    snapshot_encode: (f64, usize),
    snapshot_decode: (f64, usize),
    snapshot_bytes: f64,
    contextual_in_transform: bool,
}

fn run_replays(o: &Outcome, recorder: &mut Recorder) -> Result<Replays, String> {
    let samples = &o.samples;
    if samples.is_empty() {
        return Err("no embed requests sampled for the replays".to_string());
    }
    let model_of = |i: usize| &o.fitted[i].model;

    // Client codec: building and encoding the request frames, decoding the reply frames.
    let encode = replay(recorder, "replay.client.encode", samples, |s| {
        timed(|| {
            let envelope = RequestEnvelope::new(
                1,
                RequestBody::Embed {
                    handle: o.fitted[s.fitted].handle.to_hex(),
                    queries: s.queries.clone(),
                },
            );
            binary::encode_request_frames(&envelope, binary::DEFAULT_CHUNK_BYTES)
        })
    });
    let replies: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| {
            binary::encode_response_frames(&ResponseEnvelope::new(
                1,
                ResponseBody::Embedded {
                    matrix: (*s.want).clone(),
                    served_from: "memory_cache".to_string(),
                },
            ))
            .map_err(|e| format!("encode reply frames: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let decode = replay(recorder, "replay.client.decode", &replies, |bytes| {
        timed(|| {
            let mut assembler = binary::FrameAssembler::new();
            let mut partials = binary::EmbedPartials::new();
            assembler.push(bytes);
            while let Ok(Some(frame)) = assembler.next_frame() {
                if let Ok(Some(envelope)) = binary::decode_response_frame(&frame, &mut partials) {
                    return Some(envelope);
                }
            }
            None
        })
    });

    // Service dispatch: the same requests through an in-process EmbedService configured
    // like gem-served, against models it fitted itself.
    let served_config = GemConfig::default();
    let mut service = EmbedService::with_policy(
        MethodRegistry::with_gem(&served_config),
        CachePolicy::with_capacity(64),
    );
    service.register_gem_family(&served_config);
    let needed: BTreeSet<usize> = samples.iter().map(|s| s.fitted).collect();
    for &i in &needed {
        let f = &o.fitted[i];
        let fitted = service
            .serve_one(ServeRequest::fit(
                Arc::clone(&f.corpus),
                f.config.clone(),
                f.features,
            ))
            .map_err(|e| format!("replay fit: {e}"))?;
        if fitted.handle() != Some(f.handle) {
            return Err("replay fit produced a different handle".to_string());
        }
    }
    let mut mismatch = false;
    let serve_one = replay(recorder, "replay.service.serve_one", samples, |s| {
        let request = ServeRequest::embed(o.fitted[s.fitted].handle, s.queries.clone());
        let start = Instant::now();
        let served = service.serve_one(request);
        let took = start.elapsed();
        mismatch |= !matches!(&served, Ok(r) if r.matrix().is_some_and(|m| same_bits(m, &s.want)));
        took
    });
    if mismatch {
        return Err("in-process serve_one disagrees with the oracle".to_string());
    }

    // Core blocks of Algorithm 1 on the same queries.
    let transform = replay(recorder, "replay.core.transform", samples, |s| {
        timed(|| model_of(s.fitted).transform(&s.queries))
    });
    let values: Vec<Vec<&[f64]>> = samples
        .iter()
        .map(|s| s.queries.iter().map(|c| c.values.as_slice()).collect())
        .collect();
    let indexed: Vec<usize> = (0..samples.len()).collect();
    let signature = replay(recorder, "replay.core.signature", &indexed, |&i| {
        let model = model_of(samples[i].fitted);
        match model.gmm() {
            Some(gmm) => timed(|| signature_matrix(gmm, &values[i], model.config().parallel)),
            None => Duration::ZERO,
        }
    });
    let statistical = replay(recorder, "replay.core.statistical", &indexed, |&i| {
        let model = model_of(samples[i].fitted);
        timed(|| {
            let raw = statistical_feature_matrix(&values[i]);
            model.scaler().map(|scaler| scaler.transform(&raw))
        })
    });
    let embedder = HashEmbedder::new(o.fitted[samples[0].fitted].config.text_dim);
    let contextual = replay(recorder, "replay.core.contextual", samples, |s| {
        timed(|| {
            s.queries
                .iter()
                .map(|c: &GemColumn| embedder.embed(&c.header))
                .collect::<Vec<_>>()
        })
    });
    let blocks: Vec<_> = samples
        .iter()
        .map(|s| model_of(s.fitted).transform(&s.queries))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("replay transform: {e}"))?;
    let compose_time = replay(recorder, "replay.core.compose", &indexed, |&i| {
        let b = &blocks[i];
        let parts: Vec<_> = [&b.value_block, &b.header_block]
            .into_iter()
            .filter(|m| m.cols() > 0)
            .collect();
        let composition = model_of(samples[i].fitted).config().composition;
        timed(|| compose(&parts, composition))
    });

    // Fit-side layers on a sample of the workload's fit corpora.
    let fits: Vec<usize> = (0..o.fitted.len().min(4)).collect();
    let stacked: Vec<Vec<f64>> = fits
        .iter()
        .map(|&i| {
            let cols: Vec<&[f64]> = o.fitted[i]
                .corpus
                .iter()
                .map(|c| c.values.as_slice())
                .collect();
            stack_values(&cols)
        })
        .collect();
    let mut iterations = Vec::new();
    let gmm_fit = replay(recorder, "replay.gmm.fit", &fits, |&i| {
        let start = Instant::now();
        let gmm = UnivariateGmm::fit(&stacked[i], &o.fitted[i].config.gmm);
        let took = start.elapsed();
        if let Ok(gmm) = gmm {
            iterations.push(gmm.n_iterations() as f64);
        }
        took
    });
    let key_time = replay(recorder, "replay.store.model_key", &fits, |&i| {
        let f = &o.fitted[i];
        timed(|| model_key(&f.corpus, &f.config, f.features))
    });
    let snapshots: Vec<_> = fits
        .iter()
        .map(|&i| encode_snapshot(o.fitted[i].handle.key(), &o.fitted[i].model))
        .collect();
    let snapshot_bytes = stats::mean(
        &snapshots
            .iter()
            .map(|s| s.to_compact_string().len() as f64)
            .collect::<Vec<_>>(),
    );
    let snapshot_encode = replay(recorder, "replay.store.encode_snapshot", &fits, |&i| {
        timed(|| encode_snapshot(o.fitted[i].handle.key(), &o.fitted[i].model))
    });
    let snapshot_decode = replay(recorder, "replay.store.decode_snapshot", &fits, |&i| {
        timed(|| decode_snapshot(&snapshots[i], Some(o.fitted[i].handle.key())))
    });

    Ok(Replays {
        encode,
        decode,
        serve_one,
        transform,
        signature,
        statistical,
        contextual,
        compose: compose_time,
        gmm_fit,
        em_iterations: stats::mean(&iterations),
        model_key: key_time,
        snapshot_encode,
        snapshot_decode,
        snapshot_bytes,
        contextual_in_transform: o.fitted[samples[0].fitted].features.contextual,
    })
}

/// Δ`router_replica_request_seconds` mean over every replica, µs, with the count.
fn forward_mean_us(router: &Window) -> (f64, f64) {
    let sum: f64 = router
        .deltas_matching("router_replica_request_seconds_sum{")
        .values()
        .sum();
    let count: f64 = router
        .deltas_matching("router_replica_request_seconds_count{")
        .values()
        .sum();
    if count > 0.0 {
        (sum * 1e6 / count, count)
    } else {
        (0.0, 0.0)
    }
}

/// Every per-layer metric of a traced run.
pub fn ledger(o: &Outcome, spans: &mut Vec<Span>) -> Result<Vec<Metric>, String> {
    let mut recorder = Recorder::new(o.window.start, 99);
    let r = run_replays(o, &mut recorder)?;
    spans.extend(recorder.spans);
    let mut out = Vec::new();
    let replayed = |(_, n): (f64, usize)| format!("replayed, {n} calls");

    // client
    let traced_embeds: Vec<f64> = o
        .window
        .ops
        .iter()
        .filter(|op| op.traced && op.kind == Kind::Embed)
        .map(|op| op.done.saturating_duration_since(op.sent).as_secs_f64() * 1e6)
        .collect();
    let rtt = stats::mean(&traced_embeds);
    let rtt_base = format!(
        "{} traced embeds, send to decoded reply",
        traced_embeds.len()
    );
    out.push(metric("client.rtt_mean_us", rtt, "us", rtt_base));
    out.push(metric(
        "client.encode_mean_us",
        r.encode.0,
        "us",
        replayed(r.encode),
    ));
    out.push(metric(
        "client.decode_mean_us",
        r.decode.0,
        "us",
        replayed(r.decode),
    ));

    // proto
    let win = &o.window.replicas;
    let requests = win.delta("gem_requests_total");
    let per_request = |series: &str| {
        if requests > 0.0 {
            win.delta(series) / requests
        } else {
            0.0
        }
    };
    let proto_base = format!("replica wire bytes / {requests} replica requests, traced half");
    out.push(metric(
        "proto.req_bytes_per_op",
        per_request("gem_wire_bytes_read_total"),
        "B",
        proto_base.clone(),
    ));
    out.push(metric(
        "proto.resp_bytes_per_op",
        per_request("gem_wire_bytes_written_total"),
        "B",
        proto_base,
    ));

    // router
    let router = &o.window.router;
    let (forward, forwards) = forward_mean_us(router);
    let router_scope = if o.routed {
        "traced half"
    } else {
        "post-window probe through a gem-routed in front of the replica"
    };
    out.push(metric(
        "router.forward_mean_us",
        forward,
        "us",
        format!("{forwards} forwards, {router_scope}"),
    ));
    out.push(metric(
        "router.hop_us",
        o.routed_rtt_us.0 - forward,
        "us",
        format!(
            "mean client round trip of {} routed requests minus forward mean, {router_scope}",
            o.routed_rtt_us.1
        ),
    ));
    let per_replica: Vec<f64> = router
        .deltas_matching("router_replica_forwards_total{")
        .into_values()
        .collect();
    let most = per_replica.iter().copied().fold(0.0, f64::max);
    let least = per_replica.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(metric(
        "router.forward_balance",
        if per_replica.is_empty() {
            0.0
        } else {
            most / least.max(1.0)
        },
        "ratio",
        format!(
            "max/min forwards over {} replicas, {router_scope}",
            per_replica.len()
        ),
    ));
    let router_errors: f64 = router
        .deltas_matching("router_replica_errors_total{")
        .values()
        .sum();
    for (name, value) in [
        (
            "router.replications",
            router.delta("router_replications_total"),
        ),
        ("router.errors", router_errors),
        ("router.no_replica", router.delta("router_no_replica_total")),
    ] {
        out.push(metric(name, value, "count", router_scope));
    }

    // server, per shape; a shape the traced half never carried is read over set-up
    // plus window.
    let mut server_embed_us = 0.0;
    for shape in SHAPES {
        let series = format!("gem_request_seconds_count{{shape=\"{shape}\"}}");
        let (w, scope) = if win.delta(&series) > 0.0 {
            (win, "traced half")
        } else {
            (
                &o.window.replicas_whole,
                "set-up and window (none in the traced half)",
            )
        };
        for phase in PHASES {
            let labels = format!("{{shape=\"{shape}\",phase=\"{phase}\"}}");
            let (mean, count) = w.mean_us("gem_request_phase_seconds", &labels);
            if shape == "embed" {
                server_embed_us += mean;
            }
            out.push(metric(
                format!("server.{shape}.{phase}_mean_us"),
                mean,
                "us",
                format!("Δsum/Δcount over {count} requests, {scope}"),
            ));
        }
        out.push(metric(
            format!("server.{shape}.count"),
            w.delta(&series),
            "count",
            scope,
        ));
    }
    let lifetime = "largest replica gauge since start";
    out.push(metric(
        "server.queue_depth_high_water",
        win.max_after("gem_queue_depth_high_water"),
        "count",
        lifetime,
    ));
    out.push(metric(
        "server.workers_busy_high_water",
        win.max_after("gem_workers_busy_high_water"),
        "count",
        lifetime,
    ));
    out.push(metric(
        "server.shed",
        win.delta("gem_requests_shed_total"),
        "count",
        "traced half",
    ));
    out.push(metric(
        "server.protocol_errors",
        win.delta("gem_protocol_errors_total"),
        "count",
        "traced half",
    ));
    out.push(metric(
        "server.conn_inflight_peak",
        win.max_after("gem_connection_inflight_peak"),
        "count",
        lifetime,
    ));

    // service and cache
    out.push(metric(
        "service.dispatch_mean_us",
        r.serve_one.0 - r.transform.0,
        "us",
        format!(
            "replayed serve_one ({} calls) minus replayed transform ({} calls)",
            r.serve_one.1, r.transform.1
        ),
    ));
    // Every fit these workloads send is of a never-seen corpus, so each fit request is
    // one cold EM fit.
    let fit_requests = "gem_request_seconds_count{shape=\"fit\"}";
    let (fit_window, fit_scope) = if win.delta(fit_requests) > 0.0 {
        (win, "traced half")
    } else {
        (
            &o.window.replicas_whole,
            "set-up and window (no fit in the traced half)",
        )
    };
    let fits = fit_window.delta(fit_requests);
    out.push(metric(
        "service.em_iterations_per_fit",
        if fits > 0.0 {
            fit_window.delta("gem_em_iterations_total") / fits
        } else {
            0.0
        },
        "count",
        format!("Δem_iterations / {fits} fit requests, {fit_scope}"),
    ));
    let hits = win.delta("gem_cache_hits_total");
    let misses = win.delta("gem_cache_misses_total");
    let warm = win.delta("gem_cache_warm_starts_total");
    for (name, series) in [
        ("cache.hits", "gem_cache_hits_total"),
        ("cache.misses", "gem_cache_misses_total"),
        ("cache.warm_starts", "gem_cache_warm_starts_total"),
        ("cache.coalesced_fits", "gem_coalesced_fits_total"),
        ("cache.evictions", "gem_cache_evictions_total"),
        ("cache.spills", "gem_cache_spills_total"),
        ("cache.store_errors", "gem_store_errors_total"),
    ] {
        out.push(metric(
            name,
            win.delta(series),
            "count",
            "Δ over replicas, traced half",
        ));
    }
    let lookups = hits + misses + warm;
    out.push(metric(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
        format!("{hits} hits / {lookups} lookups, traced half"),
    ));

    // core
    let mut blocks_us = r.signature.0 + r.statistical.0 + r.compose.0;
    if r.contextual_in_transform {
        blocks_us += r.contextual.0;
    }
    for (name, value) in [
        ("core.transform_mean_us", r.transform),
        ("core.signature_mean_us", r.signature),
        ("core.statistical_mean_us", r.statistical),
        ("core.contextual_mean_us", r.contextual),
        ("core.compose_mean_us", r.compose),
    ] {
        out.push(metric(name, value.0, "us", replayed(value)));
    }
    out.push(metric(
        "core.transform_unaccounted_us",
        r.transform.0 - blocks_us,
        "us",
        if r.contextual_in_transform {
            "transform minus signature, statistical, contextual and compose replays"
        } else {
            "transform minus signature, statistical and compose replays (no contextual block)"
        },
    ));

    // gmm and store
    out.push(metric(
        "gmm.fit_mean_us",
        r.gmm_fit.0,
        "us",
        replayed(r.gmm_fit),
    ));
    out.push(metric(
        "gmm.em_iterations_mean",
        r.em_iterations,
        "count",
        "winning restart of the replayed fits",
    ));
    out.push(metric(
        "store.model_key_mean_us",
        r.model_key.0,
        "us",
        replayed(r.model_key),
    ));
    out.push(metric(
        "store.snapshot_encode_mean_us",
        r.snapshot_encode.0,
        "us",
        replayed(r.snapshot_encode),
    ));
    out.push(metric(
        "store.snapshot_decode_mean_us",
        r.snapshot_decode.0,
        "us",
        replayed(r.snapshot_decode),
    ));
    out.push(metric(
        "store.snapshot_bytes",
        r.snapshot_bytes,
        "B",
        "mean compact JSON size of the replayed snapshots",
    ));

    // loadgen
    let lags: Vec<f64> = o
        .window
        .ops
        .iter()
        .map(|op| op.lag.as_secs_f64() * 1e3)
        .collect();
    let lag_base = format!("{} requests, whole window", lags.len());
    out.push(metric(
        "loadgen.lag_p50_ms",
        stats::percentile("loadgen.lag_p50_ms", &lags, 0.5)?,
        "ms",
        lag_base.clone(),
    ));
    out.push(metric(
        "loadgen.lag_p90_ms",
        stats::percentile("loadgen.lag_p90_ms", &lags, 0.9)?,
        "ms",
        lag_base,
    ));
    let half = |traced: bool| -> Vec<f64> {
        o.window
            .ops
            .iter()
            .filter(|op| op.kind == Kind::Embed && op.traced == traced)
            .map(|op| op.latency_ms())
            .collect()
    };
    let (plain, traced) = (half(false), half(true));
    let plain_p50 = stats::percentile("untraced embed p50", &plain, 0.5)?;
    let traced_p50 = stats::percentile("traced embed p50", &traced, 0.5)?;
    out.push(metric(
        "loadgen.tracing_overhead_pct",
        (traced_p50 / plain_p50 - 1.0) * 100.0,
        "%",
        format!(
            "embed p50 traced half ({} requests) vs untraced half ({})",
            traced.len(),
            plain.len()
        ),
    ));
    for (phase, tally) in [("setup", o.setup), ("measured", o.window.tally)] {
        out.push(metric(
            format!("loadgen.{phase}.sent"),
            tally.sent as f64,
            "count",
            phase,
        ));
        out.push(metric(
            format!("loadgen.{phase}.ok"),
            tally.ok as f64,
            "count",
            phase,
        ));
        out.push(metric(
            format!("loadgen.{phase}.failed"),
            tally.failed as f64,
            "count",
            phase,
        ));
    }

    // Add-up: client encode + router hop + server phases + client decode vs the round trip.
    let hop = if o.routed {
        o.routed_rtt_us.0 - forward
    } else {
        0.0
    };
    let accounted = r.encode.0 + hop + server_embed_us + r.decode.0;
    let unaccounted = rtt - accounted;
    let parts = if o.routed {
        "client encode + router hop + server embed queue/decode/execute/encode + client decode"
    } else {
        "client encode + server embed queue/decode/execute/encode + client decode"
    };
    out.push(metric(
        "embed.unaccounted_us",
        unaccounted,
        "us",
        format!("client.rtt_mean_us minus {parts}"),
    ));
    out.push(metric(
        "embed.unaccounted_share",
        if rtt > 0.0 { unaccounted / rtt } else { 0.0 },
        "ratio",
        "embed.unaccounted_us / client.rtt_mean_us",
    ));
    Ok(out)
}
