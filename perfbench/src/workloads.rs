//! The three workloads: their inputs (from the seed), their expected outputs (computed
//! in process with `GemModel::fit` + `transform` before anything is timed), their
//! set-up, the measured window and the post-window checks.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gem_core::{FeatureSet, GemColumn, GemConfig, GemModel};
use gem_numeric::Matrix;
use gem_proto::RequestBody;
use gem_rand::Rng;
use gem_serve::{model_key, GemClient, ModelHandle};
use gem_store::updated_model_key;

use crate::data::{self, Inputs};
use crate::load::{self, EmbedCase, Expect, Kind, Op, Planned};
use crate::procs::{Shape, Topology};
use crate::prom::{Scrape, Window};
use crate::trace::{Recorder, Span};

/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 5;

/// Command-line context of one run.
pub struct Ctx {
    pub bins: PathBuf,
    pub run_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Sent / answered-correctly / failed counts of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// A model the workload fits, with the in-process oracle for it.
pub struct Fitted {
    pub corpus: Arc<Vec<GemColumn>>,
    pub config: GemConfig,
    pub features: FeatureSet,
    pub handle: ModelHandle,
    pub model: Arc<GemModel>,
}

impl Fitted {
    fn new(
        corpus: Vec<GemColumn>,
        config: &GemConfig,
        features: FeatureSet,
    ) -> Result<Self, String> {
        let model =
            GemModel::fit(&corpus, config, features).map_err(|e| format!("oracle fit: {e}"))?;
        Ok(Fitted {
            handle: ModelHandle::from(model_key(&corpus, config, features)),
            corpus: Arc::new(corpus),
            config: config.clone(),
            features,
            model: Arc::new(model),
        })
    }

    fn expect(&self, queries: &[GemColumn]) -> Result<Arc<Matrix>, String> {
        self.model
            .transform(queries)
            .map(|e| Arc::new(e.matrix))
            .map_err(|e| format!("oracle transform: {e}"))
    }
}

/// One embed request of the workload's pool, for the replays.
pub struct EmbedSample {
    pub fitted: usize,
    pub queries: Vec<GemColumn>,
    pub want: Arc<Matrix>,
}

/// What a measured window produced.
pub struct Measured {
    pub ops: Vec<Op>,
    pub spans: Vec<Span>,
    pub start: Instant,
    pub end: Instant,
    /// Requests of the window plus the workload's post-window checks.
    pub tally: Tally,
    pub peak_rss_mb: f64,
    /// Replica scrapes over the traced half and over set-up plus window (traced runs).
    pub replicas: Window,
    pub replicas_whole: Window,
    /// Router scrapes over the traced half (empty without a router).
    pub router: Window,
}

/// Everything a run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub setup: Tally,
    pub window: Measured,
    /// Mean client round trip of the requests the router scrape covers, µs, with count.
    pub routed_rtt_us: (f64, usize),
    pub routed: bool,
    pub fitted: Vec<Fitted>,
    pub samples: Vec<EmbedSample>,
    pub config_line: String,
}

impl Outcome {
    /// Requests attempted and failed over set-up, window and checks.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.setup.sent + self.window.tally.sent,
            self.setup.failed + self.window.tally.failed,
        )
    }
}

/// Replica scrapes and the router scrape taken at one instant.
type Scrapes = (Vec<Scrape>, Scrape);

fn scrape_all(topology: &Topology) -> Result<Scrapes, String> {
    Ok((topology.scrape_replicas()?, topology.scrape_router()?))
}

fn connect(addr: &str) -> Result<GemClient, String> {
    GemClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Fit every model through `client`; each reply must name the oracle's handle.
fn fit_all(client: &mut GemClient, fitted: &[Fitted], tally: &mut Tally) -> Result<(), String> {
    for f in fitted {
        let reply = client
            .fit(&f.corpus, &f.config, f.features)
            .map_err(|e| format!("set-up fit: {e}"))?;
        tally.add(reply.handle == f.handle);
    }
    Ok(())
}

/// Grow `parent` by `growth`; the reply must name `updated_model_key`.
fn update_checked(
    client: &mut GemClient,
    parent: &Fitted,
    growth: &[GemColumn],
    tally: &mut Tally,
) -> Result<(), String> {
    let reply = client
        .fit_update(parent.handle, growth)
        .map_err(|e| format!("set-up fit_update: {e}"))?;
    tally.add(reply.handle == ModelHandle::from(updated_model_key(parent.handle.key(), growth)));
    Ok(())
}

/// The processes and connections the last set-up left for the window.
struct Running {
    topology: Topology,
    clients: Vec<GemClient>,
    setup_s: Vec<f64>,
    setup: Tally,
    t0: Option<Scrapes>,
}

/// Run `prepare` (spawn to warm) `SETUPS` times on fresh processes and stores, keeping
/// the last set-up for the window.
fn set_up(
    ctx: &Ctx,
    shape: Shape,
    mut prepare: impl FnMut(&Topology, &mut Tally) -> Result<Vec<GemClient>, String>,
) -> Result<Running, String> {
    let mut setup_s = Vec::new();
    let mut setup = Tally::default();
    let mut kept = None;
    for round in 0..SETUPS {
        drop(kept.take());
        let begin = Instant::now();
        let topology =
            Topology::start(&ctx.bins, shape, &ctx.run_dir.join(format!("setup{round}")))?;
        let t0 = if ctx.trace && round + 1 == SETUPS {
            Some(scrape_all(&topology)?)
        } else {
            None
        };
        let clients = prepare(&topology, &mut setup)?;
        setup_s.push(begin.elapsed().as_secs_f64());
        kept = Some((topology, clients, t0));
    }
    let (topology, clients, t0) = kept.expect("at least one set-up");
    Ok(Running {
        topology,
        clients,
        setup_s,
        setup,
        t0,
    })
}

/// The window's deadline and, for traced runs, the start of its traced half: the first
/// half runs untraced (for the tracing overhead), and the replica and router scrapes
/// cover the second.
fn halves(ctx: &Ctx, start: Instant) -> (Instant, Option<Instant>) {
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let trace_from = ctx
        .trace
        .then(|| start + Duration::from_secs_f64(ctx.seconds / 2.0));
    (end, trace_from)
}

/// Sleep until `at`, then scrape (traced runs only).
fn scrape_at(topology: &Topology, at: Option<Instant>) -> Result<Option<Scrapes>, String> {
    let Some(at) = at else { return Ok(None) };
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
    scrape_all(topology).map(Some)
}

/// Run one closed-loop client per connection, each choosing requests with its `pick`,
/// until the window ends.
fn closed_window<'a, P>(ctx: &Ctx, running: &mut Running, picks: Vec<P>) -> Result<Measured, String>
where
    P: FnMut() -> EmbedCase<'a> + Send,
{
    let start = Instant::now();
    let (deadline, trace_from) = halves(ctx, start);
    let topology = &running.topology;
    let (ops, spans, t1) = std::thread::scope(|scope| {
        let workers: Vec<_> = running
            .clients
            .iter_mut()
            .zip(picks)
            .enumerate()
            .map(|(i, (client, pick))| {
                scope.spawn(move || {
                    let mut recorder = Recorder::new(start, 10 + i as u64);
                    let ops = load::closed_loop(client, deadline, trace_from, &mut recorder, pick);
                    (ops, recorder.spans)
                })
            })
            .collect();
        let t1 = scrape_at(topology, trace_from);
        let mut ops = Vec::new();
        let mut spans = Vec::new();
        for worker in workers {
            let (o, s) = worker.join().expect("load thread panicked");
            ops.extend(o);
            spans.extend(s);
        }
        (ops, spans, t1)
    });
    close(ctx, running, ops, spans, (start, deadline), t1?)
}

/// The closing scrapes, peak memory and counts every window ends with.
fn close(
    ctx: &Ctx,
    running: &mut Running,
    ops: Vec<Op>,
    spans: Vec<Span>,
    (start, deadline): (Instant, Instant),
    t1: Option<Scrapes>,
) -> Result<Measured, String> {
    let end = ops.iter().map(|o| o.done).max().unwrap_or(deadline);
    let t2 = if ctx.trace {
        Some(scrape_all(&running.topology)?)
    } else {
        None
    };
    let mut tally = Tally::default();
    ops.iter().for_each(|o| tally.add(o.ok));
    let (replicas, replicas_whole, router) = match (running.t0.take(), t1, t2) {
        (Some((r0, _)), Some((r1, q1)), Some((r2, q2))) => (
            Window {
                before: r1,
                after: r2.clone(),
            },
            Window {
                before: r0,
                after: r2,
            },
            Window {
                before: vec![q1],
                after: vec![q2],
            },
        ),
        _ => Default::default(),
    };
    Ok(Measured {
        peak_rss_mb: running.topology.peak_rss_mb()?,
        ops,
        spans,
        start,
        end,
        tally,
        replicas,
        replicas_whole,
        router,
    })
}

/// Mean round trip (send to decoded reply) of the traced ops of every kind, µs — the
/// same requests the router's forward histogram covers.
fn traced_rtt_us(ops: &[Op]) -> (f64, usize) {
    let rtts: Vec<f64> = ops
        .iter()
        .filter(|o| o.traced)
        .map(|o| o.done.saturating_duration_since(o.sent).as_secs_f64() * 1e6)
        .collect();
    (crate::stats::mean(&rtts), rtts.len())
}

// --- embed-routed-small ----------------------------------------------------------------

const SMALL_HANDLES: usize = 16;
const SMALL_COLUMNS: usize = 60;
const SMALL_VALUES: usize = 60;
const SMALL_K: usize = 10;
const SMALL_RESTARTS: usize = 3;
const SMALL_QUERIES: usize = 64;
const SMALL_CLIENTS: usize = 2;
const SMALL_WARMUP: usize = 100;
const SMALL_CACHE: usize = 64;

/// Closed loop, 2 connections to `gem-routed` over 2 replicas; each request embeds one
/// query column against a seeded random handle.
pub fn embed_routed_small(ctx: &Ctx) -> Result<Outcome, String> {
    let mut inputs = Inputs::new(ctx.seed, 1);
    let config = data::config(SMALL_K, SMALL_RESTARTS);
    let features = FeatureSet::ds();
    let fitted = (0..SMALL_HANDLES)
        .map(|_| {
            Fitted::new(
                inputs.corpus(SMALL_COLUMNS, SMALL_VALUES),
                &config,
                features,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queries: Vec<Vec<GemColumn>> = (0..SMALL_QUERIES)
        .map(|_| vec![inputs.column(SMALL_VALUES)])
        .collect();
    let want: Vec<Vec<Arc<Matrix>>> = fitted
        .iter()
        .map(|f| queries.iter().map(|q| f.expect(q)).collect())
        .collect::<Result<_, _>>()?;
    let growth = inputs.corpus(1, SMALL_VALUES);

    let shape = Shape {
        replicas: 2,
        router: true,
        cache_capacity: SMALL_CACHE,
    };
    let mut warm_rng = Inputs::new(ctx.seed, 2);
    let mut running = set_up(ctx, shape, |topology, tally| {
        let mut clients = (0..SMALL_CLIENTS)
            .map(|_| connect(topology.entry()))
            .collect::<Result<Vec<_>, _>>()?;
        fit_all(&mut clients[0], &fitted, tally)?;
        update_checked(&mut clients[0], &fitted[0], &growth, tally)?;
        for client in &mut clients {
            for _ in 0..SMALL_WARMUP {
                let h = warm_rng.rng().gen_range(0..SMALL_HANDLES);
                let q = warm_rng.rng().gen_range(0..SMALL_QUERIES);
                tally.add(load::embed_checked(
                    client,
                    fitted[h].handle,
                    &queries[q],
                    &want[h][q],
                ));
            }
        }
        Ok(clients)
    })?;
    let picks = (0..SMALL_CLIENTS)
        .map(|i| {
            let mut rng = Inputs::new(ctx.seed, 10 + i as u64);
            let (fitted, queries, want) = (&fitted, &queries, &want);
            move || {
                let h = rng.rng().gen_range(0..SMALL_HANDLES);
                let q = rng.rng().gen_range(0..SMALL_QUERIES);
                EmbedCase {
                    handle: fitted[h].handle,
                    queries: &queries[q],
                    want: &want[h][q],
                }
            }
        })
        .collect();
    let window = closed_window(ctx, &mut running, picks)?;

    let mut pick = Inputs::new(ctx.seed, 3);
    let samples = (0..8)
        .map(|_| {
            let h = pick.rng().gen_range(0..SMALL_HANDLES);
            let q = pick.rng().gen_range(0..SMALL_QUERIES);
            EmbedSample {
                fitted: h,
                queries: queries[q].clone(),
                want: Arc::clone(&want[h][q]),
            }
        })
        .collect();
    Ok(Outcome {
        setup_s: running.setup_s,
        setup: running.setup,
        routed_rtt_us: traced_rtt_us(&window.ops),
        window,
        routed: true,
        fitted,
        samples,
        config_line: format!(
            "closed loop, {SMALL_CLIENTS} connections to gem-routed; {}; {SMALL_HANDLES} handles of \
             {SMALL_COLUMNS}x{SMALL_VALUES} (k={SMALL_K}, {SMALL_RESTARTS} restarts, D+S); 1-column embeds",
            shape.describe()
        ),
    })
}

// --- embed-direct-bulk ------------------------------------------------------------------

const BULK_FIT_COLUMNS: usize = 200;
const BULK_FIT_VALUES: usize = 200;
const BULK_K: usize = 16;
const BULK_RESTARTS: usize = 2;
const BULK_QUERY_COLUMNS: usize = 256;
const BULK_QUERY_VALUES: usize = 1000;
const BULK_POOL: usize = 3;
const BULK_WARMUP: usize = 3;
const BULK_CACHE: usize = 8;
/// Requests the traced run sends through a router probe after the window.
const BULK_ROUTER_PROBE: usize = 10;

/// Closed loop, 1 connection straight to one replica; each request embeds 256 columns of
/// 1000 values against the one handle.
pub fn embed_direct_bulk(ctx: &Ctx) -> Result<Outcome, String> {
    let mut inputs = Inputs::new(ctx.seed, 1);
    let config = data::config(BULK_K, BULK_RESTARTS);
    let features = FeatureSet::dsc();
    let fitted = vec![Fitted::new(
        inputs.corpus(BULK_FIT_COLUMNS, BULK_FIT_VALUES),
        &config,
        features,
    )?];
    let pool: Vec<Vec<GemColumn>> = (0..BULK_POOL)
        .map(|_| inputs.corpus(BULK_QUERY_COLUMNS, BULK_QUERY_VALUES))
        .collect();
    let want: Vec<Arc<Matrix>> = pool
        .iter()
        .map(|q| fitted[0].expect(q))
        .collect::<Result<_, _>>()?;
    let growth = inputs.corpus(1, BULK_FIT_VALUES);
    let handle = fitted[0].handle;

    let shape = Shape {
        replicas: 1,
        router: false,
        cache_capacity: BULK_CACHE,
    };
    let mut running = set_up(ctx, shape, |topology, tally| {
        let mut client = connect(topology.entry())?;
        fit_all(&mut client, &fitted, tally)?;
        update_checked(&mut client, &fitted[0], &growth, tally)?;
        // A pulled snapshot pushed back must install under the same handle.
        let pulled = client
            .pull_model(handle)
            .map_err(|e| format!("set-up pull_model: {e}"))?;
        let pushed = client
            .push_model(&pulled.snapshot)
            .map_err(|e| format!("set-up push_model: {e}"))?;
        tally.add(pulled.handle == handle && pushed.handle == handle);
        for i in 0..BULK_WARMUP {
            let q = i % BULK_POOL;
            tally.add(load::embed_checked(&mut client, handle, &pool[q], &want[q]));
        }
        Ok(vec![client])
    })?;
    let mut rng = Inputs::new(ctx.seed, 10);
    let (pool_ref, want_ref) = (&pool, &want);
    let pick = move || {
        let q = rng.rng().gen_range(0..BULK_POOL);
        EmbedCase {
            handle,
            queries: &pool_ref[q],
            want: &want_ref[q],
        }
    };
    let mut window = closed_window(ctx, &mut running, vec![pick])?;

    // No router carries this workload; a traced run measures what one would add by
    // sending a few of the same requests through a gem-routed in front of the replica,
    // after the replica scrapes are taken.
    let mut routed_rtt_us = (0.0, 0);
    if ctx.trace {
        let (probe, rtt) = router_probe(
            ctx,
            &running.topology,
            handle,
            &pool,
            &want,
            &mut window.tally,
        )?;
        window.router = probe;
        routed_rtt_us = rtt;
    }
    let samples = (0..BULK_POOL)
        .map(|q| EmbedSample {
            fitted: 0,
            queries: pool[q].clone(),
            want: Arc::clone(&want[q]),
        })
        .collect();
    Ok(Outcome {
        setup_s: running.setup_s,
        setup: running.setup,
        window,
        routed_rtt_us,
        routed: false,
        fitted,
        samples,
        config_line: format!(
            "closed loop, 1 connection straight to the replica; {}; 1 handle of \
             {BULK_FIT_COLUMNS}x{BULK_FIT_VALUES} (k={BULK_K}, {BULK_RESTARTS} restarts, D+S+C); \
             {BULK_QUERY_COLUMNS}x{BULK_QUERY_VALUES} embeds",
            shape.describe()
        ),
    })
}

fn router_probe(
    ctx: &Ctx,
    topology: &Topology,
    handle: ModelHandle,
    pool: &[Vec<GemColumn>],
    want: &[Arc<Matrix>],
    tally: &mut Tally,
) -> Result<(Window, (f64, usize)), String> {
    let replica = &topology.replicas[0].addr;
    let probe = Topology::start_router(&ctx.bins, replica, &ctx.run_dir.join("probe"))?;
    let mut client = connect(probe.entry())?;
    // One untimed request so the router's upstream connection exists.
    tally.add(load::embed_checked(&mut client, handle, &pool[0], &want[0]));
    let before = probe.scrape_router()?;
    let mut rtts = Vec::new();
    for i in 0..BULK_ROUTER_PROBE {
        let q = i % pool.len();
        let sent = Instant::now();
        let ok = load::embed_checked(&mut client, handle, &pool[q], &want[q]);
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
        tally.add(ok);
    }
    let after = probe.scrape_router()?;
    Ok((
        Window {
            before: vec![before],
            after: vec![after],
        },
        (crate::stats::mean(&rtts), rtts.len()),
    ))
}

// --- fit-mixed-open ---------------------------------------------------------------------

const MIXED_BASE: usize = 8;
const MIXED_COLUMNS: usize = 60;
const MIXED_VALUES: usize = 60;
const MIXED_K: usize = 10;
const MIXED_RESTARTS: usize = 3;
/// Arrival rates per second of fits, fit_updates and embeds.
const MIXED_FIT_RATE: f64 = 20.0;
const MIXED_UPDATE_RATE: f64 = 10.0;
const MIXED_EMBED_RATE: f64 = 200.0;
/// Embeds and updates target handles whose fit was due at least this long before.
const MIXED_SETTLE: Duration = Duration::from_millis(500);
/// How many of the newest settled handles recent embeds and updates choose from; they
/// stay resident in the replicas' memory tier.
const MIXED_RECENT: usize = 16;
/// Share of embeds that target an old handle instead: one due at least `MIXED_OLD_AGE`
/// before, long evicted to the store, so the embed warm-starts it from disk.
const MIXED_OLD_SHARE: f64 = 0.2;
const MIXED_OLD_AGE: Duration = Duration::from_secs(5);
const MIXED_CACHE: usize = 96;
const MIXED_WARMUP: usize = 20;
/// Fresh handles re-embedded and checked after the window.
const MIXED_RECHECK: usize = 8;

/// One model handle the mixed schedule knows about: when it may be targeted, and its
/// oracle.
struct Known {
    due: Duration,
    settled_at: Duration,
    handle: ModelHandle,
    model: Arc<GemModel>,
}

/// Open loop at fixed mean rates through `gem-routed` with write-through replication:
/// fits of never-seen corpora, fit_updates of recent handles, and 1-4 column embeds of
/// recent (resident) and old (spilled) handles, with replica caches smaller than the
/// live handle set.
pub fn fit_mixed_open(ctx: &Ctx) -> Result<Outcome, String> {
    let mut inputs = Inputs::new(ctx.seed, 1);
    let config = data::config(MIXED_K, MIXED_RESTARTS);
    let features = FeatureSet::ds();
    let base = (0..MIXED_BASE)
        .map(|_| {
            Fitted::new(
                inputs.corpus(MIXED_COLUMNS, MIXED_VALUES),
                &config,
                features,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;

    // The schedule, merged by due time: fits and fit_updates at fixed intervals with
    // seeded phases (a steady writer), embeds as a Poisson stream (independent readers,
    // so they sample every phase of the write cycle).
    let window = ctx.seconds;
    let mut arrivals: Vec<(Duration, Kind)> = Vec::new();
    for (rate, kind) in [
        (MIXED_FIT_RATE, Kind::Fit),
        (MIXED_UPDATE_RATE, Kind::FitUpdate),
    ] {
        let mut t = inputs.rng().gen_range(0.0..1.0 / rate);
        while t < window {
            arrivals.push((Duration::from_secs_f64(t), kind));
            t += 1.0 / rate;
        }
    }
    let mut t = 0.0;
    loop {
        t -= (1.0 - inputs.rng().gen::<f64>()).ln() / MIXED_EMBED_RATE;
        if t >= window {
            break;
        }
        arrivals.push((Duration::from_secs_f64(t), Kind::Embed));
    }
    arrivals.sort_by_key(|(at, _)| *at);

    let mut known: Vec<Known> = base
        .iter()
        .map(|f| Known {
            due: Duration::ZERO,
            settled_at: Duration::ZERO,
            handle: f.handle,
            model: Arc::clone(&f.model),
        })
        .collect();
    let mut fresh: Vec<Fitted> = Vec::new();
    let mut plan = Vec::with_capacity(arrivals.len());
    for (at, kind) in arrivals {
        let settled: Vec<usize> = known
            .iter()
            .enumerate()
            .filter(|(_, k)| k.settled_at <= at)
            .map(|(i, _)| i)
            .collect();
        let recent = &settled[settled.len().saturating_sub(MIXED_RECENT)..];
        let old: Vec<usize> = known
            .iter()
            .enumerate()
            .filter(|(_, k)| k.due + MIXED_OLD_AGE <= at)
            .map(|(i, _)| i)
            .collect();
        match kind {
            Kind::Fit => {
                let f = Fitted::new(
                    inputs.corpus(MIXED_COLUMNS, MIXED_VALUES),
                    &config,
                    features,
                )?;
                plan.push(Planned {
                    at,
                    kind,
                    cols: MIXED_COLUMNS,
                    body: RequestBody::Fit {
                        corpus: f.corpus.to_vec(),
                        config: config.clone(),
                        features,
                        composition: None,
                    },
                    expect: Expect::Handle(f.handle),
                });
                known.push(Known {
                    due: at,
                    settled_at: at + MIXED_SETTLE,
                    handle: f.handle,
                    model: Arc::clone(&f.model),
                });
                fresh.push(f);
            }
            Kind::FitUpdate => {
                let parent = &known[recent[inputs.rng().gen_range(0..recent.len())]];
                let n = inputs.rng().gen_range(1..=2usize);
                let growth = inputs.corpus(n, MIXED_VALUES);
                let handle = ModelHandle::from(updated_model_key(parent.handle.key(), &growth));
                let model = parent
                    .model
                    .fit_update(&growth)
                    .map_err(|e| format!("oracle fit_update: {e}"))?;
                plan.push(Planned {
                    at,
                    kind,
                    cols: growth.len(),
                    body: RequestBody::FitUpdate {
                        handle: parent.handle.to_hex(),
                        corpus: growth,
                    },
                    expect: Expect::Handle(handle),
                });
                known.push(Known {
                    due: at,
                    settled_at: at + MIXED_SETTLE,
                    handle,
                    model: Arc::new(model),
                });
            }
            Kind::Embed => {
                let pool = if !old.is_empty() && inputs.rng().gen_bool(MIXED_OLD_SHARE) {
                    &old[..]
                } else {
                    recent
                };
                let target = &known[pool[inputs.rng().gen_range(0..pool.len())]];
                let n = inputs.rng().gen_range(1..=4usize);
                let queries = inputs.corpus(n, MIXED_VALUES);
                let want = target
                    .model
                    .transform(&queries)
                    .map_err(|e| format!("oracle transform: {e}"))?;
                plan.push(Planned {
                    at,
                    kind,
                    cols: n,
                    body: RequestBody::Embed {
                        handle: target.handle.to_hex(),
                        queries,
                    },
                    expect: Expect::Matrix(Arc::new(want.matrix)),
                });
            }
        }
    }
    let warm_queries: Vec<Vec<GemColumn>> = (0..MIXED_WARMUP)
        .map(|_| vec![inputs.column(MIXED_VALUES)])
        .collect();
    let warm_want: Vec<Arc<Matrix>> = warm_queries
        .iter()
        .enumerate()
        .map(|(i, q)| base[i % MIXED_BASE].expect(q))
        .collect::<Result<_, _>>()?;
    let mut pick = Inputs::new(ctx.seed, 3);
    let recheck: Vec<(usize, Vec<GemColumn>, Arc<Matrix>)> = (0..MIXED_RECHECK.min(fresh.len()))
        .map(|_| {
            let i = pick.rng().gen_range(0..fresh.len());
            let queries = vec![pick.column(MIXED_VALUES)];
            fresh[i].expect(&queries).map(|want| (i, queries, want))
        })
        .collect::<Result<_, _>>()?;

    let shape = Shape {
        replicas: 2,
        router: true,
        cache_capacity: MIXED_CACHE,
    };
    let mut running = set_up(ctx, shape, |topology, tally| {
        let mut client = connect(topology.entry())?;
        fit_all(&mut client, &base, tally)?;
        for (i, q) in warm_queries.iter().enumerate() {
            tally.add(load::embed_checked(
                &mut client,
                base[i % MIXED_BASE].handle,
                q,
                &warm_want[i],
            ));
        }
        Ok(vec![client])
    })?;
    let start = Instant::now();
    let (deadline, trace_from) = halves(ctx, start);
    let mut recorder = Recorder::new(start, 10);
    let topology = &running.topology;
    let (ops, t1) = std::thread::scope(|scope| {
        // Scrapes at the half-way mark on its own thread, so no send waits for it.
        let scraper = scope.spawn(|| scrape_at(topology, trace_from));
        let ops = load::open_loop(topology.entry(), plan, start, trace_from, &mut recorder);
        (ops, scraper.join().expect("scrape thread panicked"))
    });
    let mut window = close(
        ctx,
        &mut running,
        ops?,
        recorder.spans,
        (start, deadline),
        t1?,
    )?;
    for (i, queries, want) in &recheck {
        window.tally.add(load::embed_checked(
            &mut running.clients[0],
            fresh[*i].handle,
            queries,
            want,
        ));
    }

    let mut fitted = base;
    fitted.extend(fresh);
    let samples = recheck
        .into_iter()
        .map(|(i, queries, want)| EmbedSample {
            fitted: MIXED_BASE + i,
            queries,
            want,
        })
        .collect();
    Ok(Outcome {
        setup_s: running.setup_s,
        setup: running.setup,
        routed_rtt_us: traced_rtt_us(&window.ops),
        window,
        routed: true,
        fitted,
        samples,
        config_line: format!(
            "open loop through gem-routed at {MIXED_FIT_RATE} fits/s, {MIXED_UPDATE_RATE} \
             fit_updates/s, {MIXED_EMBED_RATE} embeds/s (1-4 columns); {}; corpora \
             {MIXED_COLUMNS}x{MIXED_VALUES} (k={MIXED_K}, {MIXED_RESTARTS} restarts, D+S); \
             {MIXED_BASE} handles fitted at set-up",
            shape.describe()
        ),
    })
}
