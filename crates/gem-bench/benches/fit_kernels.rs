//! Fit hot-path microbenchmarks: the fused EM kernels and the incremental
//! `fit_update` path, measured at the layer each optimisation lives.
//!
//! Kernel level (one 4096-point column, 10 components — the shape `GemModel::fit`
//! hands the GMM for a realistic column):
//!
//! * `estep_pass` — the fused E-step: per-component log-density tables, log-sum-exp
//!   normalisation, and the nk/mean accumulators, all in one row-major sweep over the
//!   flat responsibility matrix,
//! * `mstep_pass` — the row-major variance pass over the responsibilities the E-step
//!   left behind,
//! * `fused_iteration` — one full EM iteration (both passes plus the parameter
//!   update), the unit the fit loop repeats until convergence.
//!
//! Model level (100-column corpus grown by 100% / 300%):
//!
//! * `refit` — fitting the grown corpus from scratch: the full EM restart schedule
//!   over every column, old and new,
//! * `fit_update` — folding the new columns into the already-fitted parent: frozen
//!   components, no EM and no per-column work, so it costs a model clone. The ratio to
//!   `refit` is what incremental serving buys at that growth factor.
//!
//! Transform level (one 32-column × 1000-value transform against a k = 16 D+S+C model,
//! an eighth of the 256-column bulk embed a server transforms as one batch):
//!
//! * `transform_integer` — integer-valued columns with 23 distinct values each, so
//!   `d · k ≤ n` and the signature evaluates the GMM once per distinct value,
//! * `transform_continuous` — columns whose values are all distinct, so the signature
//!   runs the per-value kernel.
//!
//! Snapshot with `GEM_CRITERION_JSON=BENCH_fit.json cargo bench -p gem-bench --bench
//! fit_kernels`; the committed baseline lives at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gem_bench::gem_config_with_components;
use gem_core::{FeatureSet, GemColumn, GemModel};
use gem_gmm::bench_kernels::{estep_pass, fused_iteration, mstep_pass, BenchScratch};
use gem_gmm::{GmmConfig, UnivariateGmm};

const N_POINTS: usize = 4096;
const N_COMPONENTS: usize = 10;
const BASE_COLUMNS: usize = 100;
const BATCH_COLUMNS: usize = 32;
const BATCH_VALUES: usize = 1000;
const BATCH_COMPONENTS: usize = 16;

/// A deterministic bimodal column: the kind of value distribution the paper's GMM
/// signature is built for, with enough spread that EM does real work.
fn kernel_data() -> Vec<f64> {
    (0..N_POINTS)
        .map(|i| {
            let cluster = (i % 3) as f64 * 40.0;
            cluster + (i % 17) as f64 * 0.75 + (i % 5) as f64 * 0.2
        })
        .collect()
}

fn synthetic_columns(count: usize, offset: usize) -> Vec<GemColumn> {
    (0..count)
        .map(|c| {
            let base = ((offset + c) * 13 % 700) as f64;
            GemColumn::new(
                (0..60)
                    .map(|i| base + (i % 11) as f64 * 1.5 + ((offset + c) % 7) as f64 * 0.3)
                    .collect(),
                format!("col_{}", offset + c),
            )
        })
        .collect()
}

/// A query batch of [`BATCH_COLUMNS`] columns × [`BATCH_VALUES`] values, each column at
/// its own offset: integer values cycling through 23 distinct numbers, or continuous
/// values that are all distinct.
fn query_batch(integer: bool) -> Vec<GemColumn> {
    (0..BATCH_COLUMNS)
        .map(|c| {
            let base = (c * 37 % 400) as f64;
            let values = (0..BATCH_VALUES).map(|i| {
                if integer {
                    base + (i * 7 % 23) as f64
                } else {
                    base + ((i * 7919 + c * 104_729) % 10_007) as f64 * 0.0137
                }
            });
            GemColumn::new(values.collect(), format!("query_{c}"))
        })
        .collect()
}

fn bench_kernels(criterion: &mut Criterion) {
    let data = kernel_data();
    let config = GmmConfig::with_components(N_COMPONENTS)
        .restarts(2)
        .with_seed(17);
    let model = UnivariateGmm::fit(&data, &config).expect("kernel data fits");
    let data_var = {
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64
    };
    let var_floor = (config.covariance_floor * data_var).max(1e-9);

    let mut group = criterion.benchmark_group("fit");
    group.sample_size(20);

    let mut scratch = BenchScratch::default();
    group.bench_function(BenchmarkId::new("estep_pass", N_POINTS), |b| {
        b.iter(|| estep_pass(&model, &data, &mut scratch))
    });

    // The M-step pass reads the responsibilities the E-step left in the scratch; it
    // never overwrites them, so one E-step outside the timer serves every iteration.
    estep_pass(&model, &data, &mut scratch);
    group.bench_function(BenchmarkId::new("mstep_pass", N_POINTS), |b| {
        b.iter(|| mstep_pass(&model, &data, &mut scratch))
    });

    group.bench_function(BenchmarkId::new("fused_iteration", N_POINTS), |b| {
        b.iter(|| {
            let mut weights = model.weights().to_vec();
            let mut means = model.means().to_vec();
            let mut variances = model.variances().to_vec();
            fused_iteration(
                &data,
                &mut weights,
                &mut means,
                &mut variances,
                data_var,
                var_floor,
                &mut scratch,
            )
        })
    });

    // Incremental growth: fit a parent once, then compare absorbing `factor - 1`
    // times the corpus as new columns against refitting the grown corpus cold.
    let gem_config = gem_config_with_components(N_COMPONENTS);
    let base = synthetic_columns(BASE_COLUMNS, 0);
    let parent = GemModel::fit(&base, &gem_config, FeatureSet::ds()).expect("base corpus fits");
    for factor in [2usize, 4] {
        let growth = synthetic_columns(BASE_COLUMNS * (factor - 1), BASE_COLUMNS);
        let mut grown = base.clone();
        grown.extend(growth.iter().cloned());
        let label = format!("{factor}x");
        group.bench_function(BenchmarkId::new("refit", &label), |b| {
            b.iter(|| GemModel::fit(&grown, &gem_config, FeatureSet::ds()).expect("refit"))
        });
        group.bench_function(BenchmarkId::new("fit_update", &label), |b| {
            b.iter(|| {
                let updated = parent.fit_update(&growth).expect("fit_update");
                assert_eq!(updated.n_fit_columns(), grown.len());
                updated
            })
        });
    }

    // One query batch on each side of the distinct-value gate.
    let batch_model = GemModel::fit(
        &synthetic_columns(BASE_COLUMNS, 0),
        &gem_config_with_components(BATCH_COMPONENTS),
        FeatureSet::dsc(),
    )
    .expect("batch model fits");
    let label = format!("{BATCH_COLUMNS}x{BATCH_VALUES}");
    for (name, integer) in [("transform_integer", true), ("transform_continuous", false)] {
        let batch = query_batch(integer);
        group.bench_function(BenchmarkId::new(name, &label), |b| {
            b.iter(|| batch_model.transform(&batch).expect("transform"))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
