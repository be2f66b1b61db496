//! Criterion benchmarks comparing the per-corpus embedding cost of Gem and every
//! numeric-only baseline on a fixed synthetic corpus (the per-method slice of Figure 5),
//! plus an ablation of two Gem design choices: serial vs. parallel signatures and 1 vs.
//! multiple EM restarts.

use criterion::{criterion_group, criterion_main, Criterion};
use gem_bench::{registry_with_components, strip_headers, to_gem_columns};
use gem_core::{FeatureSet, GemConfig, GemEmbedder};
use gem_data::{sato_tables, CorpusConfig};
use gem_gmm::GmmConfig;

fn corpus() -> Vec<gem_core::GemColumn> {
    let dataset = sato_tables(&CorpusConfig {
        scale: 0.05,
        min_values: 40,
        max_values: 80,
        seed: 9,
    });
    strip_headers(&to_gem_columns(&dataset))
}

fn bench_methods(criterion: &mut Criterion) {
    let columns = corpus();
    let registry = registry_with_components(10);
    let mut group = criterion.benchmark_group("embedding_methods");
    group.sample_size(10);
    for entry in registry.tagged("table2") {
        group.bench_function(entry.name(), |b| {
            b.iter(|| entry.method().embed(&columns, None).unwrap())
        });
    }
    group.finish();
}

fn bench_gem_ablations(criterion: &mut Criterion) {
    let columns = corpus();
    let mut group = criterion.benchmark_group("gem_design_ablations");
    group.sample_size(10);
    for (label, parallel, restarts) in [
        ("serial_1_restart", false, 1usize),
        ("parallel_1_restart", true, 1),
        ("parallel_5_restarts", true, 5),
    ] {
        let config = GemConfig {
            gmm: GmmConfig::with_components(10)
                .restarts(restarts)
                .with_seed(5),
            parallel,
            ..GemConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                GemEmbedder::new(config.clone())
                    .embed(&columns, FeatureSet::ds())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods, bench_gem_ablations);
criterion_main!(benches);
