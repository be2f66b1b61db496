//! # gem-criterion
//!
//! A small benchmark harness exposing the subset of the `criterion` API used by the
//! `gem-bench` benches ([`Criterion`], [`BenchmarkId`], benchmark groups, `b.iter(...)`,
//! the [`criterion_group!`] / [`criterion_main!`] macros). The workspace builds offline,
//! so the real criterion is unavailable; benches rename this package to `criterion` and
//! keep their source unchanged.
//!
//! Measurement model: each benchmark runs one untimed warm-up iteration, then
//! `sample_size` timed iterations; the mean, minimum and maximum wall-clock times are
//! reported on stdout. When the `GEM_CRITERION_JSON` environment variable names a file,
//! all results of the process are additionally written there as a JSON array — this is
//! how `BENCH_baseline.json` snapshots are produced. Iteration counts can be scaled down
//! for smoke runs with `GEM_CRITERION_SAMPLES`.

#![deny(missing_docs)]
#![warn(clippy::all)]

use gem_json::{number, object, string, Json};
use std::fmt;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Group name (empty for ungrouped benchmarks).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Timed iterations.
    pub samples: usize,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest iteration in seconds.
    pub min_s: f64,
    /// Slowest iteration in seconds.
    pub max_s: f64,
    /// Median seconds per iteration (nearest-rank over the timed samples).
    pub p50_s: f64,
    /// 99th-percentile seconds per iteration (nearest-rank; equals the maximum below
    /// 100 samples). Tail latency regresses independently of the mean — a guard that
    /// only watches means misses it.
    pub p99_s: f64,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        object(vec![
            ("group", string(&self.group)),
            ("id", string(&self.id)),
            ("samples", number(self.samples as f64)),
            ("mean_s", number(self.mean_s)),
            ("min_s", number(self.min_s)),
            ("max_s", number(self.max_s)),
            ("p50_s", number(self.p50_s)),
            ("p99_s", number(self.p99_s)),
        ])
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) over unsorted sample durations.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A benchmark identifier: a function name plus a parameter, rendered `name/param`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Create an id from a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Create an id from a parameter only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

/// Things accepted where a benchmark id is expected (`&str`, `String`, [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// Render to the display string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.text
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the workload.
pub struct Bencher {
    samples: usize,
    timings_s: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            timings_s: Vec::new(),
        }
    }

    /// Run `f` once untimed (warm-up), then `samples` timed iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, also defeats dead-code elimination of the result
        self.timings_s = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
    }

    /// Criterion-compatible `iter_custom`: `f` runs the workload the given number of
    /// times and returns the measured [`Duration`](std::time::Duration) of *just the window it chooses to
    /// time* — for benchmarks whose iteration includes setup or drain work that must
    /// not count (e.g. collecting a background response after the measured batch
    /// completed). Called with `1` per sample here; real criterion may batch.
    pub fn iter_custom<F: FnMut(u64) -> std::time::Duration>(&mut self, mut f: F) {
        black_box(f(1)); // warm-up, also defeats dead-code elimination of the result
        self.timings_s = (0..self.samples)
            .map(|_| black_box(f(1)).as_secs_f64())
            .collect();
    }

    fn mean_s(&self) -> f64 {
        if self.timings_s.is_empty() {
            return 0.0;
        }
        self.timings_s.iter().sum::<f64>() / self.timings_s.len() as f64
    }

    fn min_s(&self) -> f64 {
        if self.timings_s.is_empty() {
            return 0.0;
        }
        self.timings_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max_s(&self) -> f64 {
        self.timings_s.iter().copied().fold(0.0, f64::max)
    }
}

/// An opaque value barrier, preventing the optimiser from deleting the benchmarked work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn default_samples() -> usize {
    std::env::var("GEM_CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(10)
}

/// The harness entry point; collects results and writes the JSON snapshot on drop.
pub struct Criterion {
    results: Vec<BenchResult>,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            sample_size: default_samples(),
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let samples = self.sample_size;
        self.run_one(String::new(), id.into_id(), samples, f);
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        group: String,
        id: String,
        samples: usize,
        mut f: F,
    ) {
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        let result = BenchResult {
            group: group.clone(),
            id: id.clone(),
            samples,
            mean_s: bencher.mean_s(),
            min_s: bencher.min_s(),
            max_s: bencher.max_s(),
            p50_s: percentile(&bencher.timings_s, 0.50),
            p99_s: percentile(&bencher.timings_s, 0.99),
        };
        let label = if group.is_empty() {
            id
        } else {
            format!("{group}/{id}")
        };
        println!(
            "bench {label:<55} mean {:>12.6}s  min {:>12.6}s  p50 {:>12.6}s  p99 {:>12.6}s  \
             max {:>12.6}s  ({} samples)",
            result.mean_s, result.min_s, result.p50_s, result.p99_s, result.max_s, result.samples
        );
        self.results.push(result);
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        let Ok(path) = std::env::var("GEM_CRITERION_JSON") else {
            return;
        };
        if path.is_empty() || self.results.is_empty() {
            return;
        }
        // Merge with any results a previous bench target (or run) already wrote,
        // replacing entries with the same (group, id) so re-runs refresh rather than
        // duplicate the snapshot.
        let mut all: Vec<Json> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|v| v.as_array().map(<[Json]>::to_vec))
            .unwrap_or_default();
        for result in &self.results {
            all.retain(|existing| {
                !(existing.get("group").and_then(Json::as_str) == Some(&result.group)
                    && existing.get("id").and_then(Json::as_str) == Some(&result.id))
            });
            all.push(result.to_json());
        }
        if let Err(e) = std::fs::write(&path, Json::Array(all).to_pretty_string()) {
            eprintln!("gem-criterion: could not write {path}: {e}");
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    fn samples(&self) -> usize {
        self.sample_size.unwrap_or(self.criterion.sample_size)
    }

    /// Benchmark a closure under this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let samples = self.samples();
        self.criterion
            .run_one(self.name.clone(), id.into_id(), samples, f);
    }

    /// Benchmark a closure that receives a shared input reference.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let samples = self.samples();
        self.criterion
            .run_one(self.name.clone(), id.into_id(), samples, |b| f(b, input));
    }

    /// End the group (kept for API compatibility; results are recorded eagerly).
    pub fn finish(self) {}
}

/// Declare a benchmark group function, mirroring criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench entry point, mirroring criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports_positive_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("busy", |b| {
            b.iter(|| (0..1000).map(|i| i as f64).sum::<f64>())
        });
        group.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
        let results = c.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].group, "g");
        assert_eq!(results[0].id, "busy");
        assert_eq!(results[0].samples, 3);
        assert!(results[0].mean_s >= 0.0);
        assert!(results[0].min_s <= results[0].mean_s);
        assert!(results[0].mean_s <= results[0].max_s);
        assert!(results[0].min_s <= results[0].p50_s);
        assert!(results[0].p50_s <= results[0].p99_s);
        assert!(results[0].p99_s <= results[0].max_s);
        assert_eq!(results[1].id, "param/7");
        // Prevent the JSON drop hook from firing on test-controlled state.
        std::mem::forget(c);
    }

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 10).into_id(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").into_id(), "x");
        assert_eq!("plain".into_id(), "plain");
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult {
            group: "g".into(),
            id: "b".into(),
            samples: 5,
            mean_s: 0.25,
            min_s: 0.2,
            max_s: 0.3,
            p50_s: 0.24,
            p99_s: 0.3,
        };
        let j = r.to_json();
        assert_eq!(j.str_field("group").unwrap(), "g");
        assert_eq!(j.num_field("mean_s").unwrap(), 0.25);
        assert_eq!(j.num_field("p50_s").unwrap(), 0.24);
        assert_eq!(j.num_field("p99_s").unwrap(), 0.3);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
