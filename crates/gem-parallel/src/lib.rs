//! # gem-parallel
//!
//! Data-parallel building blocks for the workspace's hot paths (per-column signature
//! computation, EM restarts, per-method benchmark fan-out).
//!
//! The production design calls for `rayon`, but this workspace builds in offline
//! environments where crates.io is unreachable, so this crate provides the needed subset
//! on top of `std::thread::scope`:
//!
//! * [`par_map`] — an ordered parallel map over a slice,
//! * [`par_map_indexed`] — the same with the item index passed to the closure,
//! * [`par_map_with_scratch`] / [`par_fill_rows_with_scratch`] — the same with a
//!   reusable per-thread scratch buffer, for hot paths whose per-item work needs large
//!   temporaries (EM responsibility matrices, log-density tables),
//! * [`join`] — run two closures potentially in parallel.
//!
//! Every entry point has a sequential fallback that produces **identical** output:
//! results are collected per input index, so ordering never depends on thread timing, and
//! the closures receive the same arguments either way. The fallback is taken when the
//! caller passes `parallel: false`, when the input has fewer than [`MIN_PARALLEL_ITEMS`]
//! items, when the `threads` cargo feature is disabled, or when `GEM_NUM_THREADS=1` is
//! set. Item count is the only size gate here: a caller whose items may be too cheap to
//! amortise a thread spawn measures its own work and passes `parallel: false` below its
//! break-even (as `gem_core::signature_matrix` does).

#![deny(missing_docs)]
#![warn(clippy::all)]

/// Inputs shorter than this are always processed sequentially. The threshold counts
/// items only, because the workspace's parallel callers — EM restarts, per-column
/// signatures, per-method fan-out — usually do heavy work per item; callers whose items
/// can be cheap should pass `parallel: false` below their own measured break-even.
pub const MIN_PARALLEL_ITEMS: usize = 2;

/// Parse a `GEM_NUM_THREADS` override: `Some(n)` for a positive integer, `None` for
/// anything else. Reporting malformed values is the budget resolver's job, not this
/// one's, which keeps the policy unit-testable without touching the process environment.
fn parse_thread_override(raw: &str) -> Option<usize> {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// The number of worker threads parallel operations will use: the `GEM_NUM_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. A malformed override (not a positive integer)
/// falls back to available parallelism after a warning on stderr. Returns 1 when the
/// `threads` feature is disabled.
///
/// The budget is resolved once per process, at first use: `GEM_NUM_THREADS` is read
/// then, and later changes to the environment have no effect. Resolving it per call
/// would put a cgroup-file read (`available_parallelism` on Linux, 15–23 µs on a 2-vCPU
/// VM) on every parallel entry point, about as much as a one-column transform.
pub fn max_threads() -> usize {
    #[cfg(not(feature = "threads"))]
    {
        1
    }
    #[cfg(feature = "threads")]
    {
        static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *BUDGET.get_or_init(resolve_thread_budget)
    }
}

#[cfg(feature = "threads")]
fn resolve_thread_budget() -> usize {
    if let Ok(raw) = std::env::var("GEM_NUM_THREADS") {
        match parse_thread_override(&raw) {
            Some(n) => return n,
            None => eprintln!(
                "gem-parallel: ignoring malformed GEM_NUM_THREADS={raw:?} \
                 (expected a positive integer); using available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// How many workers to split `n` items across: 1 (the sequential path) when the caller
/// asked for no parallelism or the input is below [`MIN_PARALLEL_ITEMS`] — decided
/// before the budget is consulted — otherwise the budget capped at one item per worker.
fn worker_count(parallel: bool, n: usize) -> usize {
    if !parallel || n < MIN_PARALLEL_ITEMS {
        return 1;
    }
    max_threads().min(n)
}

/// Whether parallel execution is available at all (feature enabled and more than one
/// thread permitted).
pub fn parallelism_enabled() -> bool {
    max_threads() > 1
}

/// Map `f` over `items`, preserving order. Runs on multiple threads when `parallel` is
/// true, threads are available and the input is large enough; otherwise runs
/// sequentially. Both paths produce identical output for a deterministic `f`.
pub fn par_map<T, R, F>(items: &[T], parallel: bool, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, parallel, |_, item| f(item))
}

/// Like [`par_map`], but the closure also receives the item's index — useful when the
/// work depends on position (e.g. seeding one EM restart per index).
pub fn par_map_indexed<T, R, F>(items: &[T], parallel: bool, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = worker_count(parallel, n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let chunk = n.div_ceil(threads);
    let mut blocks: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (b, chunk_items) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || {
                chunk_items
                    .iter()
                    .enumerate()
                    .map(|(i, x)| f(b * chunk + i, x))
                    .collect::<Vec<R>>()
            }));
        }
        for h in handles {
            blocks.push(h.join().expect("gem-parallel worker panicked"));
        }
    });
    blocks.into_iter().flatten().collect()
}

/// Like [`par_map`], but hands the closure a reusable per-thread scratch value created
/// by `init`: each worker thread calls `init()` once and reuses that scratch for every
/// item of its block (the sequential path uses a single scratch for all items). Callers
/// whose per-item work needs large temporaries — EM responsibility matrices, log-density
/// tables — pay one allocation set per thread instead of one per item.
///
/// The scratch is a workspace, not an accumulator: `f` must fully overwrite whatever
/// scratch state it reads, because the scratch arrives carrying whatever the previous
/// item on the same thread left behind. Under that contract, sequential and parallel
/// execution produce identical output for a deterministic `f`.
pub fn par_map_with_scratch<T, R, S, I, F>(items: &[T], parallel: bool, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let n = items.len();
    let threads = worker_count(parallel, n);
    if threads <= 1 {
        let mut scratch = init();
        return items.iter().map(|x| f(x, &mut scratch)).collect();
    }

    let chunk = n.div_ceil(threads);
    let mut blocks: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for chunk_items in items.chunks(chunk) {
            let f = &f;
            let init = &init;
            handles.push(scope.spawn(move || {
                let mut scratch = init();
                chunk_items
                    .iter()
                    .map(|x| f(x, &mut scratch))
                    .collect::<Vec<R>>()
            }));
        }
        for h in handles {
            blocks.push(h.join().expect("gem-parallel worker panicked"));
        }
    });
    blocks.into_iter().flatten().collect()
}

/// Fill a row-major output buffer in place: `out` is `items.len() × width`, and `f`
/// writes the row for each item directly into its slot. Unlike [`par_map`], no
/// intermediate per-item allocations are made — each output cell is written exactly once,
/// which is what the per-column signature hot path needs (one row per column, written
/// straight into the embedding matrix).
///
/// Sequential and parallel execution produce identical output for a deterministic `f`:
/// the buffer is partitioned by item index, never by thread timing.
///
/// # Panics
/// Panics when `out.len() != items.len() * width`.
pub fn par_fill_rows<T, F>(items: &[T], out: &mut [f64], width: usize, parallel: bool, f: F)
where
    T: Sync,
    F: Fn(&T, &mut [f64]) + Sync,
{
    par_fill_rows_with_scratch(
        items,
        out,
        width,
        parallel,
        || (),
        |item, row, _| f(item, row),
    );
}

/// [`par_fill_rows`] with a reusable per-thread scratch (same contract as
/// [`par_map_with_scratch`]): the per-column signature fan-out uses this so each worker
/// thread reuses one set of log-table and responsibility-row buffers across all the
/// columns of its block instead of hitting the allocator per column.
///
/// The calling thread fills the first block itself and spawns one worker per remaining
/// block. Its caller is often a serving executor thread that would otherwise sit idle
/// in the join, so this saves one spawn per fan-out and keeps that thread working.
///
/// # Panics
/// Panics when `out.len() != items.len() * width`.
pub fn par_fill_rows_with_scratch<T, S, I, F>(
    items: &[T],
    out: &mut [f64],
    width: usize,
    parallel: bool,
    init: I,
    f: F,
) where
    T: Sync,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut [f64], &mut S) + Sync,
{
    let n = items.len();
    assert_eq!(
        out.len(),
        n * width,
        "output buffer must be items × width ({} != {} × {})",
        out.len(),
        n,
        width
    );
    if n == 0 || width == 0 {
        return;
    }
    let fill = |item_block: &[T], out_block: &mut [f64]| {
        let mut scratch = init();
        for (item, row) in item_block.iter().zip(out_block.chunks_exact_mut(width)) {
            f(item, row, &mut scratch);
        }
    };
    let threads = worker_count(parallel, n);
    if threads <= 1 {
        fill(items, out);
        return;
    }
    let chunk = n.div_ceil(threads);
    let mut blocks = items.chunks(chunk).zip(out.chunks_mut(chunk * width));
    let (first_items, first_out) = blocks.next().expect("a non-empty input has a first block");
    std::thread::scope(|scope| {
        for (item_block, out_block) in blocks {
            let fill = &fill;
            scope.spawn(move || fill(item_block, out_block));
        }
        fill(first_items, first_out);
    });
}

/// Run two closures, in parallel when possible, and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if !parallelism_enabled() {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("gem-parallel join worker panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_sequential_maps_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = par_map(&items, false, |&x| x * x + 1);
        let par = par_map(&items, true, |&x| x * x + 1);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 101);
    }

    #[test]
    fn order_is_preserved_under_uneven_work() {
        let items: Vec<usize> = (0..200).collect();
        // Make early items slow so late chunks finish first.
        let out = par_map(&items, true, |&x| {
            if x < 10 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn tiny_inputs_run_sequentially_but_correctly() {
        let items: Vec<u64> = (0..(MIN_PARALLEL_ITEMS as u64 - 1)).collect();
        let out = par_map(&items, true, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_map_passes_matching_indices() {
        let items = vec!["a"; 100];
        let out = par_map_indexed(&items, true, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = vec![];
        assert!(par_map(&items, true, |&x| x).is_empty());
    }

    #[test]
    fn fill_rows_parallel_and_sequential_agree() {
        let items: Vec<f64> = (0..97).map(|i| i as f64).collect();
        let width = 3;
        let mut seq = vec![0.0; items.len() * width];
        let mut par = vec![0.0; items.len() * width];
        let f = |x: &f64, row: &mut [f64]| {
            row[0] = x + 1.0;
            row[1] = x * 2.0;
            row[2] = -x;
        };
        par_fill_rows(&items, &mut seq, width, false, f);
        par_fill_rows(&items, &mut par, width, true, f);
        assert_eq!(seq, par);
        assert_eq!(&seq[0..3], &[1.0, 0.0, -0.0]);
        assert_eq!(&seq[3..6], &[2.0, 2.0, -1.0]);
    }

    #[test]
    fn fill_rows_handles_degenerate_shapes() {
        let mut out: Vec<f64> = vec![];
        par_fill_rows::<f64, _>(&[], &mut out, 4, true, |_, _| unreachable!());
        par_fill_rows(&[1.0, 2.0], &mut out, 0, true, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "items × width")]
    fn fill_rows_rejects_mismatched_buffer() {
        let mut out = vec![0.0; 5];
        par_fill_rows(&[1.0, 2.0], &mut out, 3, false, |_, _| {});
    }

    #[test]
    fn fill_rows_caller_fills_the_first_block() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let first_on_caller = AtomicBool::new(false);
        let items: Vec<f64> = (0..8).map(f64::from).collect();
        let mut out = vec![0.0; items.len()];
        par_fill_rows(&items, &mut out, 1, true, |&x, row| {
            if x == 0.0 {
                first_on_caller.store(std::thread::current().id() == caller, Ordering::SeqCst);
            }
            row[0] = x;
        });
        assert_eq!(out, items);
        assert!(first_on_caller.load(Ordering::SeqCst));
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 21 * 2, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn thread_override_accepts_only_positive_integers() {
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("8"), Some(8));
        // Everything else is malformed and falls back to available parallelism
        // (with a stderr warning from the once-per-process budget resolver).
        for bad in ["0", "", "banana", "-2", " 4", "4 ", "3.5", "+8x"] {
            assert_eq!(parse_thread_override(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn scratch_map_parallel_and_sequential_agree() {
        let items: Vec<u64> = (0..500).collect();
        let work = |&x: &u64, scratch: &mut Vec<u64>| {
            // Fully overwrite the scratch before reading it, per the contract.
            scratch.clear();
            scratch.extend(0..=x % 7);
            scratch.iter().sum::<u64>() + x
        };
        let seq = par_map_with_scratch(&items, false, Vec::new, work);
        let par = par_map_with_scratch(&items, true, Vec::new, work);
        assert_eq!(seq, par);
        // Item 10: scratch holds 0..=10 % 7 = 0..=3, so the sum is 6.
        assert_eq!(seq[10], 10 + 6);
    }

    #[test]
    fn scratch_is_created_once_per_worker_not_per_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..256).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_with_scratch(
            &items,
            true,
            || inits.fetch_add(1, Ordering::SeqCst),
            |&x, _| x,
        );
        assert_eq!(out, items);
        let created = inits.load(Ordering::SeqCst);
        assert!(created >= 1);
        assert!(
            created <= max_threads(),
            "expected at most one scratch per worker, got {created}"
        );

        inits.store(0, Ordering::SeqCst);
        par_map_with_scratch(
            &items,
            false,
            || inits.fetch_add(1, Ordering::SeqCst),
            |&x, _| x,
        );
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scratch_fill_rows_parallel_and_sequential_agree() {
        let items: Vec<f64> = (0..131).map(|i| i as f64).collect();
        let width = 4;
        let f = |x: &f64, row: &mut [f64], scratch: &mut Vec<f64>| {
            scratch.clear();
            scratch.extend_from_slice(&[*x, x + 1.0]);
            row[0] = scratch[0];
            row[1] = scratch[1];
            row[2] = scratch.iter().sum();
            row[3] = -x;
        };
        let mut seq = vec![0.0; items.len() * width];
        let mut par = vec![0.0; items.len() * width];
        par_fill_rows_with_scratch(&items, &mut seq, width, false, Vec::new, f);
        par_fill_rows_with_scratch(&items, &mut par, width, true, Vec::new, f);
        assert_eq!(seq, par);
        assert_eq!(&seq[4..8], &[1.0, 2.0, 3.0, -1.0]);
    }
}
