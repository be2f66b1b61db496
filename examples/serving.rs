//! Serving: fit a corpus model once, then answer embed requests against it from a
//! fingerprint-keyed cache — the fit-once / serve-many pattern `gem-serve` provides.
//!
//! Run with `cargo run --release --example serving`.

use gem::core::{GemColumn, GemConfig, MethodRegistry};
use gem::serve::{EmbedService, ServeRequest};
use std::sync::Arc;
use std::time::Instant;

fn corpus() -> Vec<GemColumn> {
    // A synthetic data lake: 120 columns from four semantic families — the same
    // generator `gem-client gen-corpus` writes to disk.
    gem::serve::demo::synthetic_corpus(120, 80, 7)
}

fn main() {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
    service.register_gem_family(&config);

    let corpus = Arc::new(corpus());
    println!(
        "Serving {} methods over a {}-column corpus (cache capacity 8)\n",
        service.methods().len(),
        corpus.len()
    );

    // Request 1: cold — fits the model (the expensive EM step) and caches it.
    let start = Instant::now();
    let cold = service
        .serve_one(ServeRequest::embed_corpus("Gem (D+S)", Arc::clone(&corpus)))
        .expect("corpus embeds");
    let cold_s = start.elapsed().as_secs_f64();
    let was_hit = cold.cache_hit();
    let cold_matrix = cold.into_matrix().expect("embedded response");
    println!(
        "cold  embed: {:>8.2} ms  (cache_hit: {}, {} columns x {} dims)",
        cold_s * 1e3,
        was_hit,
        cold_matrix.rows(),
        cold_matrix.cols()
    );

    // Request 2: warm — same corpus fingerprint, so the cached model transforms only.
    let start = Instant::now();
    let warm = service
        .serve_one(ServeRequest::embed_corpus("Gem (D+S)", Arc::clone(&corpus)))
        .expect("corpus embeds");
    let warm_s = start.elapsed().as_secs_f64();
    let warm_hit = warm.cache_hit();
    assert_eq!(
        warm.into_matrix().expect("embedded response"),
        cold_matrix,
        "warm cache hits are bit-identical to the cold fit"
    );
    println!(
        "warm  embed: {:>8.2} ms  (cache_hit: {}, {:.1}x faster, bit-identical output)",
        warm_s * 1e3,
        warm_hit,
        cold_s / warm_s.max(1e-9)
    );

    // The same seam, addressed by handle: fit once, then embed through the returned
    // ModelHandle — the request shape that also travels over TCP (see the
    // `remote_serving` example).
    let fitted = service
        .serve_one(ServeRequest::fit(
            Arc::clone(&corpus),
            config.clone(),
            gem::core::FeatureSet::ds(),
        ))
        .expect("fit");
    let handle = fitted.handle().expect("fitted response");
    let by_handle = service
        .serve_one(ServeRequest::embed(handle, corpus.to_vec()))
        .expect("embed by handle");
    println!(
        "by-handle:   handle {} resolves without refitting (cache_hit: {})",
        handle,
        by_handle.cache_hit()
    );

    // Request 3: embed *new, unseen* columns against the frozen corpus model — what a
    // query path needs: project a user's column into the lake's embedding space.
    let queries = vec![
        GemColumn::new((0..50).map(|i| 21.0 + (i % 55) as f64).collect(), "age_q"),
        GemColumn::new(
            (0..50)
                .map(|i| 10_000.0 + 400.0 * (i % 65) as f64)
                .collect(),
            "price_q",
        ),
    ];
    let start = Instant::now();
    let response = service
        .serve_one(ServeRequest::embed(handle, queries))
        .expect("queries embed");
    let query_s = start.elapsed().as_secs_f64();
    let query_hit = response.cache_hit();
    let query_matrix = response.into_matrix().expect("embedded response");
    println!(
        "query embed: {:>8.2} ms  (cache_hit: {}, {} unseen columns into the corpus space)",
        query_s * 1e3,
        query_hit,
        query_matrix.rows()
    );

    // Nearest corpus column per query, in the shared embedding space.
    for (q, header) in ["age_q", "price_q"].iter().enumerate() {
        let mut best = (0, f64::NEG_INFINITY);
        for i in 0..cold_matrix.rows() {
            let sim =
                gem::numeric::cosine_similarity(query_matrix.row(q), cold_matrix.row(i)).unwrap();
            if sim > best.1 {
                best = (i, sim);
            }
        }
        println!(
            "  {:<8} nearest corpus column: {:<10} (similarity {:.3})",
            header, corpus[best.0].header, best.1
        );
    }

    // Mixed methods, one request each: Gem variants resolve through the model cache
    // (`Gem (D+S)` and `D+S` name the same pipeline and share one model).
    let methods = ["Gem (D+S)", "Gem", "D+S", "SBERT (headers only)"];
    println!("\nmixed methods:");
    for method in methods {
        let start = Instant::now();
        let r = service
            .serve_one(ServeRequest::embed_corpus(method, Arc::clone(&corpus)))
            .expect("method embeds");
        println!(
            "  {:<22} {:>8.2} ms  cache_hit: {:<5} dims: {}",
            method,
            start.elapsed().as_secs_f64() * 1e3,
            r.cache_hit(),
            r.matrix().map(gem::numeric::Matrix::cols).unwrap_or(0)
        );
    }

    let stats = service.cache_stats();
    println!(
        "\ncache: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    );
}
