//! End-to-end acceptance: a corpus far beyond the default chunk budget fits over the
//! wire — the client streams it up as a `begin_fit`/`corpus_chunk`/`end_fit` sequence —
//! and the resulting handle is bit-identical to the in-process [`gem_serve::model_key`]
//! derivation, so handles computed offline address models fitted through the chunked
//! path and vice versa.

use gem_core::{FeatureSet, GemColumn, GemConfig, MethodRegistry};
use gem_serve::{model_key, EmbedService, GemClient, GemServer, ModelHandle};
use std::sync::Arc;

fn big_corpus() -> Vec<GemColumn> {
    (0..12)
        .map(|c| {
            GemColumn::new(
                (0..42_000)
                    .map(|i| (c * 60) as f64 + (i % 97) as f64 * 1.5)
                    .collect(),
                format!("col_{c}"),
            )
        })
        .collect()
}

#[test]
fn oversized_corpora_fit_via_chunked_upload_with_in_process_handles() {
    let config = GemConfig::fast();
    let corpus = big_corpus();

    // The corpus exceeds the default chunk budget, so the upload really chunks.
    assert!(gem_proto::binary::corpus_wire_bytes(&corpus) > gem_proto::binary::DEFAULT_CHUNK_BYTES);

    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
    service.register_gem_family(&config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .unwrap()
        .with_workers(2);
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let mut client = GemClient::connect(handle.addr()).unwrap();
    let fitted = client.fit(&corpus, &config, FeatureSet::ds()).unwrap();

    // The acceptance bar: the chunked upload's handle equals the in-process ModelKey —
    // every value bit and header byte survived the chunking.
    assert_eq!(
        fitted.handle,
        ModelHandle::from(model_key(&corpus, &config, FeatureSet::ds()))
    );

    // The fitted model answers streamed embeds.
    let queries: Vec<GemColumn> = (0..3)
        .map(|c| {
            GemColumn::new(
                (0..100)
                    .map(|i| (c * 60) as f64 + f64::from(i) * 0.5)
                    .collect(),
                format!("q_{c}"),
            )
        })
        .collect();
    let streamed = client.embed(fitted.handle, &queries).unwrap();
    assert_eq!(streamed.matrix.rows(), queries.len());

    // Nothing about the chunked upload tripped the protocol-error taxonomy, and the
    // wire telemetry saw the corpus go by.
    assert_eq!(handle.counters().protocol_errors(), 0);
    assert!(
        handle.metrics().wire_bytes_read() as usize > gem_proto::binary::corpus_wire_bytes(&corpus)
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}
