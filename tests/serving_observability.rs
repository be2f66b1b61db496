//! Integration tests for the serving telemetry and admission-control layer: request
//! accounting that conserves every popped frame, queue gauges that return to zero
//! after a drain, the `Health` probe over a live TCP connection, and overload
//! shedding under a genuine flood (typed `overloaded` responses while in-flight work
//! completes).

use gem::core::{FeatureSet, GemColumn, GemConfig, MethodRegistry};
use gem::proto::{binary, RequestBody, ResponseBody};
use gem::serve::{
    EmbedService, GemClient, GemServer, HealthState, RequestShape, ServerHandle,
    DEFAULT_QUEUE_CAPACITY, SHAPES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn corpus(seed: u64, columns: usize, rows: usize) -> Vec<GemColumn> {
    (0..columns)
        .map(|c| {
            GemColumn::new(
                (0..rows)
                    .map(|i| (seed * 900 + c as u64 * 17) as f64 + (i % 11) as f64 * 0.75)
                    .collect(),
                format!("col_{seed}_{c}"),
            )
        })
        .collect()
}

fn start_server(
    workers: usize,
    queue_capacity: Option<usize>,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 16);
    service.register_gem_family(&config);
    let mut server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .unwrap()
        .with_workers(workers);
    if let Some(capacity) = queue_capacity {
        server = server.with_queue_capacity(capacity);
    }
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// The conservation invariant: every frame the executor pool pops is recorded under
/// exactly one request shape, so after any mixed workload — typed requests, a health
/// probe, even a frame that fails to parse — the per-shape histogram counts sum to the
/// lifetime request counter, and the queue gauge has drained back to zero.
#[test]
fn per_shape_histograms_conserve_every_request_and_the_queue_drains() {
    let (server, join) = start_server(2, None);
    let cols = corpus(1, 5, 40);
    let config = GemConfig::fast();

    let mut client = GemClient::connect(server.addr()).unwrap();
    let fitted = client.fit(&cols, &config, FeatureSet::ds()).unwrap();
    for _ in 0..3 {
        client.embed(fitted.handle, &cols).unwrap();
    }
    let _ = client.list_models().unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.state, HealthState::Ok);
    assert!(client.evict(fitted.handle).unwrap());

    // One deliberately malformed `req_json` frame over a raw socket, after the hello:
    // the server answers with a typed error body, and the frame still lands in the
    // accounting (as the `protocol_error` shape), because it was popped and executed
    // like any other.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(binary::hello_line().as_bytes()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut accept = String::new();
    reader.read_line(&mut accept).unwrap();
    assert!(binary::parse_accept(&accept).is_some(), "{accept}");
    let mut payload = vec![1u8];
    payload.extend_from_slice(&5u64.to_le_bytes());
    payload.extend_from_slice(b"this is not a protocol envelope");
    raw.write_all(&binary::frame_bytes(binary::KIND_REQ_JSON, &payload).unwrap())
        .unwrap();
    let mut assembler = binary::FrameAssembler::new();
    let frame = loop {
        if let Some(frame) = assembler.next_frame().unwrap() {
            break frame;
        }
        let mut buf = [0u8; 4096];
        let n = reader.read(&mut buf).unwrap();
        assert!(n > 0, "the server answers before closing");
        assembler.push(&buf[..n]);
    };
    let reply = binary::decode_response_frame(&frame, &mut binary::EmbedPartials::new())
        .unwrap()
        .unwrap();
    assert_eq!(reply.in_reply_to, Some(5));
    assert!(
        matches!(&reply.body, ResponseBody::Error { code, .. } if code == "protocol_error"),
        "malformed input gets a typed reply: {reply:?}"
    );
    drop(raw);

    // Stats arrive with the per-shape latency table the server accumulated; every
    // shape exercised above shows up with a plausible count.
    let stats = client.stats().unwrap();
    assert!(!stats.latencies.is_empty());
    let embed_row = stats
        .latencies
        .iter()
        .find(|row| row.shape == "embed")
        .expect("the embed shape was exercised");
    assert_eq!(embed_row.count, 3);
    assert!(embed_row.p50_us <= embed_row.p99_us);

    server.shutdown();
    join.join().unwrap().unwrap();

    let recorded: u64 = SHAPES
        .iter()
        .map(|shape| server.metrics().shape_count(*shape))
        .sum();
    assert_eq!(
        recorded,
        server.counters().requests(),
        "every popped frame is recorded under exactly one shape"
    );
    assert_eq!(server.metrics().shape_count(RequestShape::ProtocolError), 1);
    assert_eq!(server.metrics().shape_count(RequestShape::Embed), 3);
    assert_eq!(server.counters().requests_shed(), 0);

    // The gauge family: depth drained to zero, capacity reflects the default bound,
    // and nothing is busy after the pool joined.
    assert_eq!(server.metrics().queue_depth(), 0);
    assert_eq!(
        server.metrics().queue_capacity(),
        DEFAULT_QUEUE_CAPACITY as u64
    );
    assert_eq!(server.metrics().busy_workers(), 0);
    assert!(server.metrics().queue_depth_high_water() <= DEFAULT_QUEUE_CAPACITY as u64);
}

/// The `Health` request answers over a live TCP connection from the admission layer's
/// own gauges: a freshly started, idle server is `ok`, reports its pool shape, and
/// carries no retry hint.
#[test]
fn health_round_trips_over_tcp_with_pool_shape() {
    let (server, join) = start_server(3, Some(64));
    let mut client = GemClient::connect(server.addr()).unwrap();

    let health = client.health().unwrap();
    assert_eq!(health.state, HealthState::Ok);
    assert_eq!(health.workers, 3);
    assert_eq!(health.queue_capacity, 64);
    // The probe's own executor counts as busy while it answers.
    assert!(health.busy_workers >= 1 && health.busy_workers <= health.workers);
    assert!(health.queue_depth < health.queue_capacity);
    assert_eq!(health.retry_after_ms, None);

    server.shutdown();
    join.join().unwrap().unwrap();
}

/// The overload satellite: a single worker pinned by a slow cold fit plus a tiny
/// admission bound, then a pipelined flood. Excess requests come back as typed
/// `overloaded` errors with a retry hint — correlated to their request ids, never
/// executed — while the in-flight fit completes normally and the server neither
/// stalls nor panics (the graceful join proves the drain).
#[test]
fn flooding_a_tiny_queue_sheds_typed_overloaded_responses() {
    const FLOOD: usize = 32;
    let (server, join) = start_server(1, Some(1));
    let mut client = GemClient::connect(server.addr()).unwrap();

    // A genuinely slow request to pin the only worker...
    let fit_id = client
        .send(RequestBody::Fit {
            corpus: corpus(2, 40, 90),
            config: GemConfig::with_components(24),
            features: FeatureSet::ds(),
            composition: None,
        })
        .unwrap();
    // ...give the worker time to pop it, so the queue is empty when the flood hits...
    std::thread::sleep(Duration::from_millis(150));
    // ...then flood: with capacity 1 and the worker busy, almost every one is shed.
    let flood_ids: Vec<u64> = (0..FLOOD)
        .map(|_| client.send(RequestBody::Stats).unwrap())
        .collect();

    let mut fit_completed = false;
    let mut executed = 0u64;
    let mut shed = 0u64;
    while client.pending() > 0 {
        let reply = client.recv_any().unwrap();
        match reply.outcome {
            Ok(body) => {
                if reply.id == fit_id {
                    assert!(
                        matches!(body, gem::proto::ResponseBody::Fitted { .. }),
                        "the in-flight fit completes normally during overload"
                    );
                    fit_completed = true;
                } else {
                    assert!(flood_ids.contains(&reply.id));
                    assert!(matches!(body, gem::proto::ResponseBody::Stats(_)));
                    executed += 1;
                }
            }
            Err(error) => {
                assert_eq!(error.code(), Some("overloaded"), "{error}");
                let hint = error.retry_after_ms().expect("shed responses carry a hint");
                assert!((25..=5_000).contains(&hint), "hint {hint} out of range");
                assert!(flood_ids.contains(&reply.id), "shed replies correlate");
                shed += 1;
            }
        }
    }
    assert!(fit_completed);
    assert!(
        shed >= 1,
        "a capacity-1 queue under a {FLOOD}-deep flood must shed"
    );
    assert_eq!(
        executed + shed,
        FLOOD as u64,
        "every flood request was answered once"
    );

    server.shutdown();
    join.join().unwrap().unwrap();

    // Shed frames never reached the pool: the lifetime counters keep them apart, and
    // the conservation invariant still holds over what actually executed.
    assert_eq!(server.counters().requests_shed(), shed);
    assert_eq!(server.counters().requests(), 1 + executed);
    let recorded: u64 = SHAPES
        .iter()
        .map(|shape| server.metrics().shape_count(*shape))
        .sum();
    assert_eq!(recorded, server.counters().requests());
    assert_eq!(server.metrics().queue_depth(), 0, "the queue drained");

    // The shutdown summary carries the shed count for post-mortems.
    let summary = gem::serve::shutdown_summary(server.counters(), server.metrics(), &{
        let config = GemConfig::fast();
        EmbedService::new(MethodRegistry::with_gem(&config), 4).stats()
    });
    assert!(summary.contains(&format!("requests_shed={shed}")));
}
