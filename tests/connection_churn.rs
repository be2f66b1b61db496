//! Connection churn must not grow either listener's memory. 300 connections, one after
//! another, each send the hello and one `health` frame, read the reply and close. The
//! process's memory mappings (lines of `/proc/self/maps`) may grow by at most 20 over
//! the churn: a listener that kept each finished connection's thread would keep its
//! stack and guard page mapped, two lines per connection.
//!
//! This file holds one test, so no other test's threads share the process it measures.
//! `/proc` is Linux's, and so is the test.
#![cfg(target_os = "linux")]

use gem::core::{GemConfig, MethodRegistry};
use gem::proto::binary::{self, EmbedPartials, FrameAssembler};
use gem::proto::{RequestBody, RequestEnvelope, ResponseBody, PROTOCOL_VERSION};
use gem::router::{Cluster, RouterMetrics, RouterServer};
use gem::serve::{EmbedService, GemServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const WARM_UP: u64 = 10;
const CONNECTIONS: u64 = 300;
const MAX_GROWTH: usize = 20;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps")
        .lines()
        .count()
}

/// One connection: the hello and a `health` frame in one write, the accept line, the
/// reply, and close.
fn health_round_trip(addr: SocketAddr, id: u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let health = RequestEnvelope::new(id, RequestBody::Health);
    let frame = binary::encode_request_frame(&health).expect("frame");
    stream
        .write_all(&[binary::hello_line().as_bytes(), &frame].concat())
        .expect("hello and health");
    let mut reader = BufReader::new(stream);
    let mut accept = String::new();
    reader.read_line(&mut accept).expect("accept");
    assert_eq!(binary::parse_accept(&accept), Some(PROTOCOL_VERSION));
    let mut assembler = FrameAssembler::new();
    let frame = loop {
        if let Some(frame) = assembler.next_frame().expect("framing") {
            break frame;
        }
        let buffered = reader.fill_buf().expect("read");
        assert!(!buffered.is_empty(), "the listener must answer");
        let read = buffered.len();
        assembler.push(buffered);
        reader.consume(read);
    };
    let reply = binary::decode_response_frame(&frame, &mut EmbedPartials::new())
        .expect("decode")
        .expect("a complete reply");
    assert_eq!(reply.in_reply_to, Some(id));
    assert!(
        matches!(reply.body, ResponseBody::Health { .. }),
        "{reply:?}"
    );
}

/// How many mappings the process gained over the churn against `addr`.
fn churn(addr: SocketAddr) -> usize {
    // The daemon's own threads (its run loop and executors) and the allocator's
    // per-thread arenas appear over the first connections; the churn is counted after.
    for id in 0..WARM_UP {
        health_round_trip(addr, id);
    }
    let before = mappings();
    for id in 0..CONNECTIONS {
        health_round_trip(addr, id);
    }
    // Let the last connection's thread see its peer leave.
    std::thread::sleep(Duration::from_millis(200));
    mappings().saturating_sub(before)
}

#[test]
fn connection_churn_leaves_both_listeners_memory_mappings_flat() {
    let config = GemConfig::fast();
    let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
    service.register_gem_family(&config);
    let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
        .expect("bind gem-served")
        .with_workers(2);
    let replica = server.handle().expect("replica handle");
    let replica_thread = std::thread::spawn(move || server.run());
    let served_growth = churn(replica.addr());
    replica.shutdown();
    replica_thread.join().expect("join").expect("run");

    // The router answers `health` itself, so its one member need not be reachable.
    let cluster = Arc::new(Cluster::with_options(
        &["127.0.0.1:1".to_string()],
        Arc::new(RouterMetrics::new()),
        8,
        1,
        Duration::from_millis(50),
        Duration::from_millis(100),
    ));
    let router = RouterServer::bind(cluster, ("127.0.0.1", 0)).expect("bind gem-routed");
    let (stop, addr) = (router.handle(), router.local_addr());
    let router_thread = std::thread::spawn(move || router.run());
    let routed_growth = churn(addr);
    stop.shutdown();
    router_thread.join().expect("join").expect("run");

    assert!(
        served_growth <= MAX_GROWTH && routed_growth <= MAX_GROWTH,
        "mappings grew by {served_growth} (gem-served) and {routed_growth} (gem-routed) over \
         {CONNECTIONS} connections; the bound is {MAX_GROWTH}"
    );
}
