//! `gem-served` and `gem-routed` run one listener, whose request reader answers two
//! refusals itself. A chunk out of sequence gets a correlated typed error and the
//! connection serves on; a length prefix that loses the framing gets an uncorrelated
//! typed error and the connection closes. Each check takes the listener's address and
//! runs against both daemons.

use gem::core::{GemConfig, MethodRegistry};
use gem::proto::binary::{self, EmbedPartials, FrameAssembler};
use gem::proto::{RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope, PROTOCOL_VERSION};
use gem::router::{Cluster, RouterHandle, RouterMetrics, RouterServer};
use gem::serve::{EmbedService, GemServer, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A replica, and a router in front of it when `routed`.
struct Listeners {
    replica: ServerHandle,
    replica_thread: JoinHandle<std::io::Result<()>>,
    router: Option<(RouterHandle, JoinHandle<std::io::Result<()>>)>,
}

impl Listeners {
    fn start(routed: bool) -> Self {
        let config = GemConfig::fast();
        let mut service = EmbedService::new(MethodRegistry::with_gem(&config), 8);
        service.register_gem_family(&config);
        let server = GemServer::bind(Arc::new(service), ("127.0.0.1", 0))
            .expect("bind gem-served")
            .with_workers(2);
        let replica = server.handle().expect("replica handle");
        let replica_thread = std::thread::spawn(move || server.run());
        let router = routed.then(|| {
            let cluster = Arc::new(Cluster::with_options(
                &[replica.addr().to_string()],
                Arc::new(RouterMetrics::new()),
                8,
                1,
                Duration::from_millis(50),
                Duration::from_millis(500),
            ));
            let router = RouterServer::bind(cluster, ("127.0.0.1", 0)).expect("bind gem-routed");
            let stop = router.handle();
            (stop, std::thread::spawn(move || router.run()))
        });
        Listeners {
            replica,
            replica_thread,
            router,
        }
    }

    /// The address clients connect to: the router's when there is one.
    fn addr(&self) -> SocketAddr {
        match &self.router {
            Some((stop, _)) => stop.addr(),
            None => self.replica.addr(),
        }
    }

    /// Stop both daemons; returns the replica's protocol-error count.
    fn stop(self) -> u64 {
        if let Some((stop, thread)) = self.router {
            stop.shutdown();
            thread
                .join()
                .expect("join gem-routed")
                .expect("run gem-routed");
        }
        self.replica.shutdown();
        self.replica_thread
            .join()
            .expect("join gem-served")
            .expect("run gem-served");
        self.replica.counters().protocol_errors()
    }
}

/// A raw connection past the handshake.
fn raw_connection(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(binary::hello_line().as_bytes())
        .expect("hello");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut accept = String::new();
    reader.read_line(&mut accept).expect("accept");
    assert_eq!(binary::parse_accept(&accept), Some(PROTOCOL_VERSION));
    (stream, reader)
}

/// The next complete reply off `reader`.
fn read_reply(reader: &mut BufReader<TcpStream>) -> ResponseEnvelope {
    let mut assembler = FrameAssembler::new();
    let mut partials = EmbedPartials::new();
    loop {
        if let Some(frame) = assembler.next_frame().expect("framing") {
            if let Some(reply) =
                binary::decode_response_frame(&frame, &mut partials).expect("decode")
            {
                return reply;
            }
            continue;
        }
        let buffered = reader.fill_buf().expect("read");
        assert!(
            !buffered.is_empty(),
            "the listener must answer, not hang up"
        );
        let read = buffered.len();
        assembler.push(buffered);
        reader.consume(read);
    }
}

fn error_code(envelope: &ResponseEnvelope) -> &str {
    match &envelope.body {
        ResponseBody::Error { code, .. } => code,
        other => panic!("expected an error body, got {other:?}"),
    }
}

fn chunk_sequence_violations_answer_typed_errors_and_spare_the_connection(addr: SocketAddr) {
    let (mut stream, mut reader) = raw_connection(addr);

    // A corpus_chunk with no begin_fit before it: a payload-level violation inside valid
    // framing. Payload = correlation header only (has_id=1, id=9) plus a column count of
    // zero.
    let mut payload = vec![1u8];
    payload.extend_from_slice(&9u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let frame = binary::frame_bytes(binary::KIND_CORPUS_CHUNK, &payload).expect("frame");
    stream.write_all(&frame).expect("write");
    let envelope = read_reply(&mut reader);
    assert_eq!(
        envelope.in_reply_to,
        Some(9),
        "correlated via the chunk's id"
    );
    assert_eq!(error_code(&envelope), "protocol_error");

    // Framing stayed intact: the same connection still serves real requests.
    let stats = RequestEnvelope::new(10, RequestBody::Stats);
    stream
        .write_all(&binary::encode_request_frame(&stats).expect("frame"))
        .expect("write");
    let reply = read_reply(&mut reader);
    assert_eq!(reply.in_reply_to, Some(10));
    assert!(matches!(reply.body, ResponseBody::Stats(_)), "{reply:?}");
}

fn oversized_length_prefixes_close_the_connection_with_a_typed_error(addr: SocketAddr) {
    let (mut stream, mut reader) = raw_connection(addr);

    // A length prefix beyond MAX_FRAME_LEN: framing is unrecoverable.
    let mut bogus = Vec::new();
    bogus.extend_from_slice(&(u32::MAX).to_le_bytes());
    bogus.push(binary::KIND_EMBED);
    stream.write_all(&bogus).expect("write");

    let envelope = read_reply(&mut reader);
    assert_eq!(envelope.in_reply_to, None, "nothing is salvageable");
    assert_eq!(error_code(&envelope), "protocol_error");
    // The listener closes its half after the uncorrelated error; the next read reports
    // EOF.
    assert!(reader.fill_buf().map_or(true, |rest| rest.is_empty()));
}

#[test]
fn gem_served_answers_a_chunk_out_of_sequence_and_serves_on() {
    let listeners = Listeners::start(false);
    chunk_sequence_violations_answer_typed_errors_and_spare_the_connection(listeners.addr());
    assert_eq!(
        listeners.stop(),
        1,
        "the refusal counts as a protocol error"
    );
}

#[test]
fn gem_routed_answers_a_chunk_out_of_sequence_and_serves_on() {
    let listeners = Listeners::start(true);
    chunk_sequence_violations_answer_typed_errors_and_spare_the_connection(listeners.addr());
    assert_eq!(
        listeners.stop(),
        0,
        "the router answered the refusal itself"
    );
}

#[test]
fn gem_served_closes_a_connection_whose_framing_is_lost() {
    let listeners = Listeners::start(false);
    oversized_length_prefixes_close_the_connection_with_a_typed_error(listeners.addr());
    assert!(
        listeners.stop() >= 1,
        "the refusal counts as a protocol error"
    );
}

#[test]
fn gem_routed_closes_a_connection_whose_framing_is_lost() {
    let listeners = Listeners::start(true);
    oversized_length_prefixes_close_the_connection_with_a_typed_error(listeners.addr());
    assert_eq!(
        listeners.stop(),
        0,
        "the router answered the refusal itself"
    );
}
