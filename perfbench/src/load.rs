//! The two load loops. A closed loop sends each client's next request only after the
//! previous reply was checked; an open loop sends on a fixed schedule whatever the
//! replies do, and times each request from when it was due.
//!
//! The closed loop drives the repository's `GemClient`. The open loop needs a writer
//! that never waits for replies, so it speaks the negotiated binary codec directly with
//! `gem_proto::binary` on one connection: the calling thread sends, one receiver thread
//! reads, checks and times the replies.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gem_core::GemColumn;
use gem_numeric::Matrix;
use gem_proto::{binary, RequestBody, RequestEnvelope, ResponseBody};
use gem_serve::{GemClient, ModelHandle};

use crate::trace::Recorder;

/// What a measured operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Embed,
    Fit,
    FitUpdate,
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Query columns (embeds) or corpus columns (fits).
    pub cols: usize,
    /// When the request was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the request was handed to the client.
    pub sent: Instant,
    /// When the reply was received and decoded.
    pub done: Instant,
    /// Generator lateness: open loop `sent - due`; closed loop, the generator's own time
    /// between the previous reply and this send.
    pub lag: Duration,
    /// Reply arrived, had the expected variant, and passed the bit/handle check.
    pub ok: bool,
    /// Sent while span recording was on.
    pub traced: bool,
}

impl Op {
    /// Latency in ms from due time (closed loop: from send).
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// What a reply must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `fitted` reply naming exactly this handle.
    Handle(ModelHandle),
    /// An `embedded` reply bit-identical to this matrix.
    Matrix(Arc<Matrix>),
}

/// Bitwise equality of two matrices (shape and every IEEE-754 bit pattern).
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a reply body satisfies `expect`.
pub fn check(expect: &Expect, body: &ResponseBody) -> bool {
    match (expect, body) {
        (Expect::Handle(handle), ResponseBody::Fitted { handle: got, .. }) => {
            *got == handle.to_hex()
        }
        (Expect::Matrix(want), ResponseBody::Embedded { matrix, .. }) => same_bits(want, matrix),
        _ => false,
    }
}

/// Embed `queries` against `handle` through a `GemClient` and check the reply.
pub fn embed_checked(
    client: &mut GemClient,
    handle: ModelHandle,
    queries: &[GemColumn],
    want: &Matrix,
) -> bool {
    matches!(client.embed(handle, queries), Ok(out) if same_bits(&out.matrix, want))
}

/// One closed-loop request: the handle, its queries and the expected matrix.
pub struct EmbedCase<'a> {
    pub handle: ModelHandle,
    pub queries: &'a [GemColumn],
    pub want: &'a Matrix,
}

/// Run one closed-loop client until `deadline`: `pick` chooses each request, spans are
/// recorded for requests sent at or after `trace_from`.
pub fn closed_loop<'a>(
    client: &mut GemClient,
    deadline: Instant,
    trace_from: Option<Instant>,
    recorder: &mut Recorder,
    mut pick: impl FnMut() -> EmbedCase<'a>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut previous_done = Instant::now();
    let mut request = 0u64;
    loop {
        let begin = Instant::now();
        if begin >= deadline {
            return ops;
        }
        request += 1;
        let case = pick();
        let sent = Instant::now();
        let reply = client.embed(case.handle, case.queries);
        let done = Instant::now();
        let ok = matches!(&reply, Ok(out) if same_bits(&out.matrix, case.want));
        let checked = Instant::now();
        let traced = trace_from.is_some_and(|from| begin >= from);
        if traced {
            let root = recorder.reserve();
            recorder.leaf("client.embed", Some(root), request, (sent, done));
            recorder.leaf("verify", Some(root), request, (done, checked));
            recorder.finish(root, "request", None, request, (begin, checked));
        }
        ops.push(Op {
            kind: Kind::Embed,
            cols: case.queries.len(),
            due: sent,
            sent,
            done,
            lag: sent.saturating_duration_since(previous_done),
            ok,
            traced,
        });
        previous_done = done;
    }
}

/// One scheduled open-loop request.
pub struct Planned {
    /// Offset of the due time from the schedule's start.
    pub at: Duration,
    pub kind: Kind,
    pub cols: usize,
    pub body: RequestBody,
    pub expect: Expect,
}

struct InFlight {
    kind: Kind,
    cols: usize,
    due: Instant,
    sent: Instant,
    sent_end: Instant,
    expect: Expect,
    traced: bool,
}

#[derive(Default)]
struct Shared {
    in_flight: HashMap<u64, InFlight>,
    sending_done: bool,
}

/// How long the receiver waits for stragglers after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Negotiate the binary codec on a fresh connection; returns the writer and a reader
/// positioned after the accept line.
fn connect_binary(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(binary::hello_line().as_bytes())
        .map_err(|e| e.to_string())?;
    let mut verdict = String::new();
    reader.read_line(&mut verdict).map_err(|e| e.to_string())?;
    if binary::parse_accept(&verdict) != Some(gem_proto::PROTOCOL_VERSION) {
        return Err(format!(
            "{addr} declined the binary codec: {}",
            verdict.trim()
        ));
    }
    Ok((writer, reader))
}

/// Run `plan` (sorted by due offset) open loop against `addr`; spans are recorded for
/// requests due at or after `trace_from`. Requests that get no reply within the drain
/// limit count as failed.
pub fn open_loop(
    addr: &str,
    plan: Vec<Planned>,
    start: Instant,
    trace_from: Option<Instant>,
    recorder: &mut Recorder,
) -> Result<Vec<Op>, String> {
    let (mut writer, reader) = connect_binary(addr)?;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let shared = Arc::new(Mutex::new(Shared::default()));
    let receiver_shared = Arc::clone(&shared);
    let receiver_recorder = Recorder::new(recorder.origin(), 2);
    let receiver = std::thread::spawn(move || receive(reader, &receiver_shared, receiver_recorder));
    let mut send_error = None;
    for (index, planned) in plan.into_iter().enumerate() {
        let id = index as u64 + 1;
        let due = start + planned.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let envelope = RequestEnvelope::new(id, planned.body);
        let frames = match binary::encode_request_frames(&envelope, binary::DEFAULT_CHUNK_BYTES) {
            Ok(frames) => frames,
            Err(e) => {
                send_error = Some(format!("encode request {id}: {e}"));
                break;
            }
        };
        // Registered before the bytes leave, so the reply always finds its entry.
        lock(&shared).in_flight.insert(
            id,
            InFlight {
                kind: planned.kind,
                cols: planned.cols,
                due,
                sent,
                sent_end: sent,
                expect: planned.expect,
                traced: trace_from.is_some_and(|from| due >= from),
            },
        );
        let written = frames.iter().try_for_each(|f| writer.write_all(f));
        if let Some(entry) = lock(&shared).in_flight.get_mut(&id) {
            entry.sent_end = Instant::now();
        }
        if let Err(e) = written {
            send_error = Some(format!("send request {id}: {e}"));
            break;
        }
    }
    lock(&shared).sending_done = true;
    let (ops, spans) = receiver
        .join()
        .map_err(|_| "open-loop receiver panicked".to_string())?;
    recorder.spans.extend(spans.spans);
    match send_error {
        Some(e) => Err(e),
        None => Ok(ops),
    }
}

fn lock(shared: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    shared.lock().expect("open-loop state lock poisoned")
}

fn receive(
    mut reader: BufReader<TcpStream>,
    shared: &Mutex<Shared>,
    mut recorder: Recorder,
) -> (Vec<Op>, Recorder) {
    let mut assembler = binary::FrameAssembler::new();
    let mut partials = binary::EmbedPartials::new();
    let mut ops = Vec::new();
    let mut drain_started: Option<Instant> = None;
    let mut broken = false;
    loop {
        {
            let state = lock(shared);
            if state.sending_done {
                if state.in_flight.is_empty() {
                    break;
                }
                let since = *drain_started.get_or_insert_with(Instant::now);
                if broken || since.elapsed() > DRAIN_LIMIT {
                    break;
                }
            }
        }
        if broken {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let frame = match assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                match reader.fill_buf() {
                    Ok([]) => broken = true,
                    Ok(buf) => {
                        let n = buf.len();
                        assembler.push(buf);
                        reader.consume(n);
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => broken = true,
                }
                continue;
            }
            Err(_) => {
                broken = true;
                continue;
            }
        };
        let envelope = match binary::decode_response_frame(&frame, &mut partials) {
            Ok(Some(envelope)) => envelope,
            Ok(None) => continue,
            Err(_) => {
                broken = true;
                continue;
            }
        };
        let done = Instant::now();
        let Some(id) = envelope.in_reply_to else {
            broken = true;
            continue;
        };
        let Some(entry) = lock(shared).in_flight.remove(&id) else {
            continue;
        };
        let ok = check(&entry.expect, &envelope.body);
        let checked = Instant::now();
        if entry.traced {
            let root = recorder.reserve();
            recorder.leaf("lag", Some(root), id, (entry.due, entry.sent));
            recorder.leaf("client.send", Some(root), id, (entry.sent, entry.sent_end));
            recorder.leaf("client.wait", Some(root), id, (entry.sent_end, done));
            recorder.leaf("verify", Some(root), id, (done, checked));
            recorder.finish(root, "request", None, id, (entry.due, checked));
        }
        ops.push(Op {
            kind: entry.kind,
            cols: entry.cols,
            due: entry.due,
            sent: entry.sent,
            done,
            lag: entry.sent.saturating_duration_since(entry.due),
            ok,
            traced: entry.traced,
        });
    }
    // Whatever never got a reply failed.
    let now = Instant::now();
    for (_, entry) in lock(shared).in_flight.drain() {
        ops.push(Op {
            kind: entry.kind,
            cols: entry.cols,
            due: entry.due,
            sent: entry.sent,
            done: now,
            lag: entry.sent.saturating_duration_since(entry.due),
            ok: false,
            traced: entry.traced,
        });
    }
    (ops, recorder)
}
