//! Socket plumbing shared by every connection — `gem-served`'s, [`GemClient`]'s and
//! `gem-routed`'s on both of its sides: the handshake, the read half ([`FrameReader`]),
//! the reply encoder, the reply write half, and the one [`Listener`] both daemons run.
//!
//! A connection opens with one text line each way: the dialer sends
//! [`binary::hello_line`], the listener answers [`binary::accept_line`], and everything
//! after that is length-prefixed `gem_proto::binary` frames. Every connection reads its
//! line, never past a fixed cap, and then every frame through one [`FrameReader`]. Its
//! read step reads straight into the frame buffer (8 KiB while no frame is in progress,
//! up to 256 KiB of one that is) and returns the socket's `io::Result`, so the
//! listeners can tick on read timeouts where [`GemClient`] fails on them.
//!
//! A [`Listener`] accepts connections for `gem-served` and `gem-routed` alike: one
//! thread per connection (a thread that cannot be spawned drops its connection, and
//! finished threads are let go as the loop runs), the socket setup, the hello verdict,
//! and one request reader. The reader hands each request frame to the daemon's
//! [`Handler`] as read, and each chunked upload once reassembled; it answers a chunk
//! refusal (correlated, the connection lives) and lost framing (uncorrelated, the
//! connection closes) itself. A read tick that finds nothing buffered shrinks the read
//! buffer back to 8 KiB, so an idle connection does not keep its largest frame's room.
//!
//! A listener answers through one [`ReplyWriter`] per connection: the socket's write
//! half, taken in turns by every thread that produces a reply for that connection, so
//! the thread that finishes a reply writes it — there is no writer thread and no reply
//! queue. Each call writes complete frames in one `write`, never re-framed. A reply
//! may spend [`REPLY_WRITE_TIMEOUT`] writing in all — waiting for its turn and blocked
//! on the socket, summed over its writes (its [`WriteBudget`]); a reply that runs out
//! kills the connection: shut down, and every later write refused without touching the
//! socket. So a peer that stops reading, or drains a trickle, holds each of its
//! writers for at most one budget.
//!
//! This module is inside the lint gate's wire scope (L3 panic-free, L5 bit-exact):
//! nothing here may panic on foreign bytes, and no float ever passes through a lossy
//! cast or formatting.
//!
//! [`GemClient`]: crate::GemClient

use crate::client::ClientError;
use crate::metrics::ServerMetrics;
use crate::sync::{lock_or_recover, wait_timeout_or_recover};
use gem_proto::binary::{self, ChunkAssembler, Frame, FrameAssembler};
use gem_proto::{ProtoError, RequestEnvelope, ResponseBody, ResponseEnvelope, PROTOCOL_VERSION};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The most a listener reads of a connection's first line: `gem-wire-binary `, the 20
/// digits of the largest `u64` version, and `\r\n`. A first line that has not ended by
/// then is not a hello, and the listener stops reading it.
pub const HELLO_LINE_CAP: usize = 38;

/// The read timeout of every connection a [`Listener`] accepts: how often a reader
/// waiting on its peer wakes to check the shutdown flag. A tick loses nothing read.
pub const READ_TICK: Duration = Duration::from_millis(100);

/// Pause after a failed `accept`, so a persistent error (fd exhaustion under a
/// connection flood) degrades to slow retries instead of a busy spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// The most a [`StopHandle`]'s wake-up connect waits for the listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long one reply may spend writing: waiting for its turn at the connection's
/// write half and blocked on the socket, summed over all of the reply's writes (see
/// [`WriteBudget`]). However slowly the peer's receive window opens, a reply that has
/// spent this long writing marks its connection dead. Time a streamed reply spends
/// computing between its writes is not counted, so a large embed is not cut off for
/// computing long. Long enough for a 64 MiB frame at ~15 MB/s, short enough that a peer
/// that stops reading, or drains a trickle, frees its writers within seconds.
pub const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long one blocked `send` waits before the writer re-checks its budget: the most a
/// write can overrun its [`WriteBudget`].
const WRITE_POLL: Duration = Duration::from_millis(50);

/// The most a dialer reads of the listener's verdict: room for the accept line or a
/// typed error line.
const VERDICT_LINE_CAP: usize = 4096;

/// Whether a socket error is a timeout: for a read, the listeners' shutdown-check tick,
/// which loses nothing.
pub fn is_tick(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What one [`FrameReader::read`] took off the socket.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    /// How many bytes arrived; never zero (the end of the stream is an error).
    pub bytes: usize,
    /// Whether they fell short of the room the read offered, so the socket held no
    /// more: the peer's link is empty.
    pub emptied: bool,
}

/// A connection's read half: the socket and every byte read off it but not yet
/// consumed. It serves the handshake line ([`accept_hello`], [`dial`]) and every frame
/// after it (see the module docs).
#[derive(Debug)]
pub struct FrameReader {
    stream: TcpStream,
    frames: FrameAssembler,
}

impl FrameReader {
    /// Take over `stream`, a connection's read half, with nothing read yet.
    pub fn new(stream: TcpStream) -> Self {
        FrameReader {
            stream,
            frames: FrameAssembler::new(),
        }
    }

    /// Bytes read but not consumed yet.
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Pop the next complete frame already read, without reading.
    ///
    /// # Errors
    /// A framing violation (see [`FrameAssembler::next_frame`]): the stream cannot be
    /// resynchronized past it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        self.frames.next_frame()
    }

    /// Read once, straight into the frame buffer ([`FrameAssembler::room`]).
    ///
    /// # Errors
    /// The read's own error — a read timeout arrives as `WouldBlock` or `TimedOut`, and
    /// loses nothing read before it — or `UnexpectedEof` when the peer closed the stream.
    pub fn read(&mut self) -> io::Result<Received> {
        let room = self.frames.room();
        let offered = room.len();
        let bytes = self.stream.read(room)?;
        if bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the peer closed the connection",
            ));
        }
        self.frames.filled(bytes);
        Ok(Received {
            bytes,
            emptied: bytes < offered,
        })
    }

    /// Read one line of at most `cap` bytes, newline included. Returns the line, or the
    /// first `cap` bytes when no newline came within them; nothing past the line is
    /// consumed. With a `shutdown` flag, read timeouts are ticks: partial bytes are kept
    /// and reading resumes until the flag is raised. Without one, a timeout is an error.
    fn read_line(&mut self, cap: usize, shutdown: Option<&AtomicBool>) -> io::Result<Vec<u8>> {
        loop {
            if let Some(line) = self.frames.next_line(cap) {
                return Ok(line);
            }
            if shutdown.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            match self.read() {
                Ok(_) => {}
                Err(e) if shutdown.is_some() && is_tick(&e) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A complete line as text: `None` when it has no newline or is not UTF-8.
fn line_text(line: &[u8]) -> Option<&str> {
    std::str::from_utf8(line)
        .ok()
        .filter(|text| text.ends_with('\n'))
}

/// An uncorrelated typed error as one JSON line: the handshake's decline.
fn error_line(code: &str, message: String) -> Vec<u8> {
    let envelope = ResponseEnvelope::uncorrelated(ResponseBody::Error {
        code: code.to_string(),
        message,
        retry_after_ms: None,
    });
    gem_proto::encode_response(&envelope).into_bytes()
}

/// The listener's half of the handshake. Reads the connection's first line — across
/// read-timeout ticks, never past [`HELLO_LINE_CAP`] — and writes the verdict through
/// `reply`: the accept line for a hello at [`PROTOCOL_VERSION`], an uncorrelated
/// `version_mismatch` line for a hello at another version, and an uncorrelated
/// `protocol_error` line for anything else. Returns whether the connection continues
/// in frames; after a decline the caller closes it.
///
/// # Errors
/// The peer left, the read failed, or `shutdown` was raised before the line ended.
pub fn accept_hello(
    reader: &mut FrameReader,
    reply: &ReplyWriter,
    shutdown: &AtomicBool,
) -> io::Result<bool> {
    let line = reader.read_line(HELLO_LINE_CAP, Some(shutdown))?;
    let (verdict, accepted) = match line_text(&line).and_then(binary::parse_hello) {
        Some(PROTOCOL_VERSION) => (binary::accept_line().into_bytes(), true),
        Some(version) => (
            error_line(
                "version_mismatch",
                format!(
                    "the hello speaks protocol version {version}, this peer speaks \
                     {PROTOCOL_VERSION}"
                ),
            ),
            false,
        ),
        None => (
            error_line(
                "protocol_error",
                format!(
                    "the first line must be the hello `{}`; every message after it is a \
                     length-prefixed binary frame",
                    binary::hello_line().trim_end()
                ),
            ),
            false,
        ),
    };
    reply.write(&verdict, &mut WriteBudget::default());
    Ok(accepted)
}

/// Open a connection as its dialer: connect to the first address that accepts — each
/// attempt within `timeout`, when one is given — and offer the hello. Only an accept at
/// [`PROTOCOL_VERSION`] succeeds. The `timeout` also bounds the wait for the verdict and
/// every later read and write of the connection. Returns the write half and the
/// [`FrameReader`].
///
/// # Errors
/// [`ClientError::Server`] carrying a declining peer's typed error,
/// [`ClientError::Unexpected`] when the verdict does not decode, and
/// [`ClientError::Io`] when no address accepts, or the socket fails, times out or
/// closes before the verdict.
pub fn dial(
    addr: impl ToSocketAddrs,
    timeout: Option<Duration>,
) -> Result<(TcpStream, FrameReader), ClientError> {
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        let connected = match timeout {
            Some(timeout) => TcpStream::connect_timeout(&resolved, timeout),
            None => TcpStream::connect(resolved),
        };
        match connected {
            Ok(stream) => return offer_hello(stream, timeout),
            Err(e) => last = Some(e),
        }
    }
    Err(ClientError::Io(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    })))
}

/// The dialer's half of the handshake on a connected `stream`: send the hello and read
/// the verdict, never past a fixed cap.
fn offer_hello(
    mut stream: TcpStream,
    timeout: Option<Duration>,
) -> Result<(TcpStream, FrameReader), ClientError> {
    // Pipelining lives or dies on this: with Nagle's algorithm on, a burst of small
    // request frames is held back waiting for ACKs (≈40ms of delayed-ACK stall per
    // burst), which would serialize exactly the traffic pipelining exists to overlap.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    stream.write_all(binary::hello_line().as_bytes())?;
    let line = reader.read_line(VERDICT_LINE_CAP, None)?;
    let text = line_text(&line);
    if text.and_then(binary::parse_accept) == Some(PROTOCOL_VERSION) {
        return Ok((stream, reader));
    }
    match text.map(gem_proto::decode_response) {
        Some(Ok(ResponseEnvelope {
            body:
                ResponseBody::Error {
                    code,
                    message,
                    retry_after_ms,
                },
            ..
        })) => Err(ClientError::Server {
            code,
            message,
            retry_after_ms,
        }),
        _ => Err(ClientError::Unexpected {
            detail: format!(
                "the peer answered the hello with `{}`",
                String::from_utf8_lossy(&line).trim_end()
            ),
        }),
    }
}

/// Encode one reply as complete frames: correlated to `in_reply_to`, or uncorrelated
/// when no request id is known. A reply that cannot be framed (a body over the frame
/// bound) is answered instead with a `protocol_error` naming the bound, under the same
/// correlation, so the peer is never left waiting.
pub fn encode_reply(in_reply_to: Option<u64>, body: ResponseBody) -> Vec<u8> {
    let envelope = |body| match in_reply_to {
        Some(id) => ResponseEnvelope::new(id, body),
        None => ResponseEnvelope::uncorrelated(body),
    };
    binary::encode_response_frames(&envelope(body)).unwrap_or_else(|error| {
        let refusal = unframeable_reply(&error);
        binary::encode_response_frames(&envelope(refusal)).unwrap_or_default()
    })
}

/// The typed error answering a request the codec refused.
pub(crate) fn protocol_error_body(error: &ProtoError) -> ResponseBody {
    ResponseBody::Error {
        code: error.code().to_string(),
        message: error.to_string(),
        retry_after_ms: None,
    }
}

/// The error body that stands in for a reply the codec refused to frame.
pub(crate) fn unframeable_reply(error: &ProtoError) -> ResponseBody {
    ResponseBody::Error {
        code: error.code().to_string(),
        message: format!("the reply cannot be framed: {error}"),
        retry_after_ms: None,
    }
}

/// What is left of one reply's [`REPLY_WRITE_TIMEOUT`]. Every [`ReplyWriter::write`]
/// of the reply draws on it for as long as the call waits for its turn and for the
/// socket; a write that runs it out kills the connection. A one-write reply starts
/// from [`WriteBudget::default`]; a reply written in parts carries one budget across
/// its parts.
#[derive(Debug)]
pub struct WriteBudget {
    left: Duration,
}

impl Default for WriteBudget {
    /// A whole [`REPLY_WRITE_TIMEOUT`].
    fn default() -> Self {
        WriteBudget {
            left: REPLY_WRITE_TIMEOUT,
        }
    }
}

/// Who holds a connection's write half, and how many writers wait for it.
#[derive(Debug, Default)]
struct Turn {
    taken: bool,
    waiting: usize,
}

/// The write half of one accepted connection, shared by every thread that answers on
/// it (see the module docs). Writers take turns, so each call's frames land on the wire
/// contiguously; a call that fails, or whose reply runs out of [`WriteBudget`] waiting
/// for its turn or for the socket, marks the connection dead and shuts the socket down
/// both ways, which also wakes the connection's reader and any writer blocked on it.
#[derive(Debug)]
pub struct ReplyWriter {
    stream: TcpStream,
    turn: Mutex<Turn>,
    turn_free: Condvar,
    dead: AtomicBool,
    /// Counts every byte written into the wire-written telemetry when given.
    metrics: Option<Arc<ServerMetrics>>,
}

impl ReplyWriter {
    /// Take over `stream` (an accepted socket's write half) and arm its write timeout.
    ///
    /// # Errors
    /// Propagates the failure to set the socket's write timeout.
    pub fn new(stream: TcpStream, metrics: Option<Arc<ServerMetrics>>) -> io::Result<Self> {
        stream.set_write_timeout(Some(WRITE_POLL))?;
        Ok(ReplyWriter {
            stream,
            turn: Mutex::new(Turn::default()),
            turn_free: Condvar::new(),
            dead: AtomicBool::new(false),
            metrics,
        })
    }

    /// Whether the connection died: a write failed or ran out of budget, or
    /// [`ReplyWriter::kill`] was called. A dead connection never writes again.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Write `bytes` — any number of complete frames — in one call, drawing the time
    /// spent waiting for the turn and for the socket from `budget`. Returns whether
    /// they were written; `false` when the connection was already dead or died in this
    /// call.
    pub fn write(&self, bytes: &[u8], budget: &mut WriteBudget) -> bool {
        if bytes.is_empty() {
            return !self.is_dead();
        }
        let started = Instant::now();
        let limit = budget.left;
        let written = match self.take_turn(started, limit) {
            Some(_turn) if self.is_dead() => false,
            Some(_turn) => {
                let written = write_within(&self.stream, bytes, started, limit).is_ok();
                if !written {
                    // Before the turn passes on, so no writer appends to a torn frame.
                    self.kill();
                }
                written
            }
            None => {
                self.kill();
                false
            }
        };
        budget.left = limit.saturating_sub(started.elapsed());
        if let Some(metrics) = self.metrics.as_ref().filter(|_| written) {
            metrics.count_wire_written(bytes.len() as u64);
        }
        written
    }

    /// Mark the connection dead and shut its socket down without writing anything —
    /// for a reply that cannot be finished after some of its bytes already left.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Wait until no other writer holds the write half, for at most what is left of
    /// `limit` since `started`. `None` when the wait ran the budget out.
    fn take_turn(&self, started: Instant, limit: Duration) -> Option<TurnGuard<'_>> {
        let mut turn = lock_or_recover(&self.turn);
        while turn.taken {
            let left = limit.saturating_sub(started.elapsed());
            if left.is_zero() {
                return None;
            }
            turn.waiting += 1;
            turn = wait_timeout_or_recover(&self.turn_free, turn, left, || {});
            turn.waiting -= 1;
        }
        turn.taken = true;
        Some(TurnGuard(self))
    }
}

/// A writer's turn at the write half, handed to the next waiter when dropped.
struct TurnGuard<'a>(&'a ReplyWriter);

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut turn = lock_or_recover(&self.0.turn);
        turn.taken = false;
        if turn.waiting > 0 {
            self.0.turn_free.notify_one();
        }
    }
}

/// Write all of `bytes` before `limit` has passed since `started`. The socket's write
/// timeout is [`WRITE_POLL`], so a `send` blocked on a closed window returns (with what
/// it wrote, or nothing) at least that often and the deadline is re-checked: a window
/// that keeps opening a little cannot stretch the write past it. Bytes that fit the
/// send buffer cost one `send`.
fn write_within(
    mut stream: &TcpStream,
    mut bytes: &[u8],
    started: Instant,
    limit: Duration,
) -> io::Result<()> {
    loop {
        match stream.write(bytes) {
            Ok(written) if written == bytes.len() => return Ok(()),
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(written) => bytes = bytes.get(written..).unwrap_or_default(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_tick(&e) => {}
            Err(e) => return Err(e),
        }
        if started.elapsed() >= limit {
            return Err(io::ErrorKind::TimedOut.into());
        }
    }
}

/// One request as a listener's reader hands it to its [`Handler`].
#[derive(Debug)]
pub enum FramePayload {
    /// A request frame as read, its payload not decoded.
    Binary(Frame),
    /// A `Fit` or `FitUpdate` the reader reassembled from its chunked upload.
    Assembled(Box<RequestEnvelope>),
}

impl FramePayload {
    /// The request id for correlating a reply, without decoding.
    pub fn correlation_id(&self) -> Option<u64> {
        match self {
            FramePayload::Binary(frame) => frame.correlation_id(),
            FramePayload::Assembled(envelope) => Some(envelope.id),
        }
    }
}

/// What a daemon does with the connections its [`Listener`] accepts, past the setup,
/// the hello and the request reader the listener runs itself.
pub trait Handler: Send + Sync + 'static {
    /// What one connection holds past its hello; dropped when its reader ends.
    type Connection;

    /// Where connections count the bytes they read after the hello and every byte
    /// they write, if anywhere.
    fn metrics(&self) -> Option<&Arc<ServerMetrics>> {
        None
    }

    /// Count one accepted connection.
    fn accepted(&self) {}

    /// Count one refusal the listener answered itself: a declined hello, a chunk
    /// refusal, or lost framing.
    fn refused(&self) {}

    /// Open a connection whose hello was accepted, around its write half.
    fn open(&self, writer: ReplyWriter) -> Self::Connection;

    /// The write half [`Handler::open`] was given.
    fn writer(connection: &Self::Connection) -> &ReplyWriter;

    /// Act on one request read off `connection`.
    fn request(&self, connection: &mut Self::Connection, request: FramePayload);
}

/// Stops a running [`Listener`] from any thread.
#[derive(Debug, Clone)]
pub struct StopHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl StopHandle {
    /// The address the listener is bound to, its ephemeral port resolved.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the listener to stop: it accepts no more connections, every connection's
    /// reader stops within one [`READ_TICK`], and [`Listener::run`] returns once all of
    /// them have. Safe to call more than once.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection wakes it to see
        // the flag without waiting for real traffic.
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }
}

/// A bound listening socket and the connection handling `gem-served` and `gem-routed`
/// share (see the module docs).
#[derive(Debug)]
pub struct Listener {
    socket: TcpListener,
    stop: StopHandle,
}

impl Listener {
    /// Bind `addr` (port 0 picks an ephemeral port).
    ///
    /// # Errors
    /// The bind failure, or the failure to read the bound address back.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let socket = TcpListener::bind(addr)?;
        let stop = StopHandle {
            addr: socket.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        Ok(Listener { socket, stop })
    }

    /// The bound address, its ephemeral port resolved.
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// A handle that stops [`Listener::run`] from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Accept connections until [`StopHandle::shutdown`], each on a thread of its own
    /// that hands its requests to `handler`. Joins every connection's thread before
    /// returning.
    pub fn run<H: Handler>(self, handler: Arc<H>) {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.socket.incoming() {
            if self.stop.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else {
                thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            };
            handler.accepted();
            let (handler, shutdown) = (Arc::clone(&handler), Arc::clone(&self.stop.shutdown));
            // A thread that cannot be spawned drops its connection with the closure;
            // the daemon serves on.
            let spawned = thread::Builder::new()
                .spawn(move || run_connection(stream, handler.as_ref(), &shutdown));
            // Finished threads are let go here, so the loop holds one thread per open
            // connection, not one per connection it ever accepted.
            connections.retain(|connection| !connection.is_finished());
            connections.extend(spawned.ok());
        }
        for connection in connections {
            let _ = connection.join();
        }
    }
}

/// One accepted connection: set the socket up, answer the hello, then read requests
/// until the peer leaves, the connection dies or the listener stops. Replies in flight
/// hold the write half, so the reader ending abandons none of them.
fn run_connection<H: Handler>(stream: TcpStream, handler: &H, shutdown: &AtomicBool) {
    // The read timeout is a shutdown tick, not a deadline: partial input is kept and
    // reading resumes, so slow writers lose nothing.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Replies leave as many small writes; Nagle would hold them behind delayed ACKs and
    // hand the latency win of pipelining right back.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream
        .try_clone()
        .and_then(|half| ReplyWriter::new(half, handler.metrics().cloned()))
    else {
        return;
    };
    let mut reader = FrameReader::new(stream);
    match accept_hello(&mut reader, &writer, shutdown) {
        Ok(true) => {
            let mut connection = handler.open(writer);
            read_requests(&mut reader, handler, &mut connection, shutdown);
        }
        Ok(false) => handler.refused(),
        Err(_) => {}
    }
}

/// The request reader: hand `handler` every request frame as read and every chunked
/// upload once reassembled (chunk sequencing is stateful, so it happens here, in
/// arrival order). A read timeout is a shutdown-check tick.
///
/// A chunk refusal inside valid framing (a chunk out of sequence, an unknown upload
/// id, the connection's upload bound crossed) is answered with a correlated typed error
/// and the connection, other uploads included, lives on. Lost framing (a zero or
/// oversized length prefix) has no resynchronisation point: it is answered uncorrelated
/// and the connection closes.
fn read_requests<H: Handler>(
    reader: &mut FrameReader,
    handler: &H,
    connection: &mut H::Connection,
    shutdown: &AtomicBool,
) {
    let count_read = |bytes: usize| {
        if let Some(metrics) = handler.metrics() {
            metrics.count_wire_read(bytes as u64);
        }
    };
    // What arrived behind the hello line is the first frames' bytes.
    count_read(reader.buffered());
    let refuse = |connection: &H::Connection, id: Option<u64>, error: ProtoError| {
        handler.refused();
        let body = protocol_error_body(&error);
        H::writer(connection).write(&encode_reply(id, body), &mut WriteBudget::default());
    };
    let mut chunks = ChunkAssembler::new();
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) if ChunkAssembler::is_chunk_kind(frame.kind) => {
                match chunks.accept(&frame) {
                    Ok(Some(envelope)) => {
                        handler.request(connection, FramePayload::Assembled(Box::new(envelope)));
                    }
                    Ok(None) => {}
                    Err(error) => refuse(connection, frame.correlation_id(), error),
                }
            }
            Ok(Some(frame)) => handler.request(connection, FramePayload::Binary(frame)),
            Ok(None) if shutdown.load(Ordering::SeqCst) || H::writer(connection).is_dead() => {
                return;
            }
            Ok(None) => match reader.read() {
                Ok(received) => count_read(received.bytes),
                // Back-to-back requests never wait a tick, so only an idle connection
                // gives its read buffer back.
                Err(e) if is_tick(&e) => reader.frames.shrink_to_idle(),
                Err(_) => return,
            },
            Err(error) => return refuse(connection, None, error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// More than the loopback socket buffers of both ends hold.
    const OVERFLOW: usize = 32 << 20;

    /// A writer on an accepted socket, and the dialing end, which never reads.
    fn loopback() -> (Arc<ReplyWriter>, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Arc::new(ReplyWriter::new(accepted, None).unwrap()), peer)
    }

    #[test]
    fn a_reply_over_the_frame_bound_is_answered_with_a_correlated_typed_error() {
        // One row wider than a frame: zeroed pages the encoder refuses before touching.
        let too_wide = ResponseBody::Embedded {
            matrix: gem_numeric::Matrix::zeros(1, binary::MAX_FRAME_LEN as usize / 8 + 1),
            served_from: "memory_cache".to_string(),
        };
        let bytes = encode_reply(Some(41), too_wide);
        let mut assembler = FrameAssembler::new();
        assembler.push(&bytes);
        let frame = assembler.next_frame().unwrap().expect("one whole frame");
        assert!(assembler.next_frame().unwrap().is_none());
        let mut partials = binary::EmbedPartials::new();
        let reply = binary::decode_response_frame(&frame, &mut partials)
            .unwrap()
            .expect("a complete reply");
        assert_eq!(reply.in_reply_to, Some(41));
        let ResponseBody::Error { code, message, .. } = reply.body else {
            panic!("expected an error body, got {:?}", reply.body);
        };
        assert_eq!(code, "protocol_error");
        assert!(message.contains("cannot be framed"), "{message}");
    }

    #[test]
    fn a_write_blocked_on_the_socket_ends_when_its_budget_runs_out() {
        let (writer, _peer) = loopback();
        let mut budget = WriteBudget {
            left: Duration::from_millis(300),
        };
        let started = Instant::now();
        assert!(!writer.write(&vec![0u8; OVERFLOW], &mut budget));
        let spent = started.elapsed();
        assert!(spent >= Duration::from_millis(300), "{spent:?}");
        assert!(
            spent < Duration::from_millis(300) + WRITE_POLL * 4,
            "{spent:?}"
        );
        assert_eq!(budget.left, Duration::ZERO);
        assert!(writer.is_dead());
        assert!(!writer.write(b"late", &mut WriteBudget::default()));
    }

    #[test]
    fn waiting_for_the_turn_draws_on_the_budget_and_running_out_kills_the_connection() {
        let (writer, _peer) = loopback();
        // A writer that blocks on the full socket while holding the turn, with a budget
        // far longer than the test.
        let holder = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || {
                let mut budget = WriteBudget {
                    left: Duration::from_secs(60),
                };
                let started = Instant::now();
                let written = writer.write(&vec![0u8; OVERFLOW], &mut budget);
                (written, started.elapsed())
            })
        };
        while !lock_or_recover(&writer.turn).taken {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A reply with 300 ms left never gets the turn: it runs out waiting.
        let mut budget = WriteBudget {
            left: Duration::from_millis(300),
        };
        let started = Instant::now();
        assert!(!writer.write(b"reply", &mut budget));
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(300), "{waited:?}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
        assert_eq!(budget.left, Duration::ZERO);
        assert!(writer.is_dead());
        // Killing the connection freed the holder too, long before its own budget.
        let (written, held) = holder.join().unwrap();
        assert!(!written);
        assert!(held < Duration::from_secs(10), "{held:?}");
    }
}
