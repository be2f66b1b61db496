//! Socket plumbing shared by every connection — `gem-served`'s, [`GemClient`]'s and
//! `gem-routed`'s on both of its sides: the handshake, the frame read step, the reply
//! encoder and the reply writer.
//!
//! A connection opens with one text line each way: the dialer sends
//! [`binary::hello_line`], the listener answers [`binary::accept_line`], and everything
//! after that is length-prefixed `gem_proto::binary` frames. Both handshake halves read
//! their line through one bounded reader, so no peer can make either side buffer an
//! unterminated first line. The writer never re-frames anything: it writes the exact
//! blobs it is handed, coalescing already-completed replies into one flush so streamed
//! embed rows and pipelined replies ride a single TCP push (the sockets run
//! `TCP_NODELAY`, so every flush is a segment on the wire).
//!
//! This module is inside the lint gate's wire scope (L3 panic-free, L5 bit-exact):
//! nothing here may panic on foreign bytes, and no float ever passes through a lossy
//! cast or formatting.
//!
//! [`GemClient`]: crate::GemClient

use crate::client::ClientError;
use crate::metrics::ServerMetrics;
use gem_proto::binary::{self, FrameAssembler};
use gem_proto::{ResponseBody, ResponseEnvelope, PROTOCOL_VERSION};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// The most a listener reads of a connection's first line: `gem-wire-binary `, the 20
/// digits of the largest `u64` version, and `\r\n`. A first line that has not ended by
/// then is not a hello, and the listener stops reading it.
pub const HELLO_LINE_CAP: usize = 38;

/// The most a dialer reads of the listener's verdict: room for the accept line or a
/// typed error line.
const VERDICT_LINE_CAP: usize = 4096;

/// What one pump step observed on the socket.
pub enum ReadStep {
    /// This many bytes arrived and were pushed into the assembler.
    Bytes(usize),
    /// The read timed out (the shutdown-check tick) — nothing was lost.
    Tick,
    /// The peer closed the stream.
    Eof,
    /// The read failed for good (connection reset, …).
    Failed,
}

fn is_tick(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Pull whatever the socket has buffered into the frame assembler. A read-timeout tick
/// loses nothing: the assembler keeps partial frames across calls.
pub fn pump_frames(reader: &mut BufReader<TcpStream>, assembler: &mut FrameAssembler) -> ReadStep {
    match reader.fill_buf() {
        Ok([]) => ReadStep::Eof,
        Ok(bytes) => {
            let read = bytes.len();
            assembler.push(bytes);
            reader.consume(read);
            ReadStep::Bytes(read)
        }
        Err(e) if is_tick(&e) => ReadStep::Tick,
        Err(_) => ReadStep::Failed,
    }
}

/// Read one line of at most `cap` bytes, newline included. Returns the line, or the
/// first `cap` bytes when no newline came within them; nothing past the line is
/// consumed. With a `shutdown` flag, read timeouts are ticks: partial bytes are kept
/// and reading resumes until the flag is raised. Without one, a timeout is an error.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    cap: usize,
    shutdown: Option<&AtomicBool>,
) -> io::Result<Vec<u8>> {
    let mut line = Vec::new();
    while line.len() < cap {
        if shutdown.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let available = match reader.fill_buf() {
            Ok([]) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the peer closed the connection during the handshake",
                ))
            }
            Ok(bytes) => bytes,
            Err(e) if shutdown.is_some() && is_tick(&e) => continue,
            Err(e) => return Err(e),
        };
        let room = cap.saturating_sub(line.len());
        let (take, ended) = match available.iter().take(room).position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (available.len().min(room), false),
        };
        line.extend(available.iter().take(take));
        reader.consume(take);
        if ended {
            break;
        }
    }
    Ok(line)
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
/// read-timeout ticks, never past [`HELLO_LINE_CAP`] — and queues the verdict on
/// `reply`: the accept line for a hello at [`PROTOCOL_VERSION`], an uncorrelated
/// `version_mismatch` line for a hello at another version, and an uncorrelated
/// `protocol_error` line for anything else. Returns whether the connection continues
/// in frames; after a decline the caller closes it.
///
/// # Errors
/// The peer left, the read failed, or `shutdown` was raised before the line ended.
pub fn accept_hello(
    reader: &mut BufReader<TcpStream>,
    reply: &mpsc::Sender<Vec<u8>>,
    shutdown: &AtomicBool,
) -> io::Result<bool> {
    let line = read_line_capped(reader, HELLO_LINE_CAP, Some(shutdown))?;
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
    let _ = reply.send(verdict);
    Ok(accepted)
}

/// The dialer's half of the handshake: send the hello and read the verdict through the
/// same bounded reader. Only an accept at [`PROTOCOL_VERSION`] succeeds; the stream's
/// read timeout, if any, bounds the wait.
///
/// # Errors
/// [`ClientError::Server`] carrying a declining peer's typed error,
/// [`ClientError::Unexpected`] when the verdict does not decode, and
/// [`ClientError::Io`] when the socket fails, times out or closes first.
pub fn offer_hello(
    write: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> Result<(), ClientError> {
    write.write_all(binary::hello_line().as_bytes())?;
    write.flush()?;
    let line = read_line_capped(reader, VERDICT_LINE_CAP, None)?;
    let text = line_text(&line);
    if text.and_then(binary::parse_accept) == Some(PROTOCOL_VERSION) {
        return Ok(());
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
/// when no request id is known. Empty when the reply cannot be framed — sending
/// nothing is better than corrupting the stream.
pub fn encode_reply(in_reply_to: Option<u64>, body: ResponseBody) -> Vec<u8> {
    let envelope = match in_reply_to {
        Some(id) => ResponseEnvelope::new(id, body),
        None => ResponseEnvelope::uncorrelated(body),
    };
    binary::encode_response_frames(&envelope).unwrap_or_default()
}

/// One connection's writer loop: write completed replies in the order they are handed
/// over, counting every byte into `metrics`' wire-written telemetry when given. Exits
/// when every sender is gone or on the first write failure (the peer vanished). Replies
/// already waiting in the channel are coalesced into one flush.
pub fn write_responses(
    mut stream: TcpStream,
    responses: &mpsc::Receiver<Vec<u8>>,
    metrics: Option<&ServerMetrics>,
) {
    for response in responses {
        if stream.write_all(&response).is_err() {
            return;
        }
        let mut written = response.len() as u64;
        while let Ok(next) = responses.try_recv() {
            if stream.write_all(&next).is_err() {
                return;
            }
            written = written.saturating_add(next.len() as u64);
        }
        if let Some(metrics) = metrics {
            metrics.count_wire_written(written);
        }
        if stream.flush().is_err() {
            return;
        }
    }
}
