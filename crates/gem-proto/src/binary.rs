//! The wire codec: length-prefixed frames carrying f64 payloads as raw little-endian
//! IEEE-754 bytes — bit-exact by construction, no hex strings, no per-value
//! allocation — plus the chunked-upload and streamed-embed state machines.
//!
//! ## Negotiation
//!
//! Every connection opens with one plain text line each way. The client sends
//! [`hello_line`] (`gem-wire-binary <v>`) before anything else; a server at the same
//! version answers [`accept_line`] (`gem-wire-binary ok <v>`) and both ends switch to
//! frames for the rest of the connection. Any other first line — a hello at another
//! version, a JSON envelope, bytes with no newline in reach — is answered with one
//! uncorrelated typed error line (`version_mismatch` or `protocol_error`), and the
//! server closes the connection. The version in the hello is [`PROTOCOL_VERSION`]:
//! codec framing and envelope semantics version together.
//!
//! ## Frame layout
//!
//! ```text
//! [u32 len (LE)] [u8 kind] [payload — len-1 bytes]
//! payload := [u8 has_id] [u64 id (LE)] [kind-specific fields]
//! ```
//!
//! `len` counts the kind byte plus the payload and is bounded by [`MAX_FRAME_LEN`];
//! an oversized length is a framing error (the stream cannot be resynchronized, so
//! the connection closes after a typed error). The 9-byte correlation header sits at
//! a fixed offset in **every** kind, so a router — or an error path — can read the id
//! ([`Frame::correlation_id`]) without decoding the payload. Errors *inside* a
//! well-framed payload (truncated field, bad counts) are recoverable: the connection
//! survives and the error response correlates via the header id.
//!
//! Scalar encodings are little-endian throughout: strings are `u32` length + UTF-8
//! bytes; f64 runs are a count followed by raw `f64::to_le_bytes` values.
//!
//! ## Kinds
//!
//! Binary layouts exist only for the f64-heavy shapes (`Fit`, `FitUpdate`, `Embed`,
//! the chunked-fit sequence, and streamed embed rows). Every other request and
//! response rides a [`KIND_REQ_JSON`] / [`KIND_RESP_JSON`] frame wrapping the compact
//! JSON envelope text — those payloads are small and already bit-exact via
//! `gem_json::bits`, so a second layout would add surface without speed.
//!
//! ## Chunked corpus upload
//!
//! A `Fit` or `FitUpdate` too large for one frame streams as `BeginFit`,
//! `CorpusChunk`*, `EndFit` — all carrying the same id. The listening side
//! ([`ChunkAssembler`]) reassembles the envelope, which is then keyed like a one-frame
//! request: the handle is computed from the reassembled corpus, so it equals the
//! client's own offline `ModelKey` whatever the chunk boundaries were.
//!
//! ## Streamed embed responses
//!
//! An `Embed` answer streams as [`KIND_EMBED_ROWS`] frames of up to
//! [`EMBED_ROWS_PER_FRAME`] rows ([`embed_rows_per_frame`] at the matrix's width; the
//! server transforms one frame's rows per batch) closed by one [`KIND_EMBED_DONE`]
//! carrying the expected totals. The client side ([`EmbedPartials`] +
//! [`decode_response_frame`]) accumulates rows per id and synthesizes the final
//! `Embedded` body when the totals check out.

use crate::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, RequestBody,
    RequestEnvelope, ResponseBody, ResponseEnvelope, PROTOCOL_VERSION,
};
use gem_core::{Composition, FeatureSet, GemColumn, GemConfig};
use gem_json::{FromJson, Json, ToJson};
use gem_numeric::Matrix;
use std::collections::HashMap;

/// Upper bound on one frame's `len` field (kind byte + payload). Fits any sane
/// single-frame request; corpora larger than this stream as chunked uploads.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Upper bound on what one connection's open chunked uploads may hold in memory
/// together before their `EndFit`s — the assembler refuses to buffer more, so no peer
/// can grow server memory without bound by opening uploads or by sending many small
/// columns.
pub const MAX_CHUNKED_CORPUS_BYTES: u64 = 1024 * 1024 * 1024;

/// Default client-side threshold: a `Fit`/`FitUpdate` whose corpus payload would
/// exceed this many bytes is sent as a chunked upload instead of one frame.
pub const DEFAULT_CHUNK_BYTES: usize = 1024 * 1024;

/// First token of the negotiation hello and accept lines.
pub const HELLO_PREFIX: &str = "gem-wire-binary";

/// A request wrapped as compact JSON envelope text (any shape without a binary layout).
pub const KIND_REQ_JSON: u8 = 0x01;
/// A response wrapped as compact JSON envelope text.
pub const KIND_RESP_JSON: u8 = 0x02;
/// A one-frame `Fit` request with a binary corpus payload.
pub const KIND_FIT: u8 = 0x10;
/// A one-frame `FitUpdate` request with a binary corpus payload.
pub const KIND_FIT_UPDATE: u8 = 0x11;
/// An `Embed` request with binary query columns.
pub const KIND_EMBED: u8 = 0x12;
/// Opens a chunked `Fit`/`FitUpdate`: mode, total column count, configuration.
pub const KIND_BEGIN_FIT: u8 = 0x20;
/// One slice of a chunked upload's corpus columns.
pub const KIND_CORPUS_CHUNK: u8 = 0x21;
/// Closes a chunked upload; the assembled request is then executed.
pub const KIND_END_FIT: u8 = 0x22;
/// A slice of streamed embed-result rows.
pub const KIND_EMBED_ROWS: u8 = 0x30;
/// Closes a streamed embed response, carrying the expected totals.
pub const KIND_EMBED_DONE: u8 = 0x31;

/// The client's codec-negotiation line (newline-terminated): sent as the first line
/// of a connection, before any envelope.
pub fn hello_line() -> String {
    format!("{HELLO_PREFIX} {PROTOCOL_VERSION}\n")
}

/// Parse a [`hello_line`], returning the version it carries. `None` when the line is
/// not a hello at all.
pub fn parse_hello(line: &str) -> Option<u64> {
    let rest = line
        .trim_end_matches(['\r', '\n'])
        .strip_prefix(HELLO_PREFIX)?;
    rest.strip_prefix(' ')?.parse().ok()
}

/// The server's acceptance line (newline-terminated): everything after it is frames.
pub fn accept_line() -> String {
    format!("{HELLO_PREFIX} ok {PROTOCOL_VERSION}\n")
}

/// Parse an [`accept_line`], returning the version. `None` for anything else (the
/// client then decodes the line as the server's typed error).
pub fn parse_accept(line: &str) -> Option<u64> {
    let rest = line
        .trim_end_matches(['\r', '\n'])
        .strip_prefix(HELLO_PREFIX)?;
    rest.strip_prefix(" ok ")?.parse().ok()
}

fn parse_err(message: impl Into<String>) -> ProtoError {
    ProtoError::Parse {
        message: message.into(),
    }
}

fn short(what: &str) -> ProtoError {
    parse_err(format!("binary frame truncated while reading {what}"))
}

/// One frame read off the wire: the kind byte and the raw payload (correlation
/// header included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The kind byte (one of the `KIND_*` constants; unknown values are decode
    /// errors, never panics).
    pub kind: u8,
    /// The payload — `len - 1` bytes, starting with the 9-byte correlation header.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The correlation id from the fixed-offset payload header, without decoding the
    /// rest. `None` when the header says the frame is uncorrelated or the payload is
    /// too short to carry one.
    pub fn correlation_id(&self) -> Option<u64> {
        if self.payload.first().copied() != Some(1) {
            return None;
        }
        let bytes: [u8; 8] = self.payload.get(1..9)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

/// The most one read asks for while no frame is in progress, so an idle connection's
/// buffer stays this small.
const IDLE_READ: usize = 8 << 10;

/// The most one read asks for while a frame is in progress, so a peer that announces a
/// large frame and stalls costs at most this much beyond the bytes it sent.
const FRAME_READ: usize = 256 << 10;

/// Incremental frame splitter: push raw socket bytes in (or read them straight into
/// [`FrameAssembler::room`]), pop complete [`Frame`]s out. Pure bytes — no I/O — so both
/// ends (and the router) share one implementation, and a read-timeout tick mid-frame
/// loses nothing. Popping a frame copies its payload out once and moves an offset; the
/// consumed bytes are compacted away only when more bytes come in.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// `start..end` is read but not consumed; `end..` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Absorb bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Room for the next read, in the buffer itself: 8 KiB while no frame is in
    /// progress, otherwise the frame's missing bytes and 8 KiB more, at most 256 KiB.
    /// The 8 KiB past a frame's end take in what follows it, and make a read that
    /// emptied the socket come back short of the room. Write what arrives at its front,
    /// then report the count to [`FrameAssembler::filled`].
    pub fn room(&mut self) -> &mut [u8] {
        self.compact();
        let wanted = self.end.saturating_add(self.read_size());
        if self.buf.len() < wanted {
            self.buf.reserve_exact(wanted - self.buf.len());
            self.buf.resize(wanted, 0);
        }
        self.buf.get_mut(self.end..wanted).unwrap_or_default()
    }

    /// Take in `count` bytes that a read wrote at the front of [`FrameAssembler::room`].
    pub fn filled(&mut self, count: usize) {
        self.end = self.end.saturating_add(count).min(self.buf.len());
    }

    /// Bytes buffered but not yet formed into a frame.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// With nothing buffered, shrink the buffer back to one idle read (8 KiB), giving
    /// back the room a large frame grew. A listener calls this when a read times out, so
    /// an idle connection stops holding its largest frame's buffer.
    pub fn shrink_to_idle(&mut self) {
        if self.start == self.end && self.buf.capacity() > IDLE_READ {
            self.buf.clear();
            self.buf.shrink_to(IDLE_READ);
            (self.start, self.end) = (0, 0);
        }
    }

    /// Pop the text line in front of the frames — a connection's handshake — through
    /// its newline, or its first `cap` bytes when no newline comes within them. `None`
    /// while neither is buffered.
    pub fn next_line(&mut self, cap: usize) -> Option<Vec<u8>> {
        let unread = self.buf.get(self.start..self.end)?;
        let take = match unread.iter().take(cap).position(|&b| b == b'\n') {
            Some(at) => at + 1,
            None if unread.len() >= cap => cap,
            None => return None,
        };
        let line = unread.get(..take)?.to_vec();
        self.start += take;
        Some(line)
    }

    /// Pop the next complete frame, if one is buffered.
    ///
    /// # Errors
    /// [`ProtoError::Parse`] for a zero or oversized `len` header — the stream cannot
    /// be resynchronized past it, so the caller should answer a typed error and close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let unread = self.buf.get(self.start..self.end).unwrap_or_default();
        let Some(head) = unread.get(0..4) else {
            return Ok(None);
        };
        let len_bytes: [u8; 4] = head.try_into().map_err(|_| short("frame length"))?;
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 {
            return Err(parse_err("zero-length binary frame"));
        }
        if len > MAX_FRAME_LEN {
            return Err(parse_err(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            )));
        }
        let total = 4usize.saturating_add(len as usize);
        let Some(frame) = unread.get(..total) else {
            return Ok(None);
        };
        let kind = frame.get(4).copied().ok_or_else(|| short("frame kind"))?;
        let payload = frame.get(FRAME_HEAD..).unwrap_or_default().to_vec();
        self.start += total;
        Ok(Some(Frame { kind, payload }))
    }

    /// How many bytes the next read asks for (see [`FrameAssembler::room`]). A frame is
    /// in progress once a length prefix within the frame bound is buffered and the
    /// frame's bytes are not all there.
    fn read_size(&self) -> usize {
        let unread = self.buf.get(self.start..self.end).unwrap_or_default();
        let len = unread
            .get(0..4)
            .and_then(|head| head.try_into().ok())
            .map(u32::from_le_bytes)
            .filter(|len| (1..=MAX_FRAME_LEN).contains(len));
        match len.map(|len| 4 + len as usize) {
            Some(total) if total > unread.len() => {
                (total - unread.len() + IDLE_READ).min(FRAME_READ)
            }
            _ => IDLE_READ,
        }
    }

    /// Move the unconsumed bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

// --- encoding primitives ----------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), ProtoError> {
    let len = u32::try_from(s.len()).map_err(|_| parse_err("string exceeds the u32 bound"))?;
    put_u32(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Raw f64 run: count, then each value's IEEE-754 bytes — no per-value allocation
/// and bit-exact by construction (`f64::to_le_bytes` is the bit pattern).
fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) -> Result<(), ProtoError> {
    let len = u32::try_from(values.len()).map_err(|_| parse_err("f64 run exceeds u32"))?;
    put_u32(buf, len);
    buf.reserve(values.len().saturating_mul(8));
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

fn put_column(buf: &mut Vec<u8>, column: &GemColumn) -> Result<(), ProtoError> {
    put_str(buf, &column.header)?;
    put_f64s(buf, &column.values)
}

fn put_columns(buf: &mut Vec<u8>, columns: &[GemColumn]) -> Result<(), ProtoError> {
    let len = u32::try_from(columns.len()).map_err(|_| parse_err("column count exceeds u32"))?;
    put_u32(buf, len);
    for column in columns {
        put_column(buf, column)?;
    }
    Ok(())
}

fn put_header(buf: &mut Vec<u8>, id: Option<u64>) {
    match id {
        Some(id) => {
            buf.push(1);
            put_u64(buf, id);
        }
        None => {
            buf.push(0);
            put_u64(buf, 0);
        }
    }
}

/// The bytes in front of a frame's payload: the `u32` length prefix and the kind.
const FRAME_HEAD: usize = 5;

/// The length prefix of a frame whose payload is `payload_len` bytes long.
fn frame_len(payload_len: usize) -> Result<u32, ProtoError> {
    u32::try_from(payload_len.saturating_add(1))
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            parse_err(format!(
                "frame payload of {payload_len} bytes exceeds the {MAX_FRAME_LEN}-byte bound"
            ))
        })
}

/// Assemble a complete wire frame (`len` prefix, kind, payload) from a payload the
/// caller built. Public so tests can craft malformed payloads inside valid framing.
///
/// # Errors
/// [`ProtoError::Parse`] when the payload would exceed [`MAX_FRAME_LEN`].
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(FRAME_HEAD));
    push_frame(&mut out, kind, payload)?;
    Ok(out)
}

/// Append a complete wire frame (`len` prefix, kind, payload) to `out` — how a relay
/// gathers several frames into one write.
///
/// # Errors
/// [`ProtoError::Parse`] when the payload would exceed [`MAX_FRAME_LEN`].
pub fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> Result<(), ProtoError> {
    put_u32(out, frame_len(payload.len())?);
    out.push(kind);
    out.extend_from_slice(payload);
    Ok(())
}

/// A frame under construction: its payload is written straight after room for the
/// head, which [`InPlaceFrame::finish`] fills in, so the finished frame is never
/// copied.
struct InPlaceFrame {
    bytes: Vec<u8>,
}

impl InPlaceFrame {
    /// Start a frame whose payload will be about `payload_hint` bytes long.
    fn new(payload_hint: usize) -> Self {
        let mut bytes = Vec::with_capacity(payload_hint.saturating_add(FRAME_HEAD));
        bytes.extend_from_slice(&[0; FRAME_HEAD]);
        InPlaceFrame { bytes }
    }

    /// The buffer the payload is appended to, behind the room left for the head.
    fn payload(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Write the head — the length prefix and `kind` — in front of the payload.
    fn finish(mut self, kind: u8) -> Result<Vec<u8>, ProtoError> {
        let len = frame_len(self.bytes.len().saturating_sub(FRAME_HEAD))?;
        if let Some(head) = self.bytes.get_mut(..FRAME_HEAD) {
            let [a, b, c, d] = len.to_le_bytes();
            head.copy_from_slice(&[a, b, c, d, kind]);
        }
        Ok(self.bytes)
    }
}

// --- decoding primitives ----------------------------------------------------------

struct Cur<'a> {
    rest: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Cur { rest: payload }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        if self.rest.len() < n {
            return Err(short(what));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or_else(|| short(what))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        let bytes: [u8; 4] = self.take(4, what)?.try_into().map_err(|_| short(what))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let bytes: [u8; 8] = self.take(8, what)?.try_into().map_err(|_| short(what))?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn str(&mut self, what: &str) -> Result<String, ProtoError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| parse_err(format!("{what} is not valid UTF-8")))
    }

    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, ProtoError> {
        let count = self.u32(what)? as usize;
        let bytes = self.take(count.saturating_mul(8), what)?;
        let mut values = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(8) {
            let raw: [u8; 8] = chunk.try_into().map_err(|_| short(what))?;
            values.push(f64::from_le_bytes(raw));
        }
        Ok(values)
    }

    fn column(&mut self) -> Result<GemColumn, ProtoError> {
        let header = self.str("column header")?;
        let values = self.f64s("column values")?;
        Ok(GemColumn::new(values, header))
    }

    fn columns(&mut self) -> Result<Vec<GemColumn>, ProtoError> {
        let count = self.u32("column count")? as usize;
        let mut columns = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            columns.push(self.column()?);
        }
        Ok(columns)
    }

    /// The 9-byte correlation header; errors when the frame is uncorrelated but the
    /// kind requires an id (every request kind does).
    fn request_id(&mut self) -> Result<u64, ProtoError> {
        let has_id = self.u8("correlation header")?;
        let id = self.u64("correlation id")?;
        if has_id == 1 {
            Ok(id)
        } else {
            Err(parse_err("request frames must carry a correlation id"))
        }
    }

    fn remainder_str(&mut self, what: &str) -> Result<&'a str, ProtoError> {
        let rest = std::mem::take(&mut self.rest);
        std::str::from_utf8(rest).map_err(|_| parse_err(format!("{what} is not valid UTF-8")))
    }

    fn expect_end(&self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(parse_err(format!(
                "{} trailing bytes after the frame payload",
                self.rest.len()
            )))
        }
    }
}

fn json_field<T: FromJson>(text: &str, what: &str) -> Result<T, ProtoError> {
    let value = Json::parse(text).map_err(|e| parse_err(format!("bad {what}: {e}")))?;
    T::from_json(&value).map_err(|e| parse_err(format!("bad {what}: {e}")))
}

// --- request frames ---------------------------------------------------------------

/// Approximate wire size of a corpus payload, used to decide one frame vs chunked.
pub fn corpus_wire_bytes(columns: &[GemColumn]) -> usize {
    columns.iter().fold(4usize, |acc, c| {
        acc.saturating_add(8)
            .saturating_add(c.header.len())
            .saturating_add(c.values.len().saturating_mul(8))
    })
}

fn fit_config_fields(
    buf: &mut Vec<u8>,
    config: &GemConfig,
    features: FeatureSet,
    composition: &Option<Composition>,
) -> Result<(), ProtoError> {
    put_str(buf, &config.to_json().to_compact_string())?;
    put_str(buf, &features.to_json().to_compact_string())?;
    match composition {
        Some(c) => {
            buf.push(1);
            put_str(buf, &c.to_json().to_compact_string())?;
        }
        None => buf.push(0),
    }
    Ok(())
}

fn read_fit_config_fields(
    cur: &mut Cur<'_>,
) -> Result<(GemConfig, FeatureSet, Option<Composition>), ProtoError> {
    let config: GemConfig = json_field(&cur.str("fit config")?, "fit config")?;
    let features: FeatureSet = json_field(&cur.str("fit features")?, "fit features")?;
    let composition = match cur.u8("composition flag")? {
        0 => None,
        1 => Some(json_field(&cur.str("fit composition")?, "fit composition")?),
        other => {
            return Err(parse_err(format!("bad composition flag {other}")));
        }
    };
    Ok((config, features, composition))
}

/// Encode one request envelope as a single binary frame: a dedicated layout for the
/// f64-heavy shapes (`Fit`, `FitUpdate`, `Embed`), a [`KIND_REQ_JSON`] wrap for
/// everything else. Use [`encode_request_frames`] to get chunking for large corpora.
///
/// # Errors
/// [`ProtoError::Parse`] when a field exceeds the format's bounds (e.g. the frame
/// would exceed [`MAX_FRAME_LEN`] — stream such corpora as chunks instead).
pub fn encode_request_frame(envelope: &RequestEnvelope) -> Result<Vec<u8>, ProtoError> {
    let id = envelope.id;
    match &envelope.body {
        RequestBody::Fit {
            corpus,
            config,
            features,
            composition,
        } => {
            let mut frame = request_frame(id, corpus_wire_bytes(corpus));
            fit_config_fields(frame.payload(), config, *features, composition)?;
            put_columns(frame.payload(), corpus)?;
            frame.finish(KIND_FIT)
        }
        RequestBody::FitUpdate { handle, corpus } => {
            let mut frame = request_frame(id, corpus_wire_bytes(corpus));
            put_str(frame.payload(), handle)?;
            put_columns(frame.payload(), corpus)?;
            frame.finish(KIND_FIT_UPDATE)
        }
        RequestBody::Embed { handle, queries } => encode_embed_frame(id, handle, queries),
        _ => {
            let line = encode_request(envelope);
            let line = line.trim_end_matches('\n');
            let mut frame = request_frame(id, line.len());
            frame.payload().extend_from_slice(line.as_bytes());
            frame.finish(KIND_REQ_JSON)
        }
    }
}

/// A request frame under construction, its correlation header already written.
fn request_frame(id: u64, payload_hint: usize) -> InPlaceFrame {
    let mut frame = InPlaceFrame::new(payload_hint.saturating_add(64));
    put_header(frame.payload(), Some(id));
    frame
}

/// Encode an `Embed` request for `id` straight from borrowed query columns — the same
/// bytes [`encode_request_frame`] produces for the owned envelope, without first
/// copying the columns into one.
///
/// # Errors
/// See [`encode_request_frame`].
pub fn encode_embed_frame(
    id: u64,
    handle: &str,
    queries: &[GemColumn],
) -> Result<Vec<u8>, ProtoError> {
    let mut frame = request_frame(id, corpus_wire_bytes(queries).saturating_add(handle.len()));
    put_str(frame.payload(), handle)?;
    put_columns(frame.payload(), queries)?;
    frame.finish(KIND_EMBED)
}

/// Encode a request as one or more frames: a `Fit`/`FitUpdate` whose corpus payload
/// exceeds `chunk_bytes` becomes a `BeginFit` / `CorpusChunk`* / `EndFit` sequence
/// (each chunk packed greedily up to `chunk_bytes`); everything else is one frame.
///
/// # Errors
/// See [`encode_request_frame`].
pub fn encode_request_frames(
    envelope: &RequestEnvelope,
    chunk_bytes: usize,
) -> Result<Vec<Vec<u8>>, ProtoError> {
    let chunk_bytes = chunk_bytes.max(1024);
    let (corpus, begin_payload) = match &envelope.body {
        RequestBody::Fit {
            corpus,
            config,
            features,
            composition,
        } if corpus_wire_bytes(corpus) > chunk_bytes => {
            let mut begin = Vec::new();
            put_header(&mut begin, Some(envelope.id));
            begin.push(0); // mode 0: fit
            put_u32(
                &mut begin,
                u32::try_from(corpus.len()).map_err(|_| parse_err("corpus exceeds u32"))?,
            );
            fit_config_fields(&mut begin, config, *features, composition)?;
            (corpus, begin)
        }
        RequestBody::FitUpdate { handle, corpus } if corpus_wire_bytes(corpus) > chunk_bytes => {
            let mut begin = Vec::new();
            put_header(&mut begin, Some(envelope.id));
            begin.push(1); // mode 1: fit_update
            put_u32(
                &mut begin,
                u32::try_from(corpus.len()).map_err(|_| parse_err("corpus exceeds u32"))?,
            );
            put_str(&mut begin, handle)?;
            (corpus, begin)
        }
        _ => return Ok(vec![encode_request_frame(envelope)?]),
    };
    let mut frames = vec![frame_bytes(KIND_BEGIN_FIT, &begin_payload)?];
    let mut slice: Vec<GemColumn> = Vec::new();
    let mut slice_bytes = 0usize;
    let flush = |slice: &mut Vec<GemColumn>, frames: &mut Vec<Vec<u8>>| -> Result<(), ProtoError> {
        if slice.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::new();
        put_header(&mut payload, Some(envelope.id));
        put_columns(&mut payload, slice)?;
        frames.push(frame_bytes(KIND_CORPUS_CHUNK, &payload)?);
        slice.clear();
        Ok(())
    };
    for column in corpus {
        let bytes = corpus_wire_bytes(std::slice::from_ref(column));
        if !slice.is_empty() && slice_bytes.saturating_add(bytes) > chunk_bytes {
            flush(&mut slice, &mut frames)?;
            slice_bytes = 0;
        }
        slice.push(column.clone());
        slice_bytes = slice_bytes.saturating_add(bytes);
    }
    flush(&mut slice, &mut frames)?;
    let mut end = Vec::new();
    put_header(&mut end, Some(envelope.id));
    frames.push(frame_bytes(KIND_END_FIT, &end)?);
    Ok(frames)
}

/// Decode a single request frame. Chunk-sequence kinds are rejected here — feed them
/// to a [`ChunkAssembler`] instead — and response kinds are never requests.
///
/// # Errors
/// [`ProtoError::Parse`] for unknown kinds, truncated payloads, bad counts or
/// non-UTF-8 strings; [`ProtoError::VersionMismatch`] from a wrapped JSON envelope.
pub fn decode_request_frame(frame: &Frame) -> Result<RequestEnvelope, ProtoError> {
    let mut cur = Cur::new(&frame.payload);
    match frame.kind {
        KIND_REQ_JSON => {
            let _ = cur.request_id()?;
            decode_request(cur.remainder_str("wrapped request line")?)
        }
        KIND_FIT => {
            let id = cur.request_id()?;
            let (config, features, composition) = read_fit_config_fields(&mut cur)?;
            let corpus = cur.columns()?;
            cur.expect_end()?;
            Ok(RequestEnvelope {
                id,
                version: PROTOCOL_VERSION,
                body: RequestBody::Fit {
                    corpus,
                    config,
                    features,
                    composition,
                },
            })
        }
        KIND_FIT_UPDATE => {
            let id = cur.request_id()?;
            let handle = cur.str("fit_update handle")?;
            let corpus = cur.columns()?;
            cur.expect_end()?;
            Ok(RequestEnvelope {
                id,
                version: PROTOCOL_VERSION,
                body: RequestBody::FitUpdate { handle, corpus },
            })
        }
        KIND_EMBED => {
            let id = cur.request_id()?;
            let handle = cur.str("embed handle")?;
            let queries = cur.columns()?;
            cur.expect_end()?;
            Ok(RequestEnvelope {
                id,
                version: PROTOCOL_VERSION,
                body: RequestBody::Embed { handle, queries },
            })
        }
        KIND_BEGIN_FIT | KIND_CORPUS_CHUNK | KIND_END_FIT => Err(parse_err(
            "chunked-fit frames must go through the chunk assembler",
        )),
        other => Err(parse_err(format!(
            "unknown request frame kind {other:#04x}"
        ))),
    }
}

// --- chunked upload assembly ------------------------------------------------------

#[derive(Debug)]
enum FitMode {
    Fit {
        config: GemConfig,
        features: FeatureSet,
        composition: Option<Composition>,
    },
    Update {
        handle: String,
    },
}

#[derive(Debug)]
struct FitAssembly {
    mode: FitMode,
    total_columns: u64,
    columns: Vec<GemColumn>,
    /// What `columns` holds in memory ([`columns_in_memory`]).
    bytes: u64,
}

/// Server-side state machine reassembling chunked `Fit`/`FitUpdate` uploads, keyed by
/// correlation id so several uploads can interleave on one pipelined connection. Its
/// open uploads together hold at most [`MAX_CHUNKED_CORPUS_BYTES`] of columns in
/// memory. Any protocol violation, the chunk that would cross that bound included,
/// drops that id's partial state and surfaces a typed error — the connection (and
/// other in-flight uploads) survive.
#[derive(Debug)]
pub struct ChunkAssembler {
    active: HashMap<u64, FitAssembly>,
    /// The sum of the open uploads' `bytes`.
    held: u64,
    /// The bound on `held`: [`MAX_CHUNKED_CORPUS_BYTES`].
    limit: u64,
}

impl Default for ChunkAssembler {
    fn default() -> Self {
        ChunkAssembler {
            active: HashMap::new(),
            held: 0,
            limit: MAX_CHUNKED_CORPUS_BYTES,
        }
    }
}

impl ChunkAssembler {
    /// An assembler with no uploads in progress.
    pub fn new() -> Self {
        ChunkAssembler::default()
    }

    /// Whether `kind` belongs to the chunked-upload sequence.
    pub fn is_chunk_kind(kind: u8) -> bool {
        matches!(kind, KIND_BEGIN_FIT | KIND_CORPUS_CHUNK | KIND_END_FIT)
    }

    /// Uploads currently buffering.
    pub fn in_progress(&self) -> usize {
        self.active.len()
    }

    /// Close the upload `id`, releasing what it held.
    fn remove(&mut self, id: u64) -> Option<FitAssembly> {
        let assembly = self.active.remove(&id)?;
        self.held = self.held.saturating_sub(assembly.bytes);
        Some(assembly)
    }

    /// Accept one chunk-sequence frame. Returns the assembled request envelope when
    /// the frame was the sequence's `EndFit`, `None` while the upload is still open.
    ///
    /// # Errors
    /// [`ProtoError::Parse`] for out-of-sequence frames, count or byte-budget
    /// violations, and payloads that fail to decode; the offending id's partial state
    /// is dropped before returning.
    pub fn accept(&mut self, frame: &Frame) -> Result<Option<RequestEnvelope>, ProtoError> {
        let mut cur = Cur::new(&frame.payload);
        let id = cur.request_id()?;
        let step = || -> Result<Option<RequestEnvelope>, ProtoError> {
            match frame.kind {
                KIND_BEGIN_FIT => {
                    if self.active.contains_key(&id) {
                        return Err(parse_err(format!(
                            "begin_fit for id {id}, which already has an upload open"
                        )));
                    }
                    let mode_byte = cur.u8("fit mode")?;
                    let total_columns = u64::from(cur.u32("total column count")?);
                    let mode = match mode_byte {
                        0 => {
                            let (config, features, composition) = read_fit_config_fields(&mut cur)?;
                            FitMode::Fit {
                                config,
                                features,
                                composition,
                            }
                        }
                        1 => FitMode::Update {
                            handle: cur.str("fit_update handle")?,
                        },
                        other => {
                            return Err(parse_err(format!("unknown fit mode {other}")));
                        }
                    };
                    cur.expect_end()?;
                    self.active.insert(
                        id,
                        FitAssembly {
                            mode,
                            total_columns,
                            columns: Vec::new(),
                            bytes: 0,
                        },
                    );
                    Ok(None)
                }
                KIND_CORPUS_CHUNK => {
                    let columns = cur.columns()?;
                    cur.expect_end()?;
                    let assembly = self.active.get_mut(&id).ok_or_else(|| {
                        parse_err(format!("corpus_chunk for id {id} without a begin_fit"))
                    })?;
                    let received = assembly.columns.len().saturating_add(columns.len()) as u64;
                    if received > assembly.total_columns {
                        return Err(parse_err(format!(
                            "upload {id} delivered {received} columns, more than the \
                             declared {}",
                            assembly.total_columns
                        )));
                    }
                    let bytes = columns_in_memory(&columns);
                    let held = self.held.saturating_add(bytes);
                    if held > self.limit {
                        return Err(parse_err(format!(
                            "upload {id} would bring this connection's open uploads to \
                             {held} bytes in memory, over the {}-byte bound",
                            self.limit
                        )));
                    }
                    self.held = held;
                    assembly.bytes = assembly.bytes.saturating_add(bytes);
                    assembly.columns.extend(columns);
                    Ok(None)
                }
                KIND_END_FIT => {
                    cur.expect_end()?;
                    let assembly = self.remove(id).ok_or_else(|| {
                        parse_err(format!("end_fit for id {id} without a begin_fit"))
                    })?;
                    let received = assembly.columns.len() as u64;
                    if received != assembly.total_columns {
                        return Err(parse_err(format!(
                            "upload {id} closed with {received} of the declared {} columns",
                            assembly.total_columns
                        )));
                    }
                    let body = match assembly.mode {
                        FitMode::Fit {
                            config,
                            features,
                            composition,
                        } => RequestBody::Fit {
                            corpus: assembly.columns,
                            config,
                            features,
                            composition,
                        },
                        FitMode::Update { handle } => RequestBody::FitUpdate {
                            handle,
                            corpus: assembly.columns,
                        },
                    };
                    Ok(Some(RequestEnvelope {
                        id,
                        version: PROTOCOL_VERSION,
                        body,
                    }))
                }
                other => Err(parse_err(format!(
                    "frame kind {other:#04x} is not part of a chunked upload"
                ))),
            }
        };
        let mut run = step;
        let result = run();
        if result.is_err() {
            self.remove(id);
        }
        result
    }
}

/// What decoded columns hold in memory: each `GemColumn` itself, plus its header's and
/// its values' bytes. An empty column costs the struct, not the 8 bytes it took on the
/// wire.
fn columns_in_memory(columns: &[GemColumn]) -> u64 {
    columns.iter().fold(0u64, |acc, c| {
        let bytes = std::mem::size_of::<GemColumn>()
            .saturating_add(c.header.len())
            .saturating_add(c.values.len().saturating_mul(8));
        acc.saturating_add(bytes as u64)
    })
}

// --- response frames --------------------------------------------------------------

/// Encode a streamed slice of embed-result rows (row-major, `rows.len()` must be a
/// multiple of `cols`). The server flushes one of these per completed batch.
///
/// # Errors
/// [`ProtoError::Parse`] when the row data does not tile into `cols` columns or the
/// frame would exceed [`MAX_FRAME_LEN`].
pub fn embed_rows_frame(
    id: u64,
    served_from: &str,
    cols: usize,
    rows: &[f64],
) -> Result<Vec<u8>, ProtoError> {
    let nrows = match cols {
        0 if rows.is_empty() => 0,
        0 => return Err(parse_err("embed rows with zero columns but data")),
        cols if !rows.len().is_multiple_of(cols) => {
            return Err(parse_err("embed row data does not tile into whole rows"));
        }
        cols => rows.len() / cols,
    };
    // The slack leaves room for an `embed_done` frame appended behind this one.
    let mut frame = InPlaceFrame::new(rows.len().saturating_mul(8).saturating_add(128));
    let payload = frame.payload();
    put_header(payload, Some(id));
    put_str(payload, served_from)?;
    put_u32(
        payload,
        u32::try_from(cols).map_err(|_| parse_err("embed cols exceed u32"))?,
    );
    put_u32(
        payload,
        u32::try_from(nrows).map_err(|_| parse_err("embed rows exceed u32"))?,
    );
    for v in rows {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    frame.finish(KIND_EMBED_ROWS)
}

/// Encode the closing frame of a streamed embed response, carrying the totals the
/// accumulated rows must match.
///
/// # Errors
/// [`ProtoError::Parse`] when a field exceeds the format's bounds.
pub fn embed_done_frame(
    id: u64,
    served_from: &str,
    cols: usize,
    total_rows: usize,
) -> Result<Vec<u8>, ProtoError> {
    let mut frame = InPlaceFrame::new(64);
    let payload = frame.payload();
    put_header(payload, Some(id));
    put_str(payload, served_from)?;
    put_u32(
        payload,
        u32::try_from(cols).map_err(|_| parse_err("embed cols exceed u32"))?,
    );
    put_u64(
        payload,
        u64::try_from(total_rows).map_err(|_| parse_err("embed rows exceed u64"))?,
    );
    frame.finish(KIND_EMBED_DONE)
}

/// The most result rows one [`KIND_EMBED_ROWS`] frame carries, however narrow; a
/// larger matrix travels as several frames.
pub const EMBED_ROWS_PER_FRAME: usize = 512;

/// Room an `embed_rows` frame keeps beside its row data: the kind byte, the correlation
/// header, the two counts and a `served_from` tag of up to 1 KiB.
const EMBED_ROWS_FRAME_FIELDS: usize = 1024 + 1 + 9 + 4 + 4 + 4;

/// How many `cols`-wide result rows one [`KIND_EMBED_ROWS`] frame carries:
/// [`EMBED_ROWS_PER_FRAME`], or as many as fit in [`MAX_FRAME_LEN`] when the rows are
/// wider than that allows. Both a streamed embed's batches and
/// [`encode_response_frames`] slice by this.
///
/// # Errors
/// [`ProtoError::Parse`] when not even one row fits in a frame: such a matrix cannot be
/// framed at all.
pub fn embed_rows_per_frame(cols: usize) -> Result<usize, ProtoError> {
    let room = MAX_FRAME_LEN as usize - EMBED_ROWS_FRAME_FIELDS;
    let rows = match cols.checked_mul(8) {
        Some(0) => EMBED_ROWS_PER_FRAME,
        Some(row_bytes) => (room / row_bytes).min(EMBED_ROWS_PER_FRAME),
        None => 0,
    };
    if rows == 0 {
        return Err(parse_err(format!(
            "an embed row of {cols} values exceeds the {MAX_FRAME_LEN}-byte frame bound"
        )));
    }
    Ok(rows)
}

/// Wrap a complete JSON response line (trailing newline optional) in a
/// [`KIND_RESP_JSON`] frame.
fn wrap_response_line(id: Option<u64>, line: &str) -> Result<Vec<u8>, ProtoError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let mut frame = InPlaceFrame::new(line.len().saturating_add(9));
    put_header(frame.payload(), id);
    frame.payload().extend_from_slice(line.as_bytes());
    frame.finish(KIND_RESP_JSON)
}

/// Encode one response envelope as wire bytes — possibly several concatenated frames:
/// a correlated `Embedded` body becomes [`KIND_EMBED_ROWS`] frames of
/// [`embed_rows_per_frame`] rows each (none when the matrix has no columns) closed by
/// one [`KIND_EMBED_DONE`], everything else one [`KIND_RESP_JSON`].
///
/// # Errors
/// [`ProtoError::Parse`] when a frame would exceed the format's bounds: a JSON body over
/// [`MAX_FRAME_LEN`], or a matrix row too wide for one frame.
pub fn encode_response_frames(envelope: &ResponseEnvelope) -> Result<Vec<u8>, ProtoError> {
    if let (
        Some(id),
        ResponseBody::Embedded {
            matrix,
            served_from,
        },
    ) = (envelope.in_reply_to, &envelope.body)
    {
        let cols = matrix.cols();
        let mut out = Vec::new();
        if cols > 0 {
            for rows in matrix.as_slice().chunks(embed_rows_per_frame(cols)? * cols) {
                out.extend_from_slice(&embed_rows_frame(id, served_from, cols, rows)?);
            }
        }
        out.extend_from_slice(&embed_done_frame(id, served_from, cols, matrix.rows())?);
        return Ok(out);
    }
    wrap_response_line(envelope.in_reply_to, &encode_response(envelope))
}

/// Client-side accumulation state for streamed embed responses, keyed by correlation
/// id so several streamed embeds can interleave on one pipelined connection.
#[derive(Debug, Default)]
pub struct EmbedPartials {
    active: HashMap<u64, PartialEmbed>,
}

#[derive(Debug)]
struct PartialEmbed {
    cols: usize,
    data: Vec<f64>,
    served_from: String,
}

impl EmbedPartials {
    /// No streams in progress.
    pub fn new() -> Self {
        EmbedPartials::default()
    }

    /// Streamed embeds currently accumulating.
    pub fn in_progress(&self) -> usize {
        self.active.len()
    }
}

/// Decode one response frame against the streamed-embed accumulation state. Returns
/// `Some` when the frame completed a response (a wrapped JSON response, or the
/// `EmbedDone` that closed a row stream), `None` when it was an intermediate
/// `EmbedRows` slice. An error response for a streaming id discards that stream's
/// partial rows.
///
/// # Errors
/// [`ProtoError::Parse`] for unknown kinds, truncated payloads, inconsistent column
/// counts, or totals that do not match the accumulated rows.
pub fn decode_response_frame(
    frame: &Frame,
    partials: &mut EmbedPartials,
) -> Result<Option<ResponseEnvelope>, ProtoError> {
    let mut cur = Cur::new(&frame.payload);
    match frame.kind {
        KIND_RESP_JSON => {
            let _ = cur.u8("correlation header")?;
            let _ = cur.u64("correlation id")?;
            let envelope = decode_response(cur.remainder_str("wrapped response line")?)?;
            if let (Some(id), ResponseBody::Error { .. }) = (envelope.in_reply_to, &envelope.body) {
                // A failure mid-stream abandons the rows already received.
                partials.active.remove(&id);
            }
            Ok(Some(envelope))
        }
        KIND_EMBED_ROWS => {
            let id = cur.request_id()?;
            let served_from = cur.str("embed served_from")?;
            let cols = cur.u32("embed cols")? as usize;
            let nrows = cur.u32("embed row count")? as usize;
            let bytes = cur.take(
                nrows.saturating_mul(cols).saturating_mul(8),
                "embed row data",
            )?;
            cur.expect_end()?;
            let partial = partials.active.entry(id).or_insert_with(|| PartialEmbed {
                cols,
                data: Vec::new(),
                served_from: served_from.clone(),
            });
            if partial.cols != cols {
                partials.active.remove(&id);
                return Err(parse_err(format!(
                    "embed stream {id} changed column count mid-stream"
                )));
            }
            partial.data.reserve(nrows.saturating_mul(cols));
            for chunk in bytes.chunks_exact(8) {
                let raw: [u8; 8] = chunk.try_into().map_err(|_| short("embed row data"))?;
                partial.data.push(f64::from_le_bytes(raw));
            }
            Ok(None)
        }
        KIND_EMBED_DONE => {
            let id = cur.request_id()?;
            let served_from = cur.str("embed served_from")?;
            let cols = cur.u32("embed cols")? as usize;
            let total_rows = cur.u64("embed total rows")? as usize;
            cur.expect_end()?;
            let (data, served_from) = match partials.active.remove(&id) {
                Some(partial) => {
                    if partial.cols != cols {
                        return Err(parse_err(format!(
                            "embed stream {id} closed with a different column count"
                        )));
                    }
                    (partial.data, partial.served_from)
                }
                None => (Vec::new(), served_from),
            };
            if data.len() != total_rows.saturating_mul(cols) {
                return Err(parse_err(format!(
                    "embed stream {id} closed with {} values, expected {total_rows}x{cols}",
                    data.len()
                )));
            }
            let matrix = Matrix::from_vec(total_rows, cols, data)
                .map_err(|e| parse_err(format!("embed stream {id}: {e}")))?;
            Ok(Some(ResponseEnvelope {
                in_reply_to: Some(id),
                version: PROTOCOL_VERSION,
                body: ResponseBody::Embedded {
                    matrix,
                    served_from,
                },
            }))
        }
        other => Err(parse_err(format!(
            "unknown response frame kind {other:#04x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<GemColumn> {
        vec![
            GemColumn::new(
                vec![1.5, -0.0, f64::NAN, f64::from_bits(0x7ff8_0000_dead_beef)],
                "specials",
            ),
            GemColumn::values_only(vec![10.0, 2e-308]),
        ]
    }

    fn bits_of(columns: &[GemColumn]) -> Vec<Vec<u64>> {
        columns
            .iter()
            .map(|c| c.values.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn reassemble(bytes: &[u8]) -> Vec<Frame> {
        let mut assembler = FrameAssembler::new();
        assembler.push(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = assembler.next_frame().unwrap() {
            frames.push(frame);
        }
        assert_eq!(assembler.buffered(), 0);
        frames
    }

    #[test]
    fn hello_and_accept_lines_round_trip() {
        assert_eq!(parse_hello(&hello_line()), Some(PROTOCOL_VERSION));
        assert_eq!(parse_accept(&accept_line()), Some(PROTOCOL_VERSION));
        assert_eq!(parse_hello(&accept_line()), None, "accept is not a hello");
        assert_eq!(parse_accept(&hello_line()), None);
        assert_eq!(parse_hello("{\"id\":1}"), None);
        assert_eq!(parse_hello("gem-wire-binary nope"), None);
    }

    #[test]
    fn fit_embed_and_fit_update_frames_round_trip_bit_exactly() {
        let bodies = vec![
            RequestBody::Fit {
                corpus: columns(),
                config: GemConfig::fast(),
                features: FeatureSet::dsc(),
                composition: Some(Composition::Aggregation),
            },
            RequestBody::Fit {
                corpus: columns(),
                config: GemConfig::fast(),
                features: FeatureSet::ds(),
                composition: None,
            },
            RequestBody::FitUpdate {
                handle: "0000000000000001-0000000000000002".into(),
                corpus: columns(),
            },
            RequestBody::Embed {
                handle: "0000000000000001-0000000000000002".into(),
                queries: columns(),
            },
            RequestBody::Stats,
            RequestBody::Health,
            RequestBody::PullModel {
                handle: "0000000000000001-0000000000000002".into(),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let envelope = RequestEnvelope::new(i as u64 + 1, body);
            let bytes = encode_request_frame(&envelope).unwrap();
            let frames = reassemble(&bytes);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].correlation_id(), Some(envelope.id));
            let back = decode_request_frame(&frames[0]).unwrap();
            assert_eq!(back.id, envelope.id);
            match (&back.body, &envelope.body) {
                (RequestBody::Fit { corpus: a, .. }, RequestBody::Fit { corpus: b, .. })
                | (
                    RequestBody::FitUpdate { corpus: a, .. },
                    RequestBody::FitUpdate { corpus: b, .. },
                )
                | (RequestBody::Embed { queries: a, .. }, RequestBody::Embed { queries: b, .. }) => {
                    assert_eq!(bits_of(a), bits_of(b))
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn borrowed_embed_frames_match_the_owned_envelope_byte_for_byte() {
        let handle = "0000000000000001-0000000000000002";
        let queries = columns();
        let borrowed = encode_embed_frame(9, handle, &queries).unwrap();
        let owned = RequestEnvelope::new(
            9,
            RequestBody::Embed {
                handle: handle.into(),
                queries: queries.clone(),
            },
        );
        assert_eq!(
            encode_request_frames(&owned, DEFAULT_CHUNK_BYTES).unwrap(),
            vec![borrowed.clone()]
        );
        // The head written in place is the one `frame_bytes` puts in front of the
        // payload.
        let payload = &borrowed[FRAME_HEAD..];
        assert_eq!(frame_bytes(KIND_EMBED, payload).unwrap(), borrowed);
        let mut gathered = vec![0xAB];
        push_frame(&mut gathered, KIND_EMBED, payload).unwrap();
        assert_eq!(&gathered[1..], &borrowed[..]);
    }

    #[test]
    fn chunked_uploads_reassemble_into_the_one_shot_envelope() {
        let corpus: Vec<GemColumn> = (0..40)
            .map(|c| {
                GemColumn::new(
                    (0..64).map(|i| (c * 100 + i) as f64 * 0.5).collect(),
                    format!("col_{c}"),
                )
            })
            .collect();
        let envelope = RequestEnvelope::new(
            9,
            RequestBody::Fit {
                corpus: corpus.clone(),
                config: GemConfig::fast(),
                features: FeatureSet::ds(),
                composition: None,
            },
        );
        // A tiny chunk budget forces many chunks.
        let frames = encode_request_frames(&envelope, 2048).unwrap();
        assert!(frames.len() > 3, "expected begin + chunks + end");
        let mut assembler = ChunkAssembler::new();
        let mut assembled = None;
        for bytes in &frames {
            for frame in reassemble(bytes) {
                assert!(ChunkAssembler::is_chunk_kind(frame.kind));
                assert_eq!(frame.correlation_id(), Some(9));
                if let Some(envelope) = assembler.accept(&frame).unwrap() {
                    assembled = Some(envelope);
                }
            }
        }
        assert_eq!(assembler.in_progress(), 0);
        let assembled = assembled.expect("end_fit produced the envelope");
        assert_eq!(assembled.id, 9);
        let RequestBody::Fit {
            corpus: back,
            config,
            features,
            composition,
        } = assembled.body
        else {
            panic!("not a fit");
        };
        assert_eq!(bits_of(&back), bits_of(&corpus));
        assert_eq!(config, GemConfig::fast());
        assert_eq!(features, FeatureSet::ds());
        assert_eq!(composition, None);
        // Small corpora stay single-frame.
        let small = RequestEnvelope::new(1, RequestBody::Stats);
        assert_eq!(encode_request_frames(&small, 2048).unwrap().len(), 1);
    }

    #[test]
    fn chunk_sequence_violations_drop_state_with_typed_errors() {
        let mut assembler = ChunkAssembler::new();
        // A chunk without a begin.
        let mut payload = Vec::new();
        put_header(&mut payload, Some(3));
        put_columns(&mut payload, &columns()).unwrap();
        let orphan = Frame {
            kind: KIND_CORPUS_CHUNK,
            payload,
        };
        let err = assembler.accept(&orphan).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        // A truncated chunk payload: declares three columns, carries one.
        let mut truncated = Vec::new();
        put_header(&mut truncated, Some(4));
        put_u32(&mut truncated, 3);
        put_column(&mut truncated, &GemColumn::values_only(vec![1.0])).unwrap();
        let frame = Frame {
            kind: KIND_CORPUS_CHUNK,
            payload: truncated,
        };
        assert_eq!(
            frame.correlation_id(),
            Some(4),
            "id salvages from the header"
        );
        let err = assembler.accept(&frame).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        // An end that closes short of the declared count.
        let envelope = RequestEnvelope::new(
            5,
            RequestBody::FitUpdate {
                handle: "0000000000000001-0000000000000002".into(),
                corpus: (0..8)
                    .map(|i| GemColumn::values_only(vec![i as f64; 200]))
                    .collect(),
            },
        );
        let frames = encode_request_frames(&envelope, 1500).unwrap();
        assert!(frames.len() > 3);
        let begin = reassemble(&frames[0]).remove(0);
        let end = reassemble(frames.last().unwrap()).remove(0);
        assembler.accept(&begin).unwrap();
        assert_eq!(assembler.in_progress(), 1);
        let err = assembler.accept(&end).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        assert_eq!(
            assembler.in_progress(),
            0,
            "the violation dropped the state"
        );
    }

    #[test]
    fn oversized_and_zero_length_headers_are_framing_errors() {
        let mut assembler = FrameAssembler::new();
        assembler.push(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assembler.push(&[KIND_FIT]);
        let err = assembler.next_frame().unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        assert!(err.to_string().contains("exceeds"), "{err}");
        let mut assembler = FrameAssembler::new();
        assembler.push(&0u32.to_le_bytes());
        assert!(assembler.next_frame().is_err());
        // Partial frames are not errors — they wait for more bytes.
        let mut assembler = FrameAssembler::new();
        let bytes = encode_request_frame(&RequestEnvelope::new(1, RequestBody::Stats)).unwrap();
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        assembler.push(head);
        assert!(assembler.next_frame().unwrap().is_none());
        assembler.push(tail);
        assert!(assembler.next_frame().unwrap().is_some());
    }

    #[test]
    fn embedded_responses_stream_as_rows_and_done() {
        let matrix = Matrix::from_rows(&[
            vec![1.0, -0.0, f64::NAN],
            vec![2.5, 3.5, f64::from_bits(0x7ff8_0000_dead_beef)],
        ])
        .unwrap();
        let envelope = ResponseEnvelope::new(
            12,
            ResponseBody::Embedded {
                matrix: matrix.clone(),
                served_from: "memory_cache".into(),
            },
        );
        let bytes = encode_response_frames(&envelope).unwrap();
        let frames = reassemble(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, KIND_EMBED_ROWS);
        assert_eq!(frames[1].kind, KIND_EMBED_DONE);
        let mut partials = EmbedPartials::new();
        assert!(decode_response_frame(&frames[0], &mut partials)
            .unwrap()
            .is_none());
        assert_eq!(partials.in_progress(), 1);
        let back = decode_response_frame(&frames[1], &mut partials)
            .unwrap()
            .expect("done closes the stream");
        assert_eq!(partials.in_progress(), 0);
        assert_eq!(back.in_reply_to, Some(12));
        let ResponseBody::Embedded {
            matrix: got,
            served_from,
        } = back.body
        else {
            panic!("not embedded");
        };
        assert_eq!(served_from, "memory_cache");
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&matrix));
    }

    #[test]
    fn materialized_matrices_slice_into_512_row_frames() {
        let encode = |rows: usize, cols: usize| {
            let matrix =
                Matrix::from_vec(rows, cols, (0..rows * cols).map(|v| v as f64).collect()).unwrap();
            let envelope = ResponseEnvelope::new(
                4,
                ResponseBody::Embedded {
                    matrix: matrix.clone(),
                    served_from: "cold_fit".into(),
                },
            );
            let frames = reassemble(&encode_response_frames(&envelope).unwrap());
            let mut partials = EmbedPartials::new();
            let back = frames
                .iter()
                .filter_map(|frame| decode_response_frame(frame, &mut partials).unwrap())
                .collect::<Vec<_>>();
            assert_eq!(back, vec![envelope]);
            frames.len()
        };
        assert_eq!(encode(1025, 2), 4, "three row frames and the done");
        assert_eq!(encode(3, 0), 1, "no row frame without columns");
        assert_eq!(encode(0, 5), 1, "no row frame without rows");
    }

    #[test]
    fn rows_per_frame_shrink_to_what_one_frame_holds() {
        assert_eq!(embed_rows_per_frame(0).unwrap(), EMBED_ROWS_PER_FRAME);
        assert_eq!(embed_rows_per_frame(23).unwrap(), EMBED_ROWS_PER_FRAME);
        let fits = |rows: usize, cols: usize| {
            rows * cols * 8 + EMBED_ROWS_FRAME_FIELDS <= MAX_FRAME_LEN as usize
        };
        // A 16,384-dimension header block beside a k = 16 value block: one row fewer.
        let wide = 16_384 + 23;
        assert_eq!(embed_rows_per_frame(wide).unwrap(), 511);
        assert!(fits(511, wide) && !fits(512, wide));
        // The widest row that still fits alone, and the first that does not.
        let widest = (MAX_FRAME_LEN as usize - EMBED_ROWS_FRAME_FIELDS) / 8;
        assert_eq!(embed_rows_per_frame(widest).unwrap(), 1);
        for cols in [widest + 1, usize::MAX] {
            let error = embed_rows_per_frame(cols).unwrap_err();
            assert_eq!(error.code(), "protocol_error");
        }
    }

    #[test]
    fn a_matrix_row_wider_than_one_frame_is_a_typed_encode_error() {
        // Zeroed pages the encoder never touches: the refusal comes before any copy.
        let matrix = Matrix::zeros(1, MAX_FRAME_LEN as usize / 8 + 1);
        let envelope = ResponseEnvelope::new(
            8,
            ResponseBody::Embedded {
                matrix,
                served_from: "memory_cache".into(),
            },
        );
        let error = encode_response_frames(&envelope).unwrap_err();
        assert_eq!(error.code(), "protocol_error");
        assert!(error.to_string().contains("frame bound"), "{error}");
    }

    #[test]
    fn multi_slice_streams_accumulate_and_totals_are_verified() {
        let id = 77;
        let a = embed_rows_frame(id, "cold_fit", 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = embed_rows_frame(id, "cold_fit", 2, &[5.0, 6.0]).unwrap();
        let done_ok = embed_done_frame(id, "cold_fit", 2, 3).unwrap();
        let done_bad = embed_done_frame(id, "cold_fit", 2, 9).unwrap();
        let mut partials = EmbedPartials::new();
        for bytes in [&a, &b] {
            assert!(
                decode_response_frame(&reassemble(bytes).remove(0), &mut partials)
                    .unwrap()
                    .is_none()
            );
        }
        // Wrong totals fail loudly (and clear the stream)...
        let err =
            decode_response_frame(&reassemble(&done_bad).remove(0), &mut partials).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        // ... while matching totals close it.
        let mut partials = EmbedPartials::new();
        for bytes in [&a, &b] {
            let _ = decode_response_frame(&reassemble(bytes).remove(0), &mut partials).unwrap();
        }
        let envelope = decode_response_frame(&reassemble(&done_ok).remove(0), &mut partials)
            .unwrap()
            .unwrap();
        let ResponseBody::Embedded { matrix, .. } = envelope.body else {
            panic!("not embedded");
        };
        assert_eq!(matrix.shape(), (3, 2));
        assert_eq!(matrix.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn error_responses_mid_stream_discard_partial_rows() {
        let id = 5;
        let rows = embed_rows_frame(id, "cold_fit", 2, &[1.0, 2.0]).unwrap();
        let mut partials = EmbedPartials::new();
        let _ = decode_response_frame(&reassemble(&rows).remove(0), &mut partials).unwrap();
        assert_eq!(partials.in_progress(), 1);
        let error = encode_response_frames(&ResponseEnvelope::new(
            id,
            ResponseBody::Error {
                code: "transform_failed".into(),
                message: "batch 2 failed".into(),
                retry_after_ms: None,
            },
        ))
        .unwrap();
        let envelope = decode_response_frame(&reassemble(&error).remove(0), &mut partials)
            .unwrap()
            .expect("errors complete the exchange");
        assert!(matches!(envelope.body, ResponseBody::Error { .. }));
        assert_eq!(partials.in_progress(), 0, "the stream's rows were dropped");
    }

    #[test]
    fn wrapped_json_requests_and_responses_round_trip() {
        let request = RequestEnvelope::new(3, RequestBody::ListModels);
        let frame = reassemble(&encode_request_frame(&request).unwrap()).remove(0);
        assert_eq!(frame.kind, KIND_REQ_JSON);
        assert_eq!(decode_request_frame(&frame).unwrap(), request);
        let response = ResponseEnvelope::new(3, ResponseBody::Evicted { existed: true });
        let bytes = encode_response_frames(&response).unwrap();
        let frame = reassemble(&bytes).remove(0);
        assert_eq!(frame.kind, KIND_RESP_JSON);
        assert_eq!(frame.correlation_id(), Some(3));
        let mut partials = EmbedPartials::new();
        let back = decode_response_frame(&frame, &mut partials)
            .unwrap()
            .unwrap();
        assert_eq!(back, response);
        // Uncorrelated errors keep their null id through the wrap.
        let uncorrelated = ResponseEnvelope::uncorrelated(ResponseBody::Error {
            code: "protocol_error".into(),
            message: "bad frame".into(),
            retry_after_ms: None,
        });
        let frame = reassemble(&encode_response_frames(&uncorrelated).unwrap()).remove(0);
        assert_eq!(frame.correlation_id(), None);
        let back = decode_response_frame(&frame, &mut partials)
            .unwrap()
            .unwrap();
        assert_eq!(back.in_reply_to, None);
    }

    #[test]
    fn truncated_payloads_inside_valid_framing_are_recoverable_errors() {
        // A well-framed FIT whose payload stops mid-column: framing stays intact, so
        // the error is typed and the connection can keep serving other frames.
        let envelope = RequestEnvelope::new(
            21,
            RequestBody::Embed {
                handle: "0000000000000001-0000000000000002".into(),
                queries: columns(),
            },
        );
        let bytes = encode_request_frame(&envelope).unwrap();
        let frame = reassemble(&bytes).remove(0);
        let mut cut = frame.payload.clone();
        cut.truncate(cut.len() - 7);
        let truncated = Frame {
            kind: frame.kind,
            payload: cut,
        };
        assert_eq!(truncated.correlation_id(), Some(21));
        let err = decode_request_frame(&truncated).unwrap_err();
        assert_eq!(err.code(), "protocol_error");
        assert!(err.to_string().contains("truncated"), "{err}");
        // Unknown kinds are typed errors too, never panics.
        let unknown = Frame {
            kind: 0x7f,
            payload: frame.payload.clone(),
        };
        assert!(decode_request_frame(&unknown).is_err());
        let mut partials = EmbedPartials::new();
        assert!(decode_response_frame(&unknown, &mut partials).is_err());
    }

    #[test]
    fn corpus_wire_bytes_tracks_the_encoded_size() {
        let cols = columns();
        let mut payload = Vec::new();
        put_columns(&mut payload, &cols).unwrap();
        assert_eq!(payload.len(), corpus_wire_bytes(&cols));
    }

    /// Feed `stream` through [`FrameAssembler::room`] as reads of the given sizes would,
    /// popping frames between reads; returns the frames.
    fn read_in_steps(stream: &[u8], steps: &[usize]) -> Vec<Frame> {
        let mut assembler = FrameAssembler::new();
        let mut frames = Vec::new();
        let mut sent = 0;
        for &step in steps.iter().cycle() {
            while let Some(frame) = assembler.next_frame().unwrap() {
                frames.push(frame);
            }
            if sent == stream.len() {
                break;
            }
            let room = assembler.room();
            let count = step.min(room.len()).min(stream.len() - sent);
            room[..count].copy_from_slice(&stream[sent..sent + count]);
            assembler.filled(count);
            sent += count;
        }
        assert_eq!(assembler.buffered(), 0);
        frames
    }

    #[test]
    fn frames_read_into_the_buffer_in_any_steps_match_the_pushed_ones() {
        let small = encode_request_frame(&RequestEnvelope::new(1, RequestBody::Stats)).unwrap();
        let wide: Vec<GemColumn> = (0..4)
            .map(|c| GemColumn::values_only(vec![f64::from(c) + 0.5; 20_000]))
            .collect();
        let large = encode_embed_frame(2, "0000000000000001-0000000000000002", &wide).unwrap();
        assert!(large.len() > FRAME_READ, "one frame spans several reads");
        let stream = [&small[..], &large, &small, &small, &large, &small].concat();
        let pushed = reassemble(&stream);
        assert_eq!(pushed.len(), 6);
        for steps in [
            &[1usize][..],
            &[7, 300, 70_000],
            &[usize::MAX],
            &[5, usize::MAX],
        ] {
            assert_eq!(read_in_steps(&stream, steps), pushed, "steps {steps:?}");
        }
    }

    #[test]
    fn reads_take_8_kib_between_frames_and_at_most_256_kib_within_one() {
        let mut assembler = FrameAssembler::new();
        assert_eq!(assembler.room().len(), IDLE_READ);
        // Ten small frames in one read leave an idle connection's buffer as it was.
        let small = encode_request_frame(&RequestEnvelope::new(1, RequestBody::Stats)).unwrap();
        let pipelined = small.repeat(10);
        assembler.room()[..pipelined.len()].copy_from_slice(&pipelined);
        assembler.filled(pipelined.len());
        for _ in 0..10 {
            assert!(assembler.next_frame().unwrap().is_some());
        }
        assert_eq!(assembler.room().len(), IDLE_READ);
        assert_eq!(assembler.buf.capacity(), IDLE_READ);
        // A frame in progress: its missing bytes and 8 KiB more, so a read that takes
        // exactly the rest of the frame comes back short of the room.
        let wide = [GemColumn::values_only(vec![0.5; 3_000])];
        let frame = encode_embed_frame(2, "0000000000000001-0000000000000002", &wide).unwrap();
        assembler.push(&frame[..100]);
        assert_eq!(assembler.room().len(), frame.len() - 100 + IDLE_READ);
        assembler.push(&frame[100..]);
        assert!(assembler.next_frame().unwrap().is_some());
        // A peer announces a 64 MiB frame and stalls after 1 MiB of it: each read
        // offers at most 256 KiB, and the buffer never grows more than one such read
        // beyond the bytes that arrived.
        let mut arrived = 0;
        while arrived < 1 << 20 {
            let room = assembler.room();
            assert!(room.len() <= FRAME_READ, "{}", room.len());
            if arrived == 0 {
                room[..4].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
                room[4] = KIND_FIT;
            }
            let count = room.len();
            assembler.filled(count);
            arrived += count;
            assert!(assembler.buf.capacity() <= arrived + FRAME_READ);
        }
        assert!(assembler.next_frame().unwrap().is_none());
        assert_eq!(assembler.room().len(), FRAME_READ);
        assert!(assembler.buf.capacity() <= arrived + FRAME_READ);
    }

    #[test]
    fn an_idle_tick_gives_a_large_frames_buffer_back() {
        // One 2 MiB frame, read the way a socket hands it over, and a small one behind.
        let wide = [GemColumn::values_only(vec![0.5; 262_144])];
        let large = encode_embed_frame(2, "0000000000000001-0000000000000002", &wide).unwrap();
        assert!(large.len() > 2 << 20);
        let small = encode_request_frame(&RequestEnvelope::new(1, RequestBody::Stats)).unwrap();
        let stream = [&large[..], &small[..]].concat();
        let mut assembler = FrameAssembler::new();
        let mut sent = 0;
        while sent < large.len() {
            let room = assembler.room();
            let count = room.len().min(large.len() - sent);
            room[..count].copy_from_slice(&stream[sent..sent + count]);
            assembler.filled(count);
            sent += count;
        }
        assert!(assembler.buf.capacity() >= large.len());
        // A tick with half a frame buffered keeps it.
        assembler.push(&small[..7]);
        assert!(assembler.next_frame().unwrap().is_some());
        assembler.shrink_to_idle();
        assert_eq!(assembler.buffered(), 7);
        assembler.push(&small[7..]);
        assert!(assembler.next_frame().unwrap().is_some());
        // A tick with nothing buffered shrinks the buffer to one idle read.
        assembler.shrink_to_idle();
        assert!(
            assembler.buf.capacity() <= 16 << 10,
            "{}",
            assembler.buf.capacity()
        );
        assert_eq!(assembler.room().len(), IDLE_READ);
        assembler.push(&small);
        assert_eq!(
            assembler.next_frame().unwrap().map(|f| f.kind),
            Some(KIND_REQ_JSON)
        );
    }

    #[test]
    fn the_handshake_line_comes_off_before_the_frames_behind_it() {
        let hello = hello_line().into_bytes();
        let frame = encode_request_frame(&RequestEnvelope::new(3, RequestBody::Stats)).unwrap();
        let mut assembler = FrameAssembler::new();
        assembler.push(&hello[..5]);
        assert_eq!(
            assembler.next_line(38),
            None,
            "half a line waits for its newline"
        );
        assembler.push(&[&hello[5..], &frame[..]].concat());
        assert_eq!(assembler.next_line(38), Some(hello));
        let frame = assembler
            .next_frame()
            .unwrap()
            .expect("the frame behind the line");
        assert_eq!(frame.correlation_id(), Some(3));
        // No newline within the cap: the first `cap` bytes, and nothing past them.
        let mut assembler = FrameAssembler::new();
        assembler.push(&[b'x'; 50]);
        assert_eq!(assembler.next_line(38), Some(vec![b'x'; 38]));
        assert_eq!(assembler.buffered(), 12);
    }

    /// A chunked `Fit` upload of `corpus` under `id`, frame by frame.
    fn upload(id: u64, corpus: Vec<GemColumn>) -> Vec<Frame> {
        let envelope = RequestEnvelope::new(
            id,
            RequestBody::Fit {
                corpus,
                config: GemConfig::fast(),
                features: FeatureSet::ds(),
                composition: None,
            },
        );
        let frames = encode_request_frames(&envelope, 1024).unwrap();
        assert!(frames.len() > 3, "expected begin + chunks + end");
        frames.iter().flat_map(|bytes| reassemble(bytes)).collect()
    }

    #[test]
    fn interleaved_uploads_share_one_memory_bound() {
        // Eight 64-value columns hold 8 × (size_of::<GemColumn>() + 512) bytes: one
        // upload fits the bound, two do not.
        let corpus = |shift: f64| -> Vec<GemColumn> {
            (0..8)
                .map(|c| GemColumn::values_only(vec![f64::from(c) + shift; 64]))
                .collect()
        };
        let one = columns_in_memory(&corpus(0.0));
        let limit = one * 3 / 2;
        let bounded = || ChunkAssembler {
            limit,
            ..ChunkAssembler::default()
        };
        let first = upload(1, corpus(0.0));
        let second = upload(2, corpus(0.5));
        for frames in [&first, &second] {
            let mut alone = bounded();
            let results: Vec<_> = frames.iter().map(|f| alone.accept(f)).collect();
            assert!(results.iter().all(Result::is_ok), "alone, an upload fits");
            assert!(matches!(results.last(), Some(Ok(Some(_)))));
        }
        // Both open at once: the second upload's chunk that crosses the bound is
        // refused and only that upload is dropped.
        let mut assembler = bounded();
        for begin in [&first[0], &second[0]] {
            assert_eq!(assembler.accept(begin).unwrap(), None);
        }
        let (end, chunks) = first[1..].split_last().unwrap();
        for chunk in chunks {
            assert_eq!(assembler.accept(chunk).unwrap(), None);
        }
        let refused = second[1..]
            .iter()
            .find_map(|chunk| assembler.accept(chunk).err())
            .expect("the bound refuses a chunk of the second upload");
        assert_eq!(refused.code(), "protocol_error");
        assert!(refused.to_string().contains("bound"), "{refused}");
        assert_eq!(assembler.in_progress(), 1);
        let assembled = assembler.accept(end).unwrap().expect("the first upload");
        let RequestBody::Fit { corpus: back, .. } = assembled.body else {
            panic!("not a fit");
        };
        assert_eq!(bits_of(&back), bits_of(&corpus(0.0)));
        assert_eq!((assembler.in_progress(), assembler.held), (0, 0));
        // The released bytes are free again: the second upload now fits whole.
        let last = second.iter().map(|f| assembler.accept(f).unwrap()).last();
        assert!(matches!(last, Some(Some(_))));
    }

    #[test]
    fn empty_columns_count_what_they_hold_in_memory_not_their_wire_bytes() {
        let empty: Vec<GemColumn> = (0..200)
            .map(|_| GemColumn::values_only(Vec::new()))
            .collect();
        let limit = 4_000;
        assert!((corpus_wire_bytes(&empty) as u64) < limit);
        assert!(columns_in_memory(&empty) > limit);
        let frames = upload(7, empty);
        let mut assembler = ChunkAssembler {
            limit,
            ..ChunkAssembler::default()
        };
        let refused = frames
            .iter()
            .find_map(|frame| assembler.accept(frame).err())
            .expect("the empty columns cross the bound in memory");
        assert_eq!(refused.code(), "protocol_error");
        assert_eq!((assembler.in_progress(), assembler.held), (0, 0));
    }
}
