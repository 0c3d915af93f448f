//! Length-prefixed framed wire protocol.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the frame kind. The decoder is
//! incremental (feed bytes as they arrive, take complete frames) and
//! **total**: any byte sequence either yields frames or a typed
//! [`FrameError`] — it never panics, so a malformed client can at worst
//! get itself disconnected, never take down the engine thread.
//!
//! Client → server:
//!
//! ```text
//! SUBMIT  = 0x01 | id u64 | tenant u16 | priority u8 | deadline_ms u32
//!                | max_new u32 | src_len u16 | prompt_len u16
//!                | src_len × u32 | prompt_len × u32
//! CANCEL  = 0x02 | id u64
//! ```
//!
//! Server → client (tokens stream as they are generated):
//!
//! ```text
//! TOKEN   = 0x01 | id u64 | token u32
//! DONE    = 0x02 | id u64 | reason u8 | n_tokens u32
//! REJECT  = 0x03 | id u64 | code u8
//! ```
//!
//! `deadline_ms == 0` means "no deadline". Request ids are chosen by
//! the client and scoped to its connection; the server maps them to
//! globally unique engine ids internally. A REJECT for a frame whose id
//! could not be parsed carries `id == u64::MAX`.

use serving::FinishReason;

/// Hard ceiling on a frame's payload length. A length prefix above
/// this is a malformed frame (it would otherwise let one client demand
/// an arbitrarily large allocation before sending a single payload
/// byte).
pub(crate) const MAX_FRAME_BYTES: usize = 256 * 1024;

/// Sentinel id used in a REJECT when the offending frame's id could
/// not be parsed.
pub(crate) const UNPARSED_ID: u64 = u64::MAX;

/// Why a byte stream failed to parse as frames. All variants are
/// connection-fatal: after a framing error the stream offset can no
/// longer be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversize {
        /// The declared payload length.
        len: usize,
    },
    /// The payload was empty (no kind byte).
    Empty,
    /// The kind byte is not a known frame kind.
    BadKind(u8),
    /// The payload is shorter than its kind's fixed header.
    Truncated,
    /// The payload length disagrees with the token counts it declares.
    LengthMismatch,
    /// A priority class outside `0..=2`.
    BadPriority(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_BYTES}")
            }
            FrameError::Empty => write!(f, "empty frame payload"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#x}"),
            FrameError::Truncated => write!(f, "frame payload truncated"),
            FrameError::LengthMismatch => write!(f, "frame length disagrees with token counts"),
            FrameError::BadPriority(p) => write!(f, "priority {p} outside 0..=2"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A request submission as it appears on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Client-chosen id, unique among the connection's in-flight
    /// requests.
    pub id: u64,
    /// Tenant the request bills against.
    pub tenant: u16,
    /// Priority class: `0` (interactive) sheds last, `2` (batch) sheds
    /// first.
    pub priority: u8,
    /// Wall-clock deadline in milliseconds from arrival (`0` = none).
    pub deadline_ms: u32,
    /// Generation budget.
    pub max_new: u32,
    /// Source tokens.
    pub src: Vec<u32>,
    /// Target-side prompt tokens.
    pub prompt: Vec<u32>,
}

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// Submit a request.
    Submit(Submit),
    /// Cancel an in-flight or queued request by client id. Never
    /// acknowledged — the canonical sender is about to go away.
    Cancel {
        /// The client id to cancel.
        id: u64,
    },
}

/// Why the server refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission queue full; shed. Retry after backoff.
    QueueFull = 1,
    /// The tenant's token-bucket quota is exhausted.
    Quota = 2,
    /// The frame itself was malformed (also closes the connection).
    Malformed = 3,
    /// A token id outside the model's vocabulary.
    BadToken = 4,
    /// `src`/`prompt`/`max_new` exceed the model's `max_len`, or the
    /// source was empty.
    TooLong = 5,
    /// The client id is already in flight on this connection.
    DuplicateId = 6,
}

impl RejectCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => RejectCode::QueueFull,
            2 => RejectCode::Quota,
            3 => RejectCode::Malformed,
            4 => RejectCode::BadToken,
            5 => RejectCode::TooLong,
            6 => RejectCode::DuplicateId,
            _ => return None,
        })
    }
}

/// Wire encoding of [`FinishReason`].
pub(crate) fn reason_to_u8(r: FinishReason) -> u8 {
    match r {
        FinishReason::Eos => 0,
        FinishReason::Budget => 1,
        FinishReason::Deadline => 2,
        FinishReason::Quarantine => 3,
    }
}

/// Inverse of [`reason_to_u8`].
pub(crate) fn reason_from_u8(v: u8) -> Option<FinishReason> {
    Some(match v {
        0 => FinishReason::Eos,
        1 => FinishReason::Budget,
        2 => FinishReason::Deadline,
        3 => FinishReason::Quarantine,
        _ => return None,
    })
}

/// Frames the server sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// One generated token, streamed as soon as the engine emits it.
    Token {
        /// The client id it belongs to.
        id: u64,
        /// The token.
        token: u32,
    },
    /// The request finished; `n_tokens` TOKEN frames preceded this.
    Done {
        /// The client id.
        id: u64,
        /// Why it finished.
        reason: FinishReason,
        /// Total tokens streamed for the request (lets the client
        /// detect a torn stream).
        n_tokens: u32,
    },
    /// The request was refused at admission; no TOKEN frames were or
    /// will be sent for it.
    Reject {
        /// The client id ([`UNPARSED_ID`] if it could not be parsed).
        id: u64,
        /// Why.
        code: RejectCode,
    },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over a frame payload; every read is bounds-checked.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        let v = *self.buf.get(self.at).ok_or(FrameError::Truncated)?;
        self.at += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take::<2>()?))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }
    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let end = self.at.checked_add(N).ok_or(FrameError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(FrameError::Truncated)?;
        self.at = end;
        Ok(s.try_into().expect("slice of length N"))
    }
    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, FrameError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }
    fn done(&self) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::LengthMismatch)
        }
    }
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Encodes a client frame (length prefix included).
pub fn encode_client(f: &ClientFrame) -> Vec<u8> {
    let mut p = Vec::new();
    match f {
        ClientFrame::Submit(s) => {
            p.push(0x01);
            put_u64(&mut p, s.id);
            put_u16(&mut p, s.tenant);
            p.push(s.priority);
            put_u32(&mut p, s.deadline_ms);
            put_u32(&mut p, s.max_new);
            put_u16(&mut p, s.src.len() as u16);
            put_u16(&mut p, s.prompt.len() as u16);
            for &t in &s.src {
                put_u32(&mut p, t);
            }
            for &t in &s.prompt {
                put_u32(&mut p, t);
            }
        }
        ClientFrame::Cancel { id } => {
            p.push(0x02);
            put_u64(&mut p, *id);
        }
    }
    frame(p)
}

/// Encodes a server frame (length prefix included).
pub fn encode_server(f: &ServerFrame) -> Vec<u8> {
    let mut p = Vec::new();
    match f {
        ServerFrame::Token { id, token } => {
            p.push(0x01);
            put_u64(&mut p, *id);
            put_u32(&mut p, *token);
        }
        ServerFrame::Done {
            id,
            reason,
            n_tokens,
        } => {
            p.push(0x02);
            put_u64(&mut p, *id);
            p.push(reason_to_u8(*reason));
            put_u32(&mut p, *n_tokens);
        }
        ServerFrame::Reject { id, code } => {
            p.push(0x03);
            put_u64(&mut p, *id);
            p.push(*code as u8);
        }
    }
    frame(p)
}

fn decode_client_payload(p: &[u8]) -> Result<ClientFrame, FrameError> {
    let mut c = Cursor::new(p);
    match c.u8().map_err(|_| FrameError::Empty)? {
        0x01 => {
            let id = c.u64()?;
            let tenant = c.u16()?;
            let priority = c.u8()?;
            if priority > 2 {
                return Err(FrameError::BadPriority(priority));
            }
            let deadline_ms = c.u32()?;
            let max_new = c.u32()?;
            let src_len = c.u16()? as usize;
            let prompt_len = c.u16()? as usize;
            let src = c.u32_vec(src_len)?;
            let prompt = c.u32_vec(prompt_len)?;
            c.done()?;
            Ok(ClientFrame::Submit(Submit {
                id,
                tenant,
                priority,
                deadline_ms,
                max_new,
                src,
                prompt,
            }))
        }
        0x02 => {
            let id = c.u64()?;
            c.done()?;
            Ok(ClientFrame::Cancel { id })
        }
        k => Err(FrameError::BadKind(k)),
    }
}

fn decode_server_payload(p: &[u8]) -> Result<ServerFrame, FrameError> {
    let mut c = Cursor::new(p);
    match c.u8().map_err(|_| FrameError::Empty)? {
        0x01 => {
            let id = c.u64()?;
            let token = c.u32()?;
            c.done()?;
            Ok(ServerFrame::Token { id, token })
        }
        0x02 => {
            let id = c.u64()?;
            let reason = reason_from_u8(c.u8()?).ok_or(FrameError::Truncated)?;
            let n_tokens = c.u32()?;
            c.done()?;
            Ok(ServerFrame::Done {
                id,
                reason,
                n_tokens,
            })
        }
        0x03 => {
            let id = c.u64()?;
            let code = RejectCode::from_u8(c.u8()?).ok_or(FrameError::Truncated)?;
            c.done()?;
            Ok(ServerFrame::Reject { id, code })
        }
        k => Err(FrameError::BadKind(k)),
    }
}

/// Incremental frame decoder: feed bytes, take complete frames.
///
/// After the first [`FrameError`] the decoder is poisoned (the stream
/// offset can no longer be trusted) and keeps returning the error.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    poisoned: Option<FrameError>,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Tries to take the next complete frame's payload off the buffer.
    fn next_payload(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            let e = FrameError::Oversize { len };
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    fn poison<T>(&mut self, r: Result<T, FrameError>) -> Result<T, FrameError> {
        if let Err(e) = &r {
            self.poisoned = Some(e.clone());
        }
        r
    }

    /// Takes the next complete client frame, `Ok(None)` if more bytes
    /// are needed.
    pub(crate) fn next_client(&mut self) -> Result<Option<ClientFrame>, FrameError> {
        match self.next_payload()? {
            None => Ok(None),
            Some(p) => {
                let r = decode_client_payload(&p);
                self.poison(r).map(Some)
            }
        }
    }

    /// Takes the next complete server frame, `Ok(None)` if more bytes
    /// are needed.
    pub fn next_server(&mut self) -> Result<Option<ServerFrame>, FrameError> {
        match self.next_payload()? {
            None => Ok(None),
            Some(p) => {
                let r = decode_server_payload(&p);
                self.poison(r).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit() -> ClientFrame {
        ClientFrame::Submit(Submit {
            id: 7,
            tenant: 3,
            priority: 1,
            deadline_ms: 250,
            max_new: 16,
            src: vec![4, 5, 6],
            prompt: vec![9, 10],
        })
    }

    #[test]
    fn client_frames_round_trip() {
        for f in [submit(), ClientFrame::Cancel { id: 42 }] {
            let bytes = encode_client(&f);
            let mut d = Decoder::new();
            d.feed(&bytes);
            assert_eq!(d.next_client().unwrap(), Some(f));
            assert_eq!(d.next_client().unwrap(), None);
            assert!(d.buf.is_empty());
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Token { id: 1, token: 99 },
            ServerFrame::Done {
                id: 1,
                reason: FinishReason::Eos,
                n_tokens: 12,
            },
            ServerFrame::Reject {
                id: 2,
                code: RejectCode::QueueFull,
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend(encode_server(f));
        }
        let mut d = Decoder::new();
        // Dribble one byte at a time: the decoder must reassemble.
        let mut got = Vec::new();
        for b in bytes {
            d.feed(&[b]);
            while let Some(f) = d.next_server().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn oversize_length_prefix_is_fatal() {
        let mut d = Decoder::new();
        d.feed(&(u32::MAX).to_le_bytes());
        let e = d.next_client().unwrap_err();
        assert!(matches!(e, FrameError::Oversize { .. }));
        // Poisoned: even well-formed bytes afterwards keep erroring.
        d.feed(&encode_client(&submit()));
        assert!(d.next_client().is_err());
    }

    #[test]
    fn unknown_kind_and_truncation_rejected() {
        let mut d = Decoder::new();
        d.feed(&frame(vec![0x77, 0, 0]));
        assert_eq!(d.next_client().unwrap_err(), FrameError::BadKind(0x77));

        let mut d = Decoder::new();
        d.feed(&frame(vec![0x02, 1, 2])); // CANCEL needs 8 id bytes
        assert_eq!(d.next_client().unwrap_err(), FrameError::Truncated);

        let mut d = Decoder::new();
        d.feed(&frame(Vec::new()));
        assert_eq!(d.next_client().unwrap_err(), FrameError::Empty);
    }

    #[test]
    fn token_count_mismatch_rejected() {
        // A SUBMIT declaring 3 src tokens but carrying 4.
        let ClientFrame::Submit(s) = submit() else {
            unreachable!()
        };
        let mut bytes = encode_client(&ClientFrame::Submit(Submit {
            src: vec![1, 2, 3, 4],
            ..s
        }));
        // Patch src_len back down to 3 (offset: 4 len + 1 kind + 8 id +
        // 2 tenant + 1 prio + 4 deadline + 4 max_new = 24).
        bytes[24] = 3;
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_client().unwrap_err(), FrameError::LengthMismatch);
    }

    #[test]
    fn bad_priority_rejected() {
        let ClientFrame::Submit(s) = submit() else {
            unreachable!()
        };
        let bytes = encode_client(&ClientFrame::Submit(Submit { priority: 9, ..s }));
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_client().unwrap_err(), FrameError::BadPriority(9));
    }

    #[test]
    fn random_garbage_never_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for _ in 0..200 {
            let n = rng.random_range(0..64usize);
            let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u32) as u8).collect();
            let mut d = Decoder::new();
            d.feed(&bytes);
            // Either frames, need-more, or a typed error — never a panic.
            while let Ok(Some(_)) = d.next_client() {}
        }
    }
}
