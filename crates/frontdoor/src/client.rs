//! A small blocking client for the front-door protocol, used by the
//! integration tests, the chaos harness, and the serving benchmark.
//!
//! It is intentionally dumb: one `TcpStream`, one [`Decoder`], and
//! blocking reads with an optional timeout. Concurrency in the bench
//! comes from running many of these, not from making one clever.

use crate::frame::{encode_client, ClientFrame, Decoder, RejectCode, ServerFrame, Submit};
use serving::FinishReason;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How one submitted request ended, as observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// The request ran; `tokens` were streamed before `Done`.
    Done {
        /// Why the engine finished it.
        reason: FinishReason,
        /// The streamed tokens, in order.
        tokens: Vec<u32>,
    },
    /// The request was refused at admission.
    Rejected(RejectCode),
}

/// A blocking protocol client.
pub struct Client {
    stream: TcpStream,
    decoder: Decoder,
}

impl Client {
    /// Connects to the door.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            decoder: Decoder::new(),
        })
    }

    /// Sends a `Submit` frame.
    pub fn submit(&mut self, submit: Submit) -> io::Result<()> {
        self.stream
            .write_all(&encode_client(&ClientFrame::Submit(submit)))
    }

    /// Writes raw bytes (the chaos harness sends garbage this way).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks until one server frame arrives, or `timeout` passes
    /// (`Ok(None)`), or the server closes the connection
    /// (`Err(UnexpectedEof)`).
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Option<ServerFrame>> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 4096];
        loop {
            match self.decoder.next_server() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits one request and reads frames until its `Done` or
    /// `Reject` arrives (frames for other ids are passed to `other`).
    pub fn run_request(
        &mut self,
        submit: Submit,
        timeout: Duration,
        mut other: impl FnMut(&ServerFrame),
    ) -> io::Result<Completion> {
        let id = submit.id;
        self.submit(submit)?;
        let deadline = Instant::now() + timeout;
        let mut tokens = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            match self.recv(deadline - now)? {
                Some(ServerFrame::Token { id: fid, token }) if fid == id => tokens.push(token),
                Some(ServerFrame::Done {
                    id: fid,
                    reason,
                    n_tokens,
                }) if fid == id => {
                    if n_tokens as usize != tokens.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("torn stream: {} tokens, Done says {n_tokens}", tokens.len()),
                        ));
                    }
                    return Ok(Completion::Done { reason, tokens });
                }
                Some(ServerFrame::Reject { id: fid, code }) if fid == id => {
                    return Ok(Completion::Rejected(code));
                }
                Some(frame) => other(&frame),
                None => return Err(io::ErrorKind::TimedOut.into()),
            }
        }
    }
}
