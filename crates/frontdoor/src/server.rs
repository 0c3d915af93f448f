//! The front door itself: a single-threaded TCP event loop that owns
//! both the sockets and a [`ContinuousBatcher`].
//!
//! One thread runs everything — poll for readiness, accept, read and
//! parse frames, admit through [`crate::admission`], feed the engine,
//! step it, stream tokens back, flush writes, and enforce timeouts.
//! Single-threading is a robustness choice, not a simplification: the
//! engine can never observe a half-parsed frame or a torn admission
//! decision, parsing is total (`Result`, never panics), and sockets
//! simply buffer in the kernel while a step runs. Throughput comes
//! from the engine's batching, not from socket concurrency.
//!
//! Overload and misbehaviour policy, end to end:
//!
//! * **Admission pipeline** — validate (vocabulary, lengths, duplicate
//!   ids) → tenant quota → bounded priority buffer → engine. Every
//!   refusal is a typed [`ServerFrame::Reject`]; nothing is silently
//!   dropped and nothing grows without bound.
//! * **Deadlines** — a request's `deadline_ms` covers its whole wall
//!   time from arrival: time staged in the door is subtracted from the
//!   budget handed to the engine, and requests that expire while
//!   staged are completed with [`FinishReason::Deadline`] and zero
//!   tokens without ever touching a slot or a KV page.
//! * **Slow and dead clients** — a connection whose unflushed output
//!   exceeds its write budget, or that sits idle with no in-flight
//!   work past the idle timeout, is torn down; a mid-stream disconnect
//!   cancels the request in the engine and releases its KV pages.
//! * **Malformed bytes** — frame errors poison only the connection
//!   that sent them (one `Reject{Malformed}`, then close). The engine
//!   thread never sees the bytes.

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, Staged};
use crate::frame::{encode_server, ClientFrame, Decoder, RejectCode, ServerFrame, Submit};
use crate::poll::{Event, Poller};
use serving::{ContinuousBatcher, EngineConfig, FinishReason, Request, ServingError, ServingStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use quantized::QuantSeq2Seq;

/// Front-door knobs.
#[derive(Debug, Clone)]
pub struct DoorConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Admission policy (quotas, priority buffer bound).
    pub admission: AdmissionConfig,
    /// Maximum simultaneous connections; later connects are refused at
    /// accept time.
    pub max_conns: usize,
    /// A connection with no in-flight requests and no traffic for this
    /// long is closed (slowloris and abandoned-socket defence).
    pub idle_timeout: Duration,
    /// Maximum unflushed outbound bytes per connection; a client that
    /// cannot keep up with its own token stream past this budget is a
    /// slow reader and is dropped (its requests are cancelled).
    pub write_budget: usize,
    /// Poll timeout when fully idle, in milliseconds.
    pub idle_poll_ms: i32,
}

impl Default for DoorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            engine: EngineConfig::default(),
            admission: AdmissionConfig::default(),
            max_conns: 256,
            idle_timeout: Duration::from_secs(10),
            write_budget: 1 << 20,
            idle_poll_ms: 10,
        }
    }
}

/// Counters the door accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoorStats {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections refused because `max_conns` were already open.
    pub conns_refused: u64,
    /// Connections closed (any reason, including client hangup).
    pub conns_closed: u64,
    /// Of `conns_closed`, closed for exceeding the write budget.
    pub slow_client_drops: u64,
    /// Of `conns_closed`, closed for idling with no in-flight work.
    pub idle_drops: u64,
    /// Of `conns_closed`, closed after a malformed frame.
    pub malformed_closes: u64,
    /// Client frames parsed.
    pub frames_in: u64,
    /// Server frames queued for sending.
    pub frames_out: u64,
    /// `Reject` frames sent (all codes).
    pub rejects: u64,
    /// `Token` frames sent.
    pub tokens_streamed: u64,
    /// `Done` frames sent.
    pub done_sent: u64,
    /// Cancel frames honoured (staged or in-flight).
    pub cancels: u64,
    /// Requests completed in the door because their deadline expired
    /// while staged (never reached the engine).
    pub expired_staged: u64,
    /// Admission-layer counters.
    pub admission: AdmissionStats,
}

/// Where a live request's replies go.
struct Route {
    token: usize,
    client_id: u64,
    streamed: u32,
}

struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    out: Vec<u8>,
    written: usize,
    last_read: Instant,
    /// client id -> global id, for every request this connection owns.
    open: HashMap<u64, u64>,
    /// Flush what is queued, then close (set after a malformed frame).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            decoder: Decoder::new(),
            out: Vec::new(),
            written: 0,
            last_read: now,
            open: HashMap::new(),
            close_after_flush: false,
        }
    }

    fn queue(&mut self, frame: &ServerFrame) {
        self.out.extend_from_slice(&encode_server(frame));
    }

    fn unflushed(&self) -> usize {
        self.out.len() - self.written
    }
}

/// Why [`FrontDoor::close_conn`] ran, for stats attribution.
enum CloseWhy {
    Hangup,
    Slow,
    Idle,
    Malformed,
}

/// The serving front door. Borrows the model for its lifetime; the
/// engine, sockets, and all buffers live inside.
pub struct FrontDoor<'m> {
    cfg: DoorConfig,
    listener: TcpListener,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    engine: ContinuousBatcher<'m>,
    admission: Admission,
    /// A staged request the engine refused (`QueueFull`); retried
    /// before popping more.
    carry: Option<Staged>,
    routes: HashMap<u64, Route>,
    next_gid: u64,
    src_vocab: usize,
    tgt_vocab: usize,
    max_len: usize,
    events: Vec<Event>,
    /// Lifetime counters.
    pub stats: DoorStats,
}

impl<'m> FrontDoor<'m> {
    /// Binds the listener and builds the engine.
    pub fn new(model: &'m QuantSeq2Seq, cfg: DoorConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), 0)?;
        let engine = ContinuousBatcher::new(model, cfg.engine)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Ok(Self {
            admission: Admission::new(cfg.admission.clone()),
            cfg,
            listener,
            poller,
            conns: Vec::new(),
            engine,
            carry: None,
            routes: HashMap::new(),
            next_gid: 1,
            src_vocab: model.src_vocab(),
            tgt_vocab: model.tgt_vocab(),
            max_len: model.max_len(),
            events: Vec::new(),
            stats: DoorStats::default(),
        })
    }

    /// The bound address (for `127.0.0.1:0` configs).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Engine counters (admissions, sheds, retires, faults).
    pub fn engine_stats(&self) -> ServingStats {
        self.engine.stats()
    }

    /// KV arena bytes currently held by in-flight requests.
    pub fn kv_bytes_in_use(&self) -> usize {
        self.engine.kv_bytes_in_use()
    }

    /// True when no request is staged, queued, active, or awaiting its
    /// completion frame.
    pub fn idle(&self) -> bool {
        self.admission.buffered() == 0
            && self.carry.is_none()
            && self.engine.pending_len() == 0
            && self.engine.active_len() == 0
            && self.routes.is_empty()
    }

    /// Runs the event loop until `stop` is set.
    pub fn run(&mut self, stop: &AtomicBool) -> io::Result<()> {
        while !stop.load(Ordering::Relaxed) {
            self.poll_once()?;
        }
        Ok(())
    }

    /// One turn of the event loop: poll, accept, read, admit, step,
    /// stream, flush, reap. Returns after at most
    /// [`DoorConfig::idle_poll_ms`] even when nothing happens.
    pub fn poll_once(&mut self) -> io::Result<()> {
        let busy = !self.idle() || self.conns.iter().flatten().any(|c| c.unflushed() > 0);
        let timeout = if busy { 0 } else { self.cfg.idle_poll_ms };
        self.events.clear();
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(timeout, &mut events)?;
        for ev in &events {
            if ev.token == 0 {
                self.accept_ready()?;
            } else {
                self.read_conn(ev.token - 1, ev.hangup);
            }
        }
        self.events = events;

        let now = Instant::now();
        self.complete_expired_staged(now);
        self.feed_engine(now);
        if self.engine.active_len() > 0 || self.engine.pending_len() > 0 {
            self.engine.step();
        }
        self.stream_tokens();
        self.complete_finished();
        self.flush_and_reap(now);
        Ok(())
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let open = self.conns.iter().flatten().count();
                    if open >= self.cfg.max_conns {
                        self.stats.conns_refused += 1;
                        continue; // stream drops -> refused
                    }
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let idx = self
                        .conns
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| {
                            self.conns.push(None);
                            self.conns.len() - 1
                        });
                    self.poller.register(stream.as_raw_fd(), idx + 1)?;
                    self.conns[idx] = Some(Conn::new(stream, Instant::now()));
                    self.stats.conns_accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn read_conn(&mut self, idx: usize, hangup: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let mut buf = [0u8; 4096];
        let mut dead = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.last_read = Instant::now();
                    conn.decoder.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        self.parse_conn(idx);
        if dead || hangup {
            self.close_conn(idx, CloseWhy::Hangup);
        }
    }

    /// Drains every complete frame the connection has buffered. A
    /// malformed frame rejects once, stops parsing (the decoder is
    /// poisoned), and schedules the connection for close.
    fn parse_conn(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            match conn.decoder.next_client() {
                Ok(Some(frame)) => {
                    self.stats.frames_in += 1;
                    match frame {
                        ClientFrame::Submit(s) => self.handle_submit(idx, s),
                        ClientFrame::Cancel { id } => self.handle_cancel(idx, id),
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.send(
                        idx,
                        ServerFrame::Reject {
                            id: crate::frame::UNPARSED_ID,
                            code: RejectCode::Malformed,
                        },
                    );
                    self.stats.rejects += 1;
                    self.stats.malformed_closes += 1;
                    if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                        conn.close_after_flush = true;
                    }
                    return;
                }
            }
        }
    }

    fn handle_submit(&mut self, idx: usize, mut submit: Submit) {
        let client_id = submit.id;
        if let Some(code) = self.validate(idx, &submit) {
            self.send(
                idx,
                ServerFrame::Reject {
                    id: client_id,
                    code,
                },
            );
            self.stats.rejects += 1;
            return;
        }
        // Rewrite the per-connection id to a door-global one; the
        // engine requires lifetime-unique ids and clients cannot be
        // trusted to coordinate theirs.
        let gid = self.next_gid;
        self.next_gid += 1;
        submit.id = gid;
        match self.admission.offer(submit, Instant::now()) {
            Ok(accepted) => {
                self.routes.insert(
                    gid,
                    Route {
                        token: idx,
                        client_id,
                        streamed: 0,
                    },
                );
                if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                    conn.open.insert(client_id, gid);
                }
                if let Some(victim) = accepted.evicted {
                    self.refuse_staged(victim.submit.id, RejectCode::QueueFull);
                }
            }
            Err(code) => {
                self.send(
                    idx,
                    ServerFrame::Reject {
                        id: client_id,
                        code,
                    },
                );
                self.stats.rejects += 1;
            }
        }
        self.stats.admission = self.admission.stats;
    }

    /// Validation that runs before a request can occupy any buffer
    /// space. Returns the rejection code, if any.
    fn validate(&self, idx: usize, s: &Submit) -> Option<RejectCode> {
        let conn = self.conns.get(idx).and_then(Option::as_ref)?;
        if conn.open.contains_key(&s.id) {
            return Some(RejectCode::DuplicateId);
        }
        if s.src.is_empty() || s.src.len() > self.max_len {
            return Some(RejectCode::TooLong);
        }
        // BOS + prompt + generated tokens all occupy target positions.
        if 1 + s.prompt.len() + s.max_new as usize > self.max_len {
            return Some(RejectCode::TooLong);
        }
        if s.src.iter().any(|&t| t as usize >= self.src_vocab)
            || s.prompt.iter().any(|&t| t as usize >= self.tgt_vocab)
        {
            return Some(RejectCode::BadToken);
        }
        None
    }

    fn handle_cancel(&mut self, idx: usize, client_id: u64) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let Some(gid) = conn.open.remove(&client_id) else {
            return; // unknown or already finished: no-op
        };
        self.routes.remove(&gid);
        let dropped = self.admission.remove(gid)
            || self.carry.take_if(|c| c.submit.id == gid).is_some()
            || self.engine.cancel(gid);
        if dropped {
            self.stats.cancels += 1;
        }
        self.stats.admission = self.admission.stats;
    }

    /// Sends a `Reject` to the owner of a staged request that was
    /// evicted, and forgets the request.
    fn refuse_staged(&mut self, gid: u64, code: RejectCode) {
        if let Some(route) = self.routes.remove(&gid) {
            let client_id = route.client_id;
            if let Some(conn) = self.conns.get_mut(route.token).and_then(Option::as_mut) {
                conn.open.remove(&client_id);
            }
            self.send(
                route.token,
                ServerFrame::Reject {
                    id: client_id,
                    code,
                },
            );
            self.stats.rejects += 1;
        }
    }

    /// Completes staged requests whose wall deadline passed while they
    /// waited in the door — `Done{Deadline, 0 tokens}`, never a slot.
    fn complete_expired_staged(&mut self, now: Instant) {
        for staged in self.admission.purge_expired(now) {
            self.stats.expired_staged += 1;
            self.complete(staged.submit.id, FinishReason::Deadline);
        }
    }

    /// Moves staged requests into the engine while it has queue room.
    fn feed_engine(&mut self, now: Instant) {
        let headroom = self.cfg.engine.max_batch.max(1) * 2;
        while self.engine.pending_len() < headroom {
            let Some(staged) = self.carry.take().or_else(|| self.admission.pop()) else {
                break;
            };
            let gid = staged.submit.id;
            // The deadline covers total wall time: subtract what was
            // already spent staged in the door.
            let remaining_ms = if staged.submit.deadline_ms == 0 {
                None
            } else {
                let budget = Duration::from_millis(u64::from(staged.submit.deadline_ms));
                let spent = now.saturating_duration_since(staged.arrived);
                match budget.checked_sub(spent) {
                    Some(left) if !left.is_zero() => Some(left.as_millis() as u64),
                    _ => {
                        self.stats.expired_staged += 1;
                        self.complete(gid, FinishReason::Deadline);
                        continue;
                    }
                }
            };
            let mut req = Request::new(
                gid,
                staged.submit.src.iter().map(|&t| t as usize).collect(),
                staged.submit.max_new as usize,
            )
            .with_prompt(staged.submit.prompt.iter().map(|&t| t as usize).collect());
            req.deadline_ms = remaining_ms;
            match self.engine.submit(req) {
                Ok(()) => {}
                Err(ServingError::QueueFull { .. }) => {
                    self.carry = Some(staged);
                    break;
                }
                Err(_) => {
                    // Unreachable with door-validated requests and
                    // door-allocated ids, but never panic the loop.
                    self.refuse_staged(gid, RejectCode::TooLong);
                }
            }
        }
    }

    /// Forwards every token the engine emitted this step.
    fn stream_tokens(&mut self) {
        for (gid, token) in self.engine.drain_emitted() {
            if let Some(route) = self.routes.get_mut(&gid) {
                route.streamed += 1;
                let frame = ServerFrame::Token {
                    id: route.client_id,
                    token: token as u32,
                };
                let token_idx = route.token;
                self.send(token_idx, frame);
                self.stats.tokens_streamed += 1;
            }
        }
    }

    /// Sends `Done` for every response the engine retired.
    fn complete_finished(&mut self) {
        for resp in self.engine.drain_finished() {
            self.complete(resp.id, resp.finish);
        }
    }

    /// Finishes a request: `Done` frame to its owner, forget the route.
    fn complete(&mut self, gid: u64, reason: FinishReason) {
        if let Some(route) = self.routes.remove(&gid) {
            let client_id = route.client_id;
            if let Some(conn) = self.conns.get_mut(route.token).and_then(Option::as_mut) {
                conn.open.remove(&client_id);
            }
            self.send(
                route.token,
                ServerFrame::Done {
                    id: client_id,
                    reason,
                    n_tokens: route.streamed,
                },
            );
            self.stats.done_sent += 1;
        }
    }

    fn send(&mut self, idx: usize, frame: ServerFrame) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.queue(&frame);
            self.stats.frames_out += 1;
        }
    }

    /// Flushes every connection, then applies the write-budget, idle,
    /// and close-after-flush policies.
    fn flush_and_reap(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            let mut broken = false;
            while conn.written < conn.out.len() {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if conn.written > 0 && conn.written * 2 >= conn.out.len() {
                conn.out.drain(..conn.written);
                conn.written = 0;
            }
            if broken {
                self.close_conn(idx, CloseWhy::Hangup);
                continue;
            }
            let conn = self.conns[idx].as_ref().expect("still open");
            if conn.unflushed() > self.cfg.write_budget {
                self.close_conn(idx, CloseWhy::Slow);
            } else if conn.close_after_flush && conn.unflushed() == 0 {
                self.close_conn(idx, CloseWhy::Malformed);
            } else if conn.open.is_empty()
                && conn.unflushed() == 0
                && !conn.close_after_flush
                && now.saturating_duration_since(conn.last_read) > self.cfg.idle_timeout
            {
                self.close_conn(idx, CloseWhy::Idle);
            }
        }
    }

    /// Tears a connection down: cancel everything it owns (releasing
    /// engine slots and KV pages), deregister, drop the socket.
    fn close_conn(&mut self, idx: usize, why: CloseWhy) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        for (_client_id, gid) in conn.open {
            self.routes.remove(&gid);
            let dropped = self.admission.remove(gid)
                || self.carry.take_if(|c| c.submit.id == gid).is_some()
                || self.engine.cancel(gid);
            if dropped {
                self.stats.cancels += 1;
            }
        }
        self.stats.conns_closed += 1;
        match why {
            CloseWhy::Hangup => {}
            CloseWhy::Slow => self.stats.slow_client_drops += 1,
            CloseWhy::Idle => self.stats.idle_drops += 1,
            CloseWhy::Malformed => {} // counted when the frame failed
        }
        self.stats.admission = self.admission.stats;
    }
}
