//! Chaos scenarios for the front door: hostile and unlucky client
//! behaviours, packaged so tests and CI can hurl them at a live door
//! and assert the invariants that matter — the engine never panics,
//! every request is accounted for (done or typed-rejected), no KV
//! pages leak, and a well-behaved canary keeps decoding bit-identical
//! results throughout.
//!
//! Each scenario is a plain blocking function against the door's
//! address; run them from threads to overlap. They return outcome
//! counters rather than asserting internally so the caller can decide
//! what a pass means for its configuration.

use crate::client::{Client, Completion};
use crate::frame::{RejectCode, ServerFrame, Submit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Counters summed over a scenario's requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Requests that completed (`Done`, any finish reason).
    pub done: u64,
    /// `Reject{QueueFull}` responses.
    pub shed: u64,
    /// `Reject{Quota}` responses.
    pub quota: u64,
    /// `Reject{Malformed}` responses.
    pub malformed: u64,
    /// Other rejects (bad token, too long, duplicate id).
    pub other_reject: u64,
    /// Connections the server closed on us (expected for misbehaving
    /// scenarios).
    pub closed: u64,
}

impl Outcome {
    /// Folds another outcome in.
    pub fn merge(&mut self, o: &Outcome) {
        self.done += o.done;
        self.shed += o.shed;
        self.quota += o.quota;
        self.malformed += o.malformed;
        self.other_reject += o.other_reject;
        self.closed += o.closed;
    }

    fn absorb(&mut self, completion: &Completion) {
        match completion {
            Completion::Done { .. } => self.done += 1,
            Completion::Rejected(RejectCode::QueueFull) => self.shed += 1,
            Completion::Rejected(RejectCode::Quota) => self.quota += 1,
            Completion::Rejected(RejectCode::Malformed) => self.malformed += 1,
            Completion::Rejected(_) => self.other_reject += 1,
        }
    }
}

/// Sets a door's `stop` flag when dropped. Held by the scope that runs
/// the door's event loop on another thread, it stops the door when the
/// scope's body unwinds: a failed assertion would otherwise leave the
/// scope waiting forever for the door thread, and the test would hang
/// instead of failing.
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn content_tokens(rng: &mut StdRng, n: usize, vocab: u32) -> Vec<u32> {
    (0..n).map(|_| rng.random_range(3..vocab)).collect()
}

/// A well-behaved request: submit, read to completion, return the
/// streamed tokens (or the rejection). The canary in the chaos test
/// compares these tokens against an offline decode to prove hostile
/// traffic never perturbs honest requests.
pub fn canary_request(
    addr: SocketAddr,
    id: u64,
    src: &[u32],
    max_new: u32,
    timeout: Duration,
) -> io::Result<Completion> {
    let mut client = Client::connect(addr)?;
    client.run_request(
        Submit {
            id,
            tenant: 0,
            priority: 0,
            deadline_ms: 0,
            max_new,
            src: src.to_vec(),
            prompt: vec![],
        },
        timeout,
        |_| {},
    )
}

/// Clients that submit a long decode, read one token, and vanish —
/// the mid-stream disconnect that must cancel the slot and release
/// its KV pages.
pub fn disconnect_mid_decode(
    addr: SocketAddr,
    n_clients: usize,
    vocab: u32,
    seed: u64,
) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outcome::default();
    for i in 0..n_clients {
        let mut client = Client::connect(addr)?;
        client.submit(Submit {
            id: i as u64,
            tenant: 1,
            priority: 1,
            deadline_ms: 0,
            max_new: 64,
            src: content_tokens(&mut rng, 5, vocab),
            prompt: vec![],
        })?;
        // Wait for the stream to start, then hang up mid-decode.
        match client.recv(Duration::from_secs(10))? {
            Some(ServerFrame::Reject { .. }) => out.shed += 1,
            Some(_) => out.closed += 1, // token arrived; now vanish
            None => {}
        }
        drop(client);
    }
    Ok(out)
}

/// Slowloris: connections that dribble a byte of a valid frame at a
/// time and never finish, plus connections that submit and then stop
/// reading. Both must be bounded by the door's idle timeout and write
/// budget; neither may wedge the engine.
pub fn slowloris(addr: SocketAddr, n_conns: usize, vocab: u32, seed: u64) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outcome::default();
    let mut dribblers = Vec::new();
    for i in 0..n_conns {
        let mut client = Client::connect(addr)?;
        let frame = crate::frame::encode_client(&crate::frame::ClientFrame::Submit(Submit {
            id: i as u64,
            tenant: 2,
            priority: 2,
            deadline_ms: 0,
            max_new: 8,
            src: content_tokens(&mut rng, 4, vocab),
            prompt: vec![],
        }));
        // Send only a prefix, one byte at a time, and never the rest.
        let cut = rng.random_range(1..frame.len());
        for b in &frame[..cut] {
            client.send_raw(&[*b])?;
        }
        dribblers.push(client);
    }
    // Hold the half-open connections long enough for the door's idle
    // policy to be the thing that reaps them.
    std::thread::sleep(Duration::from_millis(300));
    for mut client in dribblers {
        // The server should eventually close; either observation is a
        // pass, a hang here would be the failure.
        if client.recv(Duration::from_millis(200)).is_err() {
            out.closed += 1;
        }
    }
    Ok(out)
}

/// Pure garbage: random bytes that must never panic the server. Each
/// connection expects a `Reject{Malformed}` or a close.
pub fn malformed_storm(addr: SocketAddr, n_conns: usize, seed: u64) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outcome::default();
    for _ in 0..n_conns {
        let mut client = Client::connect(addr)?;
        let n = rng.random_range(1..200usize);
        let garbage: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u32) as u8).collect();
        client.send_raw(&garbage)?;
        match client.recv(Duration::from_secs(5)) {
            Ok(Some(ServerFrame::Reject {
                code: RejectCode::Malformed,
                ..
            })) => out.malformed += 1,
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => out.closed += 1,
        }
    }
    Ok(out)
}

/// A queue-full storm: one connection fires `n_requests` submissions
/// back-to-back without reading, then collects everything. Every
/// request must be accounted for as done or typed-rejected.
pub fn queue_storm(
    addr: SocketAddr,
    n_requests: usize,
    tenant: u16,
    vocab: u32,
    seed: u64,
) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr)?;
    for i in 0..n_requests {
        client.submit(Submit {
            id: i as u64,
            tenant,
            priority: rng.random_range(0..3u32) as u8,
            deadline_ms: 0,
            max_new: 4,
            src: content_tokens(&mut rng, 4, vocab),
            prompt: vec![],
        })?;
    }
    let mut out = Outcome::default();
    let mut settled = 0usize;
    while settled < n_requests {
        match client.recv(Duration::from_secs(30))? {
            Some(ServerFrame::Done { .. }) => {
                out.done += 1;
                settled += 1;
            }
            Some(ServerFrame::Reject { code, .. }) => {
                out.absorb(&Completion::Rejected(code));
                settled += 1;
            }
            Some(ServerFrame::Token { .. }) => {}
            None => break, // timeout: caller's assertions will catch the shortfall
        }
    }
    Ok(out)
}

/// One tenant burns far past its token-bucket budget as fast as it
/// can; the excess must be refused with `Reject{Quota}` while the
/// requests inside the budget complete.
pub fn quota_exhaustion(
    addr: SocketAddr,
    n_requests: usize,
    tenant: u16,
    vocab: u32,
    seed: u64,
) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect(addr)?;
    let mut out = Outcome::default();
    for i in 0..n_requests {
        let completion = client.run_request(
            Submit {
                id: i as u64,
                tenant,
                priority: 1,
                deadline_ms: 0,
                max_new: 8,
                src: content_tokens(&mut rng, 6, vocab),
                prompt: vec![],
            },
            Duration::from_secs(30),
            |_| {},
        )?;
        out.absorb(&completion);
    }
    Ok(out)
}
