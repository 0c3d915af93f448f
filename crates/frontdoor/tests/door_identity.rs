//! End-to-end identity: requests decoded through the TCP front door
//! must stream byte-for-byte the tokens the model produces offline,
//! and every admission refusal must arrive as its typed reject code.

use frontdoor::chaos::StopOnDrop;
use frontdoor::frame::encode_client;
use frontdoor::{AdmissionConfig, Client, ClientFrame, RejectCode};
use frontdoor::{Completion, DoorConfig, FrontDoor, ServerFrame, Submit};
use quantized::QuantSeq2Seq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serving::{EngineConfig, FinishReason};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

fn setup(n: usize) -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    cfg.max_len = 96;
    let mut rng = StdRng::seed_from_u64(417);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(n, &mut StdRng::seed_from_u64(418));
    let srcs = corpus.iter().map(|(s, _)| s.clone()).collect();
    (
        QuantSeq2Seq::from_trained(&model, &corpus, quantized::SoftmaxMode::Hardware),
        srcs,
    )
}

/// Runs `body` against a live door and returns the door afterwards so
/// callers can assert on its final state. A panicking body stops the
/// door, so a failed assertion fails the test instead of hanging it.
fn with_door<R>(
    model: &QuantSeq2Seq,
    cfg: DoorConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (FrontDoor<'_>, R) {
    let mut door = FrontDoor::new(model, cfg).expect("bind");
    let addr = door.local_addr().expect("addr");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop_on_unwind = StopOnDrop(&stop);
        let handle = s.spawn(|| {
            door.run(&stop).expect("event loop");
            door
        });
        let out = body(addr);
        stop.store(true, Ordering::Relaxed);
        (handle.join().expect("door thread"), out)
    })
}

fn as_u32(src: &[usize]) -> Vec<u32> {
    src.iter().map(|&t| t as u32).collect()
}

#[test]
fn tcp_decode_is_bit_identical_to_offline_greedy() {
    let (q, srcs) = setup(6);
    let max_new = 8;
    let (door, ()) = with_door(&q, DoorConfig::default(), |addr| {
        for (i, src) in srcs.iter().enumerate() {
            let mut client = Client::connect(addr).expect("connect");
            let got = client
                .run_request(
                    Submit {
                        id: i as u64,
                        tenant: (i % 3) as u16,
                        priority: (i % 3) as u8,
                        deadline_ms: 0,
                        max_new: max_new as u32,
                        src: as_u32(src),
                        prompt: vec![],
                    },
                    Duration::from_secs(30),
                    |_| {},
                )
                .expect("completion");
            let want = as_u32(&q.greedy_decode_incremental(src, max_new));
            match got {
                Completion::Done { tokens, .. } => assert_eq!(tokens, want, "request {i}"),
                Completion::Rejected(code) => panic!("request {i} rejected: {code:?}"),
            }
        }
    });
    assert!(door.idle(), "door drained");
    assert_eq!(door.kv_bytes_in_use(), 0, "no leaked KV pages");
    assert_eq!(door.stats.done_sent, srcs.len() as u64);
    assert_eq!(door.stats.rejects, 0);
}

#[test]
fn interleaved_streams_on_one_connection_stay_per_request() {
    let (q, srcs) = setup(5);
    let max_new = 8;
    let (door, ()) = with_door(&q, DoorConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for (i, src) in srcs.iter().enumerate() {
            client
                .submit(Submit {
                    id: i as u64,
                    tenant: 0,
                    priority: 1,
                    deadline_ms: 0,
                    max_new: max_new as u32,
                    src: as_u32(src),
                    prompt: vec![],
                })
                .expect("submit");
        }
        let mut streams: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut done = 0;
        while done < srcs.len() {
            match client
                .recv(Duration::from_secs(30))
                .expect("recv")
                .expect("no timeout")
            {
                ServerFrame::Token { id, token } => streams.entry(id).or_default().push(token),
                ServerFrame::Done { id, n_tokens, .. } => {
                    let got = streams.get(&id).cloned().unwrap_or_default();
                    assert_eq!(got.len(), n_tokens as usize, "torn stream for {id}");
                    done += 1;
                }
                ServerFrame::Reject { id, code } => panic!("request {id} rejected: {code:?}"),
            }
        }
        for (i, src) in srcs.iter().enumerate() {
            let want = as_u32(&q.greedy_decode_incremental(src, max_new));
            assert_eq!(streams[&(i as u64)], want, "request {i}");
        }
    });
    assert!(door.idle());
    assert_eq!(door.kv_bytes_in_use(), 0);
}

#[test]
fn invalid_submissions_get_typed_rejects() {
    let (q, srcs) = setup(2);
    let (door, ()) = with_door(&q, DoorConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let base = Submit {
            id: 1,
            tenant: 0,
            priority: 1,
            deadline_ms: 0,
            max_new: 4,
            src: as_u32(&srcs[0]),
            prompt: vec![],
        };

        // Out-of-vocabulary token.
        let mut bad = base.clone();
        bad.src[0] = 40_000;
        let got = client
            .run_request(bad, Duration::from_secs(10), |_| {})
            .unwrap();
        assert_eq!(got, Completion::Rejected(RejectCode::BadToken));

        // Empty source.
        let mut empty = base.clone();
        empty.id = 2;
        empty.src.clear();
        let got = client
            .run_request(empty, Duration::from_secs(10), |_| {})
            .unwrap();
        assert_eq!(got, Completion::Rejected(RejectCode::TooLong));

        // Budget overflowing max_len.
        let mut long = base.clone();
        long.id = 3;
        long.max_new = 10_000;
        let got = client
            .run_request(long, Duration::from_secs(10), |_| {})
            .unwrap();
        assert_eq!(got, Completion::Rejected(RejectCode::TooLong));

        // Duplicate in-flight client id: request 4 and a reuse of its id
        // go out in one write, so the door reads the duplicate while
        // request 4 is still in flight however fast the engine is.
        let mut a = base.clone();
        a.id = 4;
        a.max_new = 64;
        let mut b = base.clone();
        b.id = 4;
        let mut both = encode_client(&ClientFrame::Submit(a));
        both.extend(encode_client(&ClientFrame::Submit(b)));
        client.send_raw(&both).unwrap();
        let (mut rejects, mut dones) = (0, 0);
        while rejects + dones < 2 {
            match client
                .recv(Duration::from_secs(30))
                .expect("recv")
                .expect("no timeout")
            {
                ServerFrame::Reject {
                    id: 4,
                    code: RejectCode::DuplicateId,
                } => rejects += 1,
                ServerFrame::Done { id: 4, .. } => dones += 1,
                ServerFrame::Token { id: 4, .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!((rejects, dones), (1, 1), "duplicate id must be rejected");
    });
    assert!(door.idle());
    assert_eq!(door.kv_bytes_in_use(), 0);
    assert_eq!(door.stats.rejects, 4);
}

#[test]
fn wall_deadlines_complete_every_request_without_leaks() {
    let (q, srcs) = setup(6);
    // One slot, and no request ends before its 48 tokens.
    let cfg = DoorConfig {
        engine: EngineConfig {
            ignore_eos: true,
            ..EngineConfig::with_max_batch(1)
        },
        ..DoorConfig::default()
    };
    let (door, deadlines) = with_door(&q, cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for (i, src) in srcs.iter().enumerate() {
            client
                .submit(Submit {
                    id: i as u64,
                    tenant: 0,
                    priority: 1,
                    // The back of the line waits behind five 48-token
                    // requests (240 decode steps) on a 1-slot engine:
                    // its 1 ms wall deadline cannot be met in any build.
                    deadline_ms: if i + 1 == srcs.len() { 1 } else { 0 },
                    max_new: 48,
                    src: as_u32(src),
                    prompt: vec![],
                })
                .expect("submit");
        }
        let mut done = 0;
        let mut deadlines = Vec::new();
        while done < srcs.len() {
            match client
                .recv(Duration::from_secs(30))
                .expect("recv")
                .expect("no timeout")
            {
                ServerFrame::Done { id, reason, .. } => {
                    done += 1;
                    if reason == FinishReason::Deadline {
                        deadlines.push(id);
                    }
                }
                ServerFrame::Reject { id, code } => panic!("request {id} rejected: {code:?}"),
                ServerFrame::Token { .. } => {}
            }
        }
        deadlines
    });
    assert_eq!(
        deadlines,
        vec![srcs.len() as u64 - 1],
        "only the back of the line is cut off"
    );
    assert!(door.idle(), "every request settled");
    assert_eq!(door.kv_bytes_in_use(), 0, "deadline paths release KV");
}

#[test]
fn shed_storm_accounts_for_every_request() {
    let (q, srcs) = setup(4);
    let cfg = DoorConfig {
        engine: EngineConfig::with_max_batch(2),
        admission: AdmissionConfig {
            max_buffered: 4,
            ..AdmissionConfig::default()
        },
        ..DoorConfig::default()
    };
    const N: usize = 40;
    let (door, (done, shed)) = with_door(&q, cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for i in 0..N {
            client
                .submit(Submit {
                    id: i as u64,
                    tenant: 0,
                    priority: (i % 3) as u8,
                    deadline_ms: 0,
                    max_new: 6,
                    src: as_u32(&srcs[i % srcs.len()]),
                    prompt: vec![],
                })
                .expect("submit");
        }
        let (mut done, mut shed) = (0u64, 0u64);
        while done + shed < N as u64 {
            match client
                .recv(Duration::from_secs(30))
                .expect("recv")
                .expect("no timeout")
            {
                ServerFrame::Done { .. } => done += 1,
                ServerFrame::Reject {
                    code: RejectCode::QueueFull,
                    ..
                } => shed += 1,
                ServerFrame::Reject { id, code } => panic!("request {id}: {code:?}"),
                ServerFrame::Token { .. } => {}
            }
        }
        (done, shed)
    });
    assert_eq!(done + shed, N as u64, "every request settled exactly once");
    assert!(shed > 0, "a 40-deep burst into a 4-deep buffer must shed");
    assert!(done > 0, "the buffer's worth of work still completes");
    assert!(door.idle());
    assert_eq!(door.kv_bytes_in_use(), 0);
}
