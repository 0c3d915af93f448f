//! End-to-end fault injection through the continuous batcher.
//!
//! These tests drive the full serving path — admission, batched decode
//! steps, ABFT checking in `quantized::QLinear`, rollback-and-retry —
//! against the `faults` crate's process-wide injector. They pin the
//! worker count to 1 (`tensor::par::set_thread_override`) so the global
//! GEMM-pass numbering is deterministic, and serialize on
//! [`faults::exclusive`] because the injector, checker switch, and
//! counters are process-wide.
//!
//! The CI fault matrix runs this binary with `ACCEL_FAULT_SEED` set at
//! several seeds, `ACCEL_ABFT=1`, and `ACCEL_THREADS=1`; the
//! `env_seeded_fault_is_detected_and_healed` test picks the seed up via
//! [`faults::env_seed`].

use std::sync::{MutexGuard, OnceLock};

use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite, FaultSpace, SiteClass};
use proptest::prelude::*;
use quantized::incremental::{KvArena, QuantIncrementalSession};
use quantized::{attention_cohorts, CacheRef, Cohort, QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serving::{ContinuousBatcher, EngineConfig, Request, Response};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS};

const MAX_NEW: usize = 6;

fn model() -> &'static QuantSeq2Seq {
    static MODEL: OnceLock<QuantSeq2Seq> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(0xFA017);
        let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
        let corpus = gen.corpus(8, &mut StdRng::seed_from_u64(0xFA018));
        QuantSeq2Seq::from_trained(&fp32, &corpus, SoftmaxMode::Hardware)
    })
}

fn sources() -> &'static Vec<Vec<usize>> {
    static SRCS: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    SRCS.get_or_init(|| {
        let cfg = ModelConfig::tiny_for_tests();
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
        gen.corpus(4, &mut StdRng::seed_from_u64(0xFA019))
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    })
}

/// Serializes a test on the process-wide fault state, pins the worker
/// count to 1 (deterministic global pass numbering), and restores
/// everything on drop — even when the test panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn acquire() -> Self {
        let g = faults::exclusive();
        tensor::par::set_thread_override(Some(1));
        faults::clear();
        faults::set_checker(Some(false));
        faults::reset_counters();
        FaultGuard(g)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
        faults::set_checker(None);
        faults::reset_counters();
        tensor::par::set_thread_override(None);
    }
}

fn engine_cfg(max_batch: usize) -> EngineConfig {
    EngineConfig {
        max_batch,
        bucket_max_waste: usize::MAX, // one bucket: admission in submit order
        ..EngineConfig::with_max_batch(max_batch)
    }
}

/// Runs `n` requests to completion on the current global fault state.
fn decode(max_batch: usize, n: usize) -> (Vec<Response>, serving::ServingStats) {
    let q = model();
    let srcs = sources();
    let mut engine = ContinuousBatcher::new(q, engine_cfg(max_batch)).unwrap();
    for (id, src) in srcs.iter().take(n).enumerate() {
        engine
            .submit(Request::new(id as u64, src.clone(), MAX_NEW))
            .unwrap();
    }
    (engine.run_to_completion(), engine.stats())
}

/// Fault-free responses, computed once with every hook off.
fn baseline(n: usize) -> Vec<Response> {
    // Caller holds the exclusive guard with hooks cleared.
    assert!(!faults::hooks_active(), "baseline needs hooks off");
    decode(4, n).0
}

/// Global GEMM-pass count consumed by admitting the first `n` sources
/// the way the engine's first refill does (every test here admits them
/// all at once): one stacked `start_sessions` over them. Every later
/// pass index lands inside batched decode steps (the retry-protected
/// region), starting with the first.
fn prefill_passes(n: usize) -> u64 {
    faults::install(FaultPlan::empty());
    let mut arena = quantized::incremental::KvArena::for_model(model());
    let srcs: Vec<&[usize]> = sources().iter().take(n).map(|s| s.as_slice()).collect();
    let _ = model().start_sessions(&mut arena, &srcs);
    let p = faults::with_injector(|i| i.passes_seen()).expect("plan installed");
    faults::clear();
    p
}

/// GEMM passes per batched decode step for the 2-layer tiny model: each
/// layer runs W_K, W_V (cache extension), W_Q, W_O twice (self + cross
/// attention) and the two FFN sublayers — 8 QLinear forwards per layer.
/// Faults scheduled inside the first step's window fire on the first
/// attempt and never on the (clean) retry.
const PASSES_PER_STEP: u64 = 16;

#[test]
fn admission_passes_end_where_the_first_decode_step_begins() {
    // `prefill_passes` must count exactly the passes the engine's
    // admission runs: one engine step (admission, then the first decode
    // step) consumes it plus one step's worth, so the pass windows the
    // tests below schedule from it open inside the first decode step.
    let _g = FaultGuard::acquire();
    for n in 1..=4 {
        let p0 = prefill_passes(n);
        faults::install(FaultPlan::empty());
        let mut engine = ContinuousBatcher::new(model(), engine_cfg(n)).unwrap();
        for (id, src) in sources().iter().take(n).enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), MAX_NEW))
                .unwrap();
        }
        assert!(engine.step());
        let seen = faults::with_injector(|i| i.passes_seen()).expect("plan installed");
        faults::clear();
        assert_eq!(seen, p0 + PASSES_PER_STEP, "{n} sources");
        assert_eq!(engine.stats().admission_batches, 1, "{n} sources");
        assert_eq!(engine.stats().sources_encoded, n, "{n} sources");
    }
}

#[test]
fn checker_on_without_plan_changes_no_output_bits() {
    let _g = FaultGuard::acquire();
    let want = baseline(3);
    faults::set_checker(Some(true));
    let (got, stats) = decode(4, 3);
    assert_eq!(got, want, "checker-on fault-free run must be bit-identical");
    assert_eq!(stats.faulty_steps, 0);
    assert_eq!(stats.retries, 0);
    let c = faults::counters();
    assert!(c.checked > 0, "checker must actually have run");
    assert_eq!(c.injected, 0);
    assert_eq!(c.detected, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) An empty `FaultPlan` — hooks live, pass counters advancing,
    /// checker on — produces bit-identical outputs at every batch shape.
    #[test]
    fn empty_plan_is_bit_identical(max_batch in 1usize..=4, n in 2usize..=4) {
        let _g = FaultGuard::acquire();
        let want = baseline(n);
        faults::install(FaultPlan::empty());
        faults::set_checker(Some(true));
        let (got, stats) = decode(max_batch, n);
        // Compare the decoded content; `first_token_step` is queueing
        // metadata and legitimately shifts with `max_batch`.
        let strip = |rs: &[Response]| -> Vec<(u64, Vec<usize>, bool)> {
            rs.iter().map(|r| (r.id, r.tokens.clone(), r.hit_eos())).collect()
        };
        prop_assert_eq!(strip(&got), strip(&want));
        prop_assert_eq!(stats.faulty_steps, 0);
        prop_assert_eq!(faults::counters().injected, 0);
        prop_assert_eq!(faults::counters().detected, 0);
    }
}

#[test]
fn weight_sram_flip_is_detected_and_healed_by_retry() {
    let _g = FaultGuard::acquire();
    let n = 2;
    let want = baseline(n);
    let p0 = prefill_passes(n);
    // Corrupt weight-SRAM words during the first batched decode step:
    // a few (pass, row) combinations so at least one meets a nonzero
    // activation (a weight delta against a zero activation is invisible
    // in the accumulators — the classic ABFT escape). All events stay
    // inside the first step's pass window, so the retry is clean.
    let mut events = Vec::new();
    for pass in p0 + 1..p0 + 6 {
        for row in 0..4 {
            events.push(FaultEvent {
                site: FaultSite::WeightSram { pass, row, col: 0 },
                kind: FaultKind::MultiBitFlip { mask: 0x60 },
            });
        }
    }
    faults::install(FaultPlan::from_events(events));
    faults::set_checker(Some(true));
    let (got, stats) = decode(n, n);
    let c = faults::counters();
    assert!(c.injected > 0, "weight faults must have fired");
    assert!(c.detected >= 1, "row checksum must flag the corruption");
    // Every event lies in the first decode step: that one step is
    // flagged, and its one replay runs past the plan.
    assert_eq!(stats.faulty_steps, 1, "only the first decode step is hit");
    assert_eq!(stats.retries, 1, "flagged step must be recomputed once");
    assert_eq!(stats.quarantined, 0);
    assert_eq!(
        got, want,
        "retry must heal the step; all requests bit-identical"
    );
}

#[test]
fn accumulator_flip_is_detected_and_healed_by_retry() {
    let _g = FaultGuard::acquire();
    let n = 1;
    let want = baseline(n);
    let p0 = prefill_passes(n);
    // One flipped accumulator register in the first decode step. Bit 20
    // shifts the drained value by ±2^20 — a guaranteed row-checksum
    // mismatch, unlike a weight fault.
    faults::install(FaultPlan::from_events(vec![FaultEvent {
        site: FaultSite::Accumulator {
            pass: p0 + 3,
            row: 0,
            col: 2,
        },
        kind: FaultKind::BitFlip { bit: 20 },
    }]));
    faults::set_checker(Some(true));
    let (got, stats) = decode(n, n);
    let c = faults::counters();
    assert_eq!(c.injected, 1, "exactly the one scheduled fault fires");
    assert!(c.detected >= 1);
    assert_eq!(stats.faulty_steps, 1);
    assert_eq!(stats.retries, 1, "one rollback-and-recompute heals it");
    assert_eq!(got, want);
}

#[test]
fn undetected_faults_without_checker_corrupt_silently() {
    // The negative control: the same accumulator flip with the checker
    // off is injected but never detected — nothing retries, nothing is
    // recorded. (Whether the output token stream changes depends on
    // where the flip lands in the argmax margin, so only the counters
    // are asserted.)
    let _g = FaultGuard::acquire();
    let n = 1;
    let p0 = prefill_passes(n);
    faults::install(FaultPlan::from_events(vec![FaultEvent {
        site: FaultSite::Accumulator {
            pass: p0 + 3,
            row: 0,
            col: 2,
        },
        kind: FaultKind::BitFlip { bit: 20 },
    }]));
    faults::set_checker(Some(false));
    let (_, stats) = decode(n, n);
    let c = faults::counters();
    assert_eq!(c.injected, 1);
    assert_eq!(c.detected, 0);
    assert_eq!(c.checked, 0);
    assert_eq!(stats.faulty_steps, 0);
    assert_eq!(stats.retries, 0);
}

#[test]
fn persistent_faults_quarantine_the_slot() {
    let _g = FaultGuard::acquire();
    let n = 2;
    let p0 = prefill_passes(1); // max_batch 1: only request 0 prefills
                                // A stuck-at-style barrage: every decode pass for a long horizon is
                                // corrupted, so retries can never find a clean window.
    let events: Vec<FaultEvent> = (p0..p0 + 400)
        .map(|pass| FaultEvent {
            site: FaultSite::Accumulator {
                pass,
                row: 0,
                col: 0,
            },
            kind: FaultKind::BitFlip { bit: 20 },
        })
        .collect();
    faults::install(FaultPlan::from_events(events));
    faults::set_checker(Some(true));
    let q = model();
    let srcs = sources();
    let mut cfg = engine_cfg(1);
    cfg.max_step_retries = 1;
    cfg.quarantine_after = 2;
    let mut engine = ContinuousBatcher::new(q, cfg).unwrap();
    for (id, src) in srcs.iter().take(n).enumerate() {
        engine
            .submit(Request::new(id as u64, src.clone(), MAX_NEW))
            .unwrap();
    }
    let responses = engine.run_to_completion();
    let stats = engine.stats();
    assert_eq!(stats.quarantined, 1, "the only slot must be withdrawn");
    assert_eq!(engine.quarantined_len(), 1);
    // Request 0 retired degraded (whatever it had); request 1 was never
    // started — stranded in the queue, not silently lost.
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, 0);
    assert!(!responses[0].hit_eos());
    assert_eq!(engine.pending_len(), 1);
    assert!(stats.faulty_steps >= 2, "every attempt stays flagged");
}

#[test]
fn env_seeded_fault_is_detected_and_healed() {
    // The CI fault-matrix entry point: `ACCEL_FAULT_SEED=<seed>
    // ACCEL_ABFT=1 ACCEL_THREADS=1 cargo test --test fault_injection`.
    // Without the env var it still runs at a pinned seed.
    let _g = FaultGuard::acquire();
    let seed = faults::env_seed().unwrap_or(7);
    let n = 2;
    let want = baseline(n);
    let p0 = prefill_passes(n);
    // One seeded accumulator flip somewhere in the first batched decode
    // step (2 active rows, well inside d_model columns): guaranteed to
    // fire, guaranteed to mismatch the row checksum, healed by retry.
    let plan = FaultPlan::seeded(
        seed,
        1,
        &FaultSpace {
            index_lo: p0 + 1,
            index_hi: p0 + PASSES_PER_STEP - 1,
            rows: 2,
            cols: 8,
            classes: vec![SiteClass::Accumulator],
        },
    );
    faults::install(plan.clone());
    faults::set_checker(Some(true));
    let (got, stats) = decode(n, n);
    let c = faults::counters();
    assert_eq!(c.injected, 1, "seed {seed}: the scheduled flip must fire");
    assert!(c.detected >= 1, "seed {seed}: must be detected");
    assert_eq!(
        stats.faulty_steps, 1,
        "seed {seed}: the flip lands in the first decode step"
    );
    assert_eq!(stats.retries, 1, "seed {seed}: must be retried once");
    assert_eq!(got, want, "seed {seed}: retry must restore bit-identity");
    // Reproducibility: the same seed regenerates the same plan.
    assert_eq!(
        plan,
        FaultPlan::seeded(
            seed,
            1,
            &FaultSpace {
                index_lo: p0 + 1,
                index_hi: p0 + PASSES_PER_STEP - 1,
                rows: 2,
                cols: 8,
                classes: vec![SiteClass::Accumulator],
            }
        )
    );
}

/// Layer 0's self- and cross-attention cohort plans for one decode row
/// per session — after a step, what that step's attention planned.
fn decode_plans(arena: &KvArena, sessions: &[QuantIncrementalSession]) -> [Vec<Cohort>; 2] {
    let groups = vec![1; sessions.len()];
    let (sk, sv): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) = sessions
        .iter()
        .map(|s| s.self_attention_caches(arena, 0))
        .unzip();
    let (ck, cv): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) =
        sessions.iter().map(|s| s.cross_attention_caches(0)).unzip();
    [
        attention_cohorts(&groups, &sk, &sv, true),
        attention_cohorts(&groups, &ck, &cv, false),
    ]
}

#[test]
fn checker_on_forks_keep_their_cohort_and_heal_a_seeded_flip() {
    // Three forks of one prefix snapshot decode together with the checker
    // on; a seeded accumulator flip lands in their first step. The step
    // is flagged, rolled back and replayed as the engine's retry does,
    // the forks attend their shared pages (and shared cross K/V) as one
    // cohort throughout — through the same fused decode drains as a
    // checker-off run — and every step's logits equal that run's bit for
    // bit.
    let _g = FaultGuard::acquire();
    let seed = faults::env_seed().unwrap_or(7);
    let (q, src, page) = (model(), &sources()[0], 4);
    let mut prompt = vec![BOS];
    prompt.extend(src.iter().cycle().take(11));
    let mut arena = KvArena::with_page_rows(q.tgt_embedding().d_model(), page);
    let mut snap = q.start_session(&mut arena, src);
    q.prefill_sessions(&mut arena, &mut [&mut snap], &[&prompt]);
    let cohort = |shared| {
        vec![Cohort {
            members: vec![0, 1, 2],
            shared,
        }]
    };
    let planned = [cohort(prompt.len() / page * page), cohort(src.len())];

    let mut run = |checker: bool| {
        let mut forks: Vec<QuantIncrementalSession> =
            (0..3).map(|_| snap.fork(&mut arena)).collect();
        let (mut tokens, mut steps, mut retries, mut fused_ops) = (vec![5, 6, 7], vec![], 0, 0);
        faults::set_checker(Some(checker));
        for _ in 0..4 {
            let chunks: Vec<[usize; 1]> = tokens.iter().map(|&t| [t]).collect();
            let chunks: Vec<&[usize]> = chunks.iter().map(|c| c.as_slice()).collect();
            let before = graph::fusion_tally();
            let logits = loop {
                let detected = faults::counters().detected;
                let mut refs: Vec<&mut QuantIncrementalSession> = forks.iter_mut().collect();
                let logits = q.prefill_sessions(&mut arena, &mut refs, &chunks);
                if faults::counters().detected == detected {
                    break logits;
                }
                retries += 1;
                forks
                    .iter_mut()
                    .for_each(|f| f.rollback_rows(&mut arena, 1));
            };
            fused_ops = graph::fusion_tally().since(&before).ops_fused;
            assert_eq!(decode_plans(&arena, &forks), planned, "checker {checker}");
            tokens = logits.iter().map(|l| tensor::ops::argmax(l)).collect();
            steps.push(
                logits
                    .concat()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>(),
            );
        }
        faults::clear();
        faults::set_checker(Some(false));
        forks.iter_mut().for_each(|f| f.release(&mut arena));
        (steps, retries, fused_ops)
    };

    let (want, clean_retries, clean_fused) = run(false);
    assert_eq!(clean_retries, 0);
    faults::reset_counters();
    let space = FaultSpace {
        index_lo: 1,
        index_hi: PASSES_PER_STEP - 1,
        rows: 3,
        cols: 8,
        classes: vec![SiteClass::Accumulator],
    };
    faults::install(FaultPlan::seeded(seed, 1, &space));
    let (got, retries, fused) = run(true);
    let c = faults::counters();
    assert_eq!(c.injected, 1, "seed {seed}: the scheduled flip must fire");
    assert!(c.detected >= 1, "seed {seed}: must be detected");
    assert_eq!(retries, 1, "seed {seed}: the first step replays once");
    assert_eq!(got, want, "seed {seed}: survivors must be bit-identical");
    assert_eq!(fused, clean_fused, "a fault-free step drains alike");
    snap.release(&mut arena);
    assert_eq!(arena.kv_bytes_in_use(), 0);
}
