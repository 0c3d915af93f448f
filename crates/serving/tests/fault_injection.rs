//! End-to-end fault injection through the continuous batcher.
//!
//! These tests drive the full serving path — admission, batched decode
//! steps, ABFT checking in `quantized::QLinear`, rollback-and-retry —
//! against each engine's own fault plan and checker
//! (`ContinuousBatcher::with_fault_plan` / `with_checker`). GEMM passes
//! are numbered per engine and every one runs on the stepping thread,
//! so the numbering does not depend on the worker count and the tests
//! share no state.
//!
//! The CI fault matrix runs this binary with `ACCEL_FAULT_SEED` set at
//! several seeds, `ACCEL_ABFT=1`, and `ACCEL_THREADS` at 1 and 2; the
//! `env_seeded_fault_is_detected_and_healed` test picks the seed up via
//! [`tensor::envcfg::fault_seed`].

use std::sync::OnceLock;

use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite, FaultSpace, FaultState, SiteClass};
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

/// An engine with `max_batch` slots, `plan` installed and the checker
/// on or off (`ACCEL_ABFT` notwithstanding).
fn engine(max_batch: usize, plan: Option<FaultPlan>, checker: bool) -> ContinuousBatcher<'static> {
    let engine = ContinuousBatcher::new(model(), EngineConfig::with_max_batch(max_batch))
        .unwrap()
        .with_checker(checker);
    match plan {
        Some(plan) => engine.with_fault_plan(plan),
        None => engine,
    }
}

/// Runs the first `n` sources to completion with `plan` and the checker.
fn decode(
    max_batch: usize,
    n: usize,
    plan: Option<FaultPlan>,
    checker: bool,
) -> (Vec<Response>, serving::ServingStats) {
    let mut engine = engine(max_batch, plan, checker);
    for (id, src) in sources().iter().take(n).enumerate() {
        engine
            .submit(Request::new(id as u64, src.clone(), MAX_NEW))
            .unwrap();
    }
    (engine.run_to_completion(), engine.stats())
}

/// Fault-free responses, with every hook off.
fn baseline(n: usize) -> Vec<Response> {
    let (responses, stats) = decode(4, n, None, false);
    assert_eq!(stats.checked, 0, "baseline needs hooks off");
    responses
}

/// GEMM-pass count consumed by admitting the first `n` sources the way
/// the engine's first refill does (every test here admits them all at
/// once): one stacked `start_sessions` over them. Every later pass
/// index lands inside batched decode steps, starting with the first.
fn prefill_passes(n: usize) -> u64 {
    let mut state = FaultState::new(Some(FaultPlan::empty()), false);
    let mut arena = KvArena::for_model(model());
    let srcs: Vec<&[usize]> = sources().iter().take(n).map(|s| s.as_slice()).collect();
    state.run(|| model().start_sessions(&mut arena, &srcs));
    state.injector.expect("plan installed").passes_seen()
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
    // The checker runs once per pass, so its count is the pass count.
    for n in 1..=4 {
        let p0 = prefill_passes(n);
        let mut engine = engine(n, None, true);
        for (id, src) in sources().iter().take(n).enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), MAX_NEW))
                .unwrap();
        }
        assert!(engine.step());
        let seen = engine.stats().checked as u64;
        assert_eq!(seen, p0 + PASSES_PER_STEP, "{n} sources");
        assert_eq!(engine.stats().admission_batches, 1, "{n} sources");
        assert_eq!(engine.stats().sources_encoded, n, "{n} sources");
    }
}

#[test]
fn checker_on_without_plan_changes_no_output_bits() {
    let want = baseline(3);
    let (got, c) = decode(4, 3, None, true);
    assert_eq!(got, want, "checker-on fault-free run must be bit-identical");
    assert_eq!(c.faulty_steps, 0);
    assert_eq!(c.retries, 0);
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
        let want = baseline(n);
        let (got, stats) = decode(max_batch, n, Some(FaultPlan::empty()), true);
        // Compare the decoded content; `first_token_step` is queueing
        // metadata and legitimately shifts with `max_batch`.
        let strip = |rs: &[Response]| -> Vec<(u64, Vec<usize>, bool)> {
            rs.iter().map(|r| (r.id, r.tokens.clone(), r.hit_eos())).collect()
        };
        prop_assert_eq!(strip(&got), strip(&want));
        prop_assert_eq!(stats.faulty_steps, 0);
        prop_assert_eq!(stats.injected, 0);
        prop_assert_eq!(stats.detected, 0);
    }
}

#[test]
fn weight_sram_flip_is_detected_and_healed_by_retry() {
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
    let (got, stats) = decode(n, n, Some(FaultPlan::from_events(events)), true);
    let c = stats;
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
    let n = 1;
    let want = baseline(n);
    let p0 = prefill_passes(n);
    // One flipped accumulator register in the first decode step. Bit 20
    // shifts the drained value by ±2^20 — a guaranteed row-checksum
    // mismatch, unlike a weight fault.
    let (got, stats) = decode(n, n, Some(accumulator_flip(p0 + 3)), true);
    let c = stats;
    assert_eq!(c.injected, 1, "exactly the one scheduled fault fires");
    assert!(c.detected >= 1);
    assert_eq!(stats.faulty_steps, 1);
    assert_eq!(stats.retries, 1, "one rollback-and-recompute heals it");
    assert_eq!(got, want);
}

#[test]
fn admission_flip_is_detected_and_healed_by_retry() {
    // An upset inside admission's stacked encoder pass corrupts the
    // encoder memory and cross K/V every later step attends. Pass 1 is
    // one of the passes where the flip changes the decoded tokens, so
    // the detection must release the opened sessions and re-encode.
    let n = 2;
    let want = baseline(n);
    assert!(1 < prefill_passes(n), "pass 1 lies inside the admission");
    let (got, stats) = decode(n, n, Some(accumulator_flip(1)), true);
    assert_eq!(got, want, "the re-encode must heal admission");
    assert_eq!(stats.injected, 1);
    assert!(stats.detected >= 1);
    assert_eq!(stats.faulty_steps, 1, "only the admission pass is hit");
    assert_eq!(stats.retries, 1, "one re-encode heals it");
    assert_eq!(stats.quarantined, 0);
}

#[test]
fn undetected_faults_without_checker_corrupt_silently() {
    // The negative control: the same accumulator flip with the checker
    // off is injected but never detected — nothing retries, nothing is
    // recorded. (Whether the output token stream changes depends on
    // where the flip lands in the argmax margin, so only the counters
    // are asserted.)
    let n = 1;
    let p0 = prefill_passes(n);
    let (_, stats) = decode(n, n, Some(accumulator_flip(p0 + 3)), false);
    let c = stats;
    assert_eq!(c.injected, 1);
    assert_eq!(c.detected, 0);
    assert_eq!(c.checked, 0);
    assert_eq!(stats.faulty_steps, 0);
    assert_eq!(stats.retries, 0);
}

#[test]
fn persistent_faults_quarantine_the_slot() {
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
    let q = model();
    let srcs = sources();
    let mut cfg = EngineConfig::with_max_batch(1);
    cfg.max_step_retries = 1;
    cfg.quarantine_after = 2;
    let mut engine = ContinuousBatcher::new(q, cfg)
        .unwrap()
        .with_fault_plan(FaultPlan::from_events(events))
        .with_checker(true);
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

/// A single accumulator bit-20 flip on GEMM pass `pass`: a guaranteed
/// row-checksum mismatch.
fn accumulator_flip(pass: u64) -> FaultPlan {
    FaultPlan::from_events(vec![FaultEvent {
        site: FaultSite::Accumulator {
            pass,
            row: 0,
            col: 2,
        },
        kind: FaultKind::BitFlip { bit: 20 },
    }])
}

/// The seeded campaign's plan: one accumulator flip somewhere in the
/// first batched decode step after `p0` admission passes (`rows` active
/// rows, well inside d_model columns) — guaranteed to fire, guaranteed
/// to mismatch the row checksum, healed by retry.
fn campaign_plan(seed: u64, p0: u64, rows: usize) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        1,
        &FaultSpace {
            index_lo: p0 + 1,
            index_hi: p0 + PASSES_PER_STEP - 1,
            rows,
            cols: 8,
            classes: vec![SiteClass::Accumulator],
        },
    )
}

#[test]
fn env_seeded_fault_is_detected_and_healed() {
    // The CI fault-matrix entry point: `ACCEL_FAULT_SEED=<seed>
    // ACCEL_ABFT=1 cargo test --test fault_injection`. Without the env
    // var it still runs at a pinned seed. The campaign runs at one and
    // two workers and must land on the same pass and heal to the same
    // tokens at both: passes are numbered on the stepping thread.
    let seed = tensor::envcfg::fault_seed().unwrap_or(7);
    let n = 2;
    let want = baseline(n);
    let campaign = |threads: usize| {
        let policy = tensor::Policy {
            threads,
            ..tensor::Policy::current()
        };
        policy.run(|| {
            let p0 = prefill_passes(n);
            let plan = campaign_plan(seed, p0, n);
            let (got, stats) = decode(n, n, Some(plan.clone()), true);
            (p0, plan, got, stats)
        })
    };
    let (p0, plan, got, stats) = campaign(1);
    assert_eq!(
        stats.injected, 1,
        "seed {seed}: the scheduled flip must fire"
    );
    assert!(stats.detected >= 1, "seed {seed}: must be detected");
    assert_eq!(
        stats.faulty_steps, 1,
        "seed {seed}: the flip lands in the first decode step"
    );
    assert_eq!(stats.retries, 1, "seed {seed}: must be retried once");
    assert_eq!(got, want, "seed {seed}: retry must restore bit-identity");
    // Reproducibility: the same seed regenerates the same plan.
    assert_eq!(plan, campaign_plan(seed, p0, n));
    assert_eq!(
        campaign(2),
        (p0, plan, got, stats),
        "seed {seed}: two workers run the campaign as one does"
    );
}

#[test]
fn two_engines_on_two_threads_keep_their_own_faults() {
    // Engine A carries a seeded single upset and the checker; engine B,
    // stepping at the same time on another thread, has no plan and the
    // checker on. Neither sees the other's fault state or fusion tally.
    let seed = tensor::envcfg::fault_seed().unwrap_or(7);
    let n = 2;
    let plan = campaign_plan(seed, prefill_passes(n), n);
    let a = || decode(n, n, Some(plan.clone()), true);
    let b = || decode(n, n, None, true);
    let (solo_a, solo_b) = (a(), b());
    let ((got_a, stats_a), (got_b, stats_b)) = std::thread::scope(|s| {
        let a = s.spawn(a);
        let b = s.spawn(b);
        (a.join().unwrap(), b.join().unwrap())
    });
    for (got, src) in got_b.iter().zip(sources()) {
        assert_eq!(got.tokens, model().greedy_decode_incremental(src, MAX_NEW));
    }
    let clean = (stats_b.faulty_steps, stats_b.retries, stats_b.detected);
    assert_eq!(clean, (0, 0, 0), "B sees none of A's upset");
    assert!(stats_b.checked > 0, "B's checker ran");
    assert_eq!(stats_a.injected, 1, "A's upset fires");
    assert!(stats_a.detected >= 1 && stats_a.retries == 1);
    assert_eq!(got_a, baseline(n), "A heals bit-identically");
    for ((got, stats), (want, solo)) in [(got_a, stats_a), (got_b, stats_b)]
        .into_iter()
        .zip([solo_a, solo_b])
    {
        assert_eq!(got, want);
        assert_eq!(
            (stats.ops_fused, stats.intermediates_elided_bytes),
            (solo.ops_fused, solo.intermediates_elided_bytes),
            "fusion tally of a solo run"
        );
        assert_eq!(stats, solo);
    }
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
    let seed = tensor::envcfg::fault_seed().unwrap_or(7);
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

    let mut run = |state: &mut FaultState| {
        let checker = state.checker;
        let mut forks: Vec<QuantIncrementalSession> =
            (0..3).map(|_| snap.fork(&mut arena)).collect();
        let (mut tokens, mut steps, mut retries, mut fused_ops) = (vec![5, 6, 7], vec![], 0, 0);
        for _ in 0..4 {
            let chunks: Vec<[usize; 1]> = tokens.iter().map(|&t| [t]).collect();
            let chunks: Vec<&[usize]> = chunks.iter().map(|c| c.as_slice()).collect();
            graph::tally::take();
            let logits = loop {
                let detected = state.counters.detected;
                let mut refs: Vec<&mut QuantIncrementalSession> = forks.iter_mut().collect();
                let logits = state.run(|| q.prefill_sessions(&mut arena, &mut refs, &chunks));
                if state.counters.detected == detected {
                    break logits;
                }
                retries += 1;
                forks
                    .iter_mut()
                    .for_each(|f| f.rollback_rows(&mut arena, 1));
            };
            fused_ops = graph::tally::take().ops_fused;
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
        forks.iter_mut().for_each(|f| f.release(&mut arena));
        (steps, retries, fused_ops)
    };

    let (want, clean_retries, clean_fused) = run(&mut FaultState::default());
    assert_eq!(clean_retries, 0);
    let space = FaultSpace {
        index_lo: 1,
        index_hi: PASSES_PER_STEP - 1,
        rows: 3,
        cols: 8,
        classes: vec![SiteClass::Accumulator],
    };
    let mut state = FaultState::new(Some(FaultPlan::seeded(seed, 1, &space)), true);
    let (got, retries, fused) = run(&mut state);
    let c = state.counters;
    assert_eq!(c.injected, 1, "seed {seed}: the scheduled flip must fire");
    assert!(c.detected >= 1, "seed {seed}: must be detected");
    assert_eq!(retries, 1, "seed {seed}: the first step replays once");
    assert_eq!(got, want, "seed {seed}: survivors must be bit-identical");
    assert_eq!(fused, clean_fused, "a fault-free step drains alike");
    snap.release(&mut arena);
    assert_eq!(arena.kv_bytes_in_use(), 0);
}
