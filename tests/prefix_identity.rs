//! Differential suite for the shared-prefix KV cache: decode from a
//! forked, page-aligned prefix snapshot must be **byte-identical** to a
//! cold start that prefilled every row itself — through the INT8
//! incremental decoder's sessions, the serving engine's admission path, and
//! through an ABFT fault-rollback that lands on a shared page boundary
//! (the rollback must copy-on-write, never mutate a page the cache
//! still holds).

use quantized::incremental::{KvArena, QuantIncrementalSession};
use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serving::{ContinuousBatcher, EngineConfig, Request, Response};
use tensor::Policy;
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS};

fn quant_model() -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(0x9EF1);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let srcs = gen
        .corpus(4, &mut StdRng::seed_from_u64(0x9EF2))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let corpus = gen.corpus(8, &mut StdRng::seed_from_u64(0x9EF3));
    (
        QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware),
        srcs,
    )
}

/// Feeds `rows` to `s` one step at a time, then greedily decodes `n`
/// tokens from the last row's logits. Returns every logits row from the
/// last fed one on, as raw bits, plus the chosen tokens.
fn replay_then_decode(
    q: &QuantSeq2Seq,
    arena: &mut KvArena,
    s: &mut QuantIncrementalSession,
    rows: &[usize],
    n: usize,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut logits = Vec::new();
    for &t in rows {
        logits = q.step_session(arena, s, t);
    }
    let mut bits = vec![logits.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()];
    let mut tokens = Vec::new();
    for _ in 0..n {
        let next = tensor::ops::argmax(&logits);
        tokens.push(next);
        logits = q.step_session(arena, s, next);
        bits.push(logits.iter().map(|x| x.to_bits()).collect());
    }
    (bits, tokens)
}

#[test]
fn int8_decode_from_forked_prefix_is_byte_identical_to_cold_start() {
    let (q, srcs) = quant_model();
    let src = &srcs[0];
    let prompt: Vec<usize> = src.iter().cycle().take(13).copied().collect();
    let mut target = vec![BOS];
    target.extend_from_slice(&prompt);
    let mut arena = KvArena::with_page_rows(q.tgt_embedding().d_model(), 4);

    // Cold: prefill every row, then decode.
    let mut cold = q.start_session(&mut arena, src);
    let (want_bits, want_tokens) = replay_then_decode(&q, &mut arena, &mut cold, &target, 6);
    cold.release(&mut arena);

    // Build the cache entry the way the engine does: full prefill,
    // fork, roll the fork back to a page boundary.
    let mut live = q.start_session(&mut arena, src);
    let _ = replay_then_decode(&q, &mut arena, &mut live, &target, 0);
    let aligned = (target.len() / 4) * 4;
    let mut entry = live.fork(&mut arena);
    entry.rollback_rows(&mut arena, target.len() - aligned);
    live.release(&mut arena);

    // Hit: fork the entry, replay only the suffix, decode. Every logits
    // row must match the cold run bit for bit.
    let mut hit = entry.fork(&mut arena);
    let (bits, tokens) = replay_then_decode(&q, &mut arena, &mut hit, &target[aligned..], 6);
    assert_eq!(tokens, want_tokens);
    assert_eq!(bits, want_bits, "logits must be byte-identical");

    // Roll the hit session back *into* the shared region (mid page) and
    // replay: the re-pushed rows must copy-on-write, and the replayed
    // continuation stays byte-identical.
    let back_to = aligned - 2;
    hit.rollback_rows(&mut arena, hit.pos() - back_to);
    let (bits, tokens) = replay_then_decode(&q, &mut arena, &mut hit, &target[back_to..], 6);
    assert_eq!(tokens, want_tokens, "after mid-page rollback");
    assert_eq!(bits, want_bits, "after mid-page rollback");
    hit.release(&mut arena);

    // The entry was never mutated by any of that: a fresh fork still
    // reproduces the cold run.
    let mut again = entry.fork(&mut arena);
    let (bits, _) = replay_then_decode(&q, &mut arena, &mut again, &target[aligned..], 6);
    assert_eq!(bits, want_bits, "entry must be immutable");
    again.release(&mut arena);
    entry.release(&mut arena);
    assert_eq!(arena.kv_bytes_in_use(), 0, "no page leaked");
}

fn decoded(responses: &[Response]) -> Vec<(u64, Vec<usize>, bool)> {
    responses
        .iter()
        .map(|r| (r.id, r.tokens.clone(), r.hit_eos()))
        .collect()
}

#[test]
fn int8_engine_shared_prefix_serving_is_bit_identical_to_cold() {
    let (q, srcs) = quant_model();
    let base: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
    let mut extended = base.clone();
    extended.extend(srcs[0].iter().cycle().take(10));
    // Shares base's first 20 tokens, then a tail base never had: served
    // by forking base's snapshot and rolling back to the divergence.
    let mut diverged: Vec<usize> = base[..20].to_vec();
    diverged.extend(srcs[1].iter().cycle().take(15));
    // Exact repeats, a prompt *extending* a cached prefix, the same
    // prompt under a different source (which must never reuse: the
    // cross-attention K/V belong to the source), and a diverged tail.
    let reqs = || -> Vec<Request> {
        vec![
            Request::new(0, srcs[0].clone(), 6).with_prompt(base.clone()),
            Request::new(1, srcs[0].clone(), 6).with_prompt(base.clone()),
            Request::new(2, srcs[0].clone(), 6).with_prompt(extended.clone()),
            Request::new(3, srcs[1].clone(), 6).with_prompt(base.clone()),
            Request::new(4, srcs[0].clone(), 6).with_prompt(diverged.clone()),
        ]
    };
    let run = |budget: usize| {
        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefix_cache_bytes = budget;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        for r in reqs() {
            engine.submit(r).unwrap();
        }
        (decoded(&engine.run_to_completion()), engine.stats())
    };
    let (cold_tokens, cold) = run(0);
    // The sequential references pin absolute correctness of the cold run.
    for (resp, (s, p)) in cold_tokens.iter().zip([
        (&srcs[0], &base),
        (&srcs[0], &base),
        (&srcs[0], &extended),
        (&srcs[1], &base),
        (&srcs[0], &diverged),
    ]) {
        assert_eq!(resp.1, q.greedy_decode_with_prompt(s, p, 6));
    }
    // The warm engine runs under every policy of the sweep: its snapshot
    // boundaries follow the page height.
    for policy in Policy::sweep() {
        eprintln!("prefix_identity: {policy:?}");
        let (warm_tokens, warm) = policy.run(|| run(usize::MAX));
        assert_eq!(
            warm_tokens, cold_tokens,
            "prefix reuse must not change any token, {policy:?}"
        );
        // Request 1 reuses request 0's full aligned prefix; request 2
        // finds the same entry as a *proper prefix* of its longer prompt;
        // request 3 must miss despite an identical prompt; request 4
        // reuses only the 20 shared tokens (plus BOS) via rollback of a
        // deeper fork.
        assert_eq!(warm.prefix_hits, 3, "{policy:?}");
        assert!(warm.prefix_misses >= 2, "{policy:?}");
        assert_eq!(
            cold.prefill_rows - warm.prefill_rows,
            warm.prefix_rows_reused,
            "every reused row is a prefill row the warm engine skipped, {policy:?}"
        );
        assert!(warm.prefix_rows_reused > 0, "{policy:?}");
    }
}

#[test]
fn fault_rollback_on_shared_page_boundary_heals_without_mutating_the_cache() {
    use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};

    let (q, srcs) = quant_model();
    let prompt: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
    let want = q.greedy_decode_with_prompt(&srcs[0], &prompt, 6);
    let mut cfg = EngineConfig::with_max_batch(1);
    cfg.prefix_cache_bytes = usize::MAX;
    let request = |id| Request::new(id, srcs[0].clone(), 6).with_prompt(prompt.clone());

    // The GEMM passes request 0 runs on a cold engine: the checker
    // runs once per pass.
    let mut warm = ContinuousBatcher::new(&q, cfg).unwrap().with_checker(true);
    warm.submit(request(0)).unwrap();
    warm.run_to_completion();
    let p0 = warm.stats().checked as u64;

    // Request 1 hits the cache: its session forks the snapshot at a
    // page boundary and prefills only the suffix. Corrupt an
    // accumulator early in that first post-hit step — the detected
    // fault rolls the session back to the *shared* boundary and
    // replays. A rollback that freed or wrote a shared page would
    // corrupt the cache entry (caught below) or the replay (caught
    // here).
    let mut engine = ContinuousBatcher::new(&q, cfg)
        .unwrap()
        .with_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::Accumulator {
                pass: p0 + 3,
                row: 0,
                col: 2,
            },
            kind: FaultKind::BitFlip { bit: 20 },
        }]))
        .with_checker(true);

    // Request 0 warms the cache fault-free.
    engine.submit(request(0)).unwrap();
    let r0 = engine.run_to_completion();
    assert_eq!(r0[0].tokens, want);
    assert!(
        engine.prefix_cache_entries() >= 1,
        "prefill was snapshotted"
    );
    assert_eq!(engine.stats().injected, 0, "request 0 ran fault-free");

    engine.submit(request(1)).unwrap();
    let r1 = engine.run_to_completion();
    let stats = engine.stats();
    assert_eq!(stats.injected, 1, "the scheduled flip must fire");
    assert!(stats.detected >= 1, "the checker must flag it");
    assert!(stats.retries >= 1, "the flagged step must be replayed");
    assert_eq!(stats.prefix_hits, 1);
    assert_eq!(
        r1[0].tokens, want,
        "retry from the shared boundary must heal"
    );

    // Request 2 hits the same entry past the plan's one event:
    // identical output proves the faulty attempt's rows never reached
    // the shared pages.
    engine.submit(request(2)).unwrap();
    let r2 = engine.run_to_completion();
    assert_eq!(engine.stats().prefix_hits, 2);
    assert_eq!(engine.stats().injected, 1);
    assert_eq!(
        r2[0].tokens, want,
        "cache entry must survive the rollback intact"
    );
}
