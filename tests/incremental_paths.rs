//! Cross-crate differential decode. The incremental decoder has one
//! step body (`QuantSeq2Seq::prefill_sessions`); the same prompts pushed
//! through it one session at a time, batched, and in ragged chunks must
//! produce bit-identical logits — independent of batch composition and chunk
//! shape — and, against the full-prefix recompute (which shares no
//! attention code with the cached path), the same bits and the same
//! greedy decodes, every CI run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Mat;
use transformer_accel::quantized::incremental::{KvArena, QuantIncrementalSession};
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS, EOS};

fn setup() -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(0x1DE);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(0x1DF));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let srcs = corpus.into_iter().map(|(s, _)| s).collect();
    (quant, srcs)
}

#[test]
fn quant_single_row_and_batched_decodes_agree() {
    let (quant, srcs) = setup();
    for src in &srcs {
        assert_eq!(
            quant.greedy_decode(src, BOS, EOS, 8),
            quant.greedy_decode_incremental(src, 8),
            "src {src:?}"
        );
    }
    let mut arena_s = KvArena::for_model(&quant);
    let mut arena_b = KvArena::for_model(&quant);
    let mut singles: Vec<QuantIncrementalSession> = srcs
        .iter()
        .map(|s| quant.start_session(&mut arena_s, s))
        .collect();
    let mut batched: Vec<QuantIncrementalSession> = srcs
        .iter()
        .map(|s| quant.start_session(&mut arena_b, s))
        .collect();
    let mut tokens: Vec<usize> = vec![BOS; srcs.len()];
    for _ in 0..6 {
        let want: Vec<Vec<f32>> = singles
            .iter_mut()
            .zip(&tokens)
            .map(|(s, &t)| quant.step_session(&mut arena_s, s, t))
            .collect();
        let mut refs: Vec<&mut QuantIncrementalSession> = batched.iter_mut().collect();
        let got = quant.step_sessions(&mut arena_b, &mut refs, &tokens);
        assert_eq!(want, got, "batched logits must be bit-identical");
        tokens = want.iter().map(|l| tensor::ops::argmax(l)).collect();
    }
}

/// The greedy head's batched entry point against the logits one: on
/// forks of the same sessions, `prefill_sessions_greedy` returns the
/// `argmax` of the logits `prefill_sessions` returns — for mixed chunk
/// lengths (prefill chunks and single decode rows in one call), whatever
/// the worker count and with the SIMD tiers forced off.
#[test]
fn greedy_prefill_tokens_are_the_argmax_of_the_logits() {
    let (quant, srcs) = setup();
    let prompts: [&[usize]; 4] = [&[BOS, 5, 9, 4, 11], &[BOS], &[BOS, 7, 7], &[BOS, 3]];
    for (threads, simd) in [(1, None), (2, None), (1, Some(false)), (2, Some(false))] {
        tensor::par::set_thread_override(Some(threads));
        tensor::simd::set_simd_override(simd);
        let mut arena = KvArena::for_model(&quant);
        let mut base: Vec<QuantIncrementalSession> = srcs
            .iter()
            .map(|s| quant.start_session(&mut arena, s))
            .collect();
        let mut chunks: Vec<Vec<usize>> = prompts.iter().map(|p| p.to_vec()).collect();
        let mut screened = 0;
        for step in 0..5 {
            let mut forks: Vec<QuantIncrementalSession> =
                base.iter().map(|s| s.fork(&mut arena)).collect();
            let chunk_refs: Vec<&[usize]> = chunks.iter().map(|c| c.as_slice()).collect();
            let mut refs: Vec<&mut QuantIncrementalSession> = forks.iter_mut().collect();
            let logits = quant.prefill_sessions(&mut arena, &mut refs, &chunk_refs);
            let want: Vec<usize> = logits.iter().map(|l| tensor::ops::argmax(l)).collect();
            let mut refs: Vec<&mut QuantIncrementalSession> = base.iter_mut().collect();
            let (got, stats) = quant.prefill_sessions_greedy(&mut arena, &mut refs, &chunk_refs);
            assert_eq!(got, want, "step {step}, threads {threads}, simd {simd:?}");
            for (fork, live) in forks.iter_mut().zip(&base) {
                assert_eq!(fork.pos(), live.pos(), "both heads advance alike");
                fork.release(&mut arena);
            }
            screened += stats.candidate_tiles;
            assert_eq!(stats.fallback_rows, 0, "step {step}");
            // Next step: every session decodes one row.
            chunks = got.into_iter().map(|t| vec![t]).collect();
        }
        assert!(screened >= 5 * srcs.len(), "every row verifies a tile");
        tensor::simd::set_simd_override(None);
        tensor::par::set_thread_override(None);
    }
}

/// The ragged chunk schedule of the two tests below: two sessions take
/// chunks of 1, 2, 63, 64 and 65 rows (in different orders, so each call
/// mixes lengths and the sessions sit at different positions) at
/// contexts that are never a multiple of 16 or 64 — every row's legal
/// prefix ends mid-vector and mid-tile. Contexts after each chunk:
/// 3, 68, 69, 132, 134, 198 and 5, 6, 70, 72, 137, 200. Returns the
/// chunk lengths and one prompt per session covering them.
fn ragged_schedule(srcs: &[Vec<usize>]) -> ([[usize; 6]; 2], Vec<Vec<usize>>) {
    let lens = [[3, 65, 1, 63, 2, 64], [5, 1, 64, 2, 65, 63]];
    let prompts = (0..2)
        .map(|s| {
            let n: usize = lens[s].iter().sum();
            let mut p = vec![BOS];
            p.extend(srcs[s].iter().cycle().take(n - 1));
            p
        })
        .collect();
    (lens, prompts)
}

/// Feeds both sessions their ragged chunks through `prefill_sessions`
/// and checks, after every chunk, each session's logits against
/// `want(session, rows consumed)`.
fn check_ragged_chunks(
    quant: &QuantSeq2Seq,
    srcs: &[Vec<usize>],
    want: impl Fn(usize, usize) -> Vec<f32>,
    config: &str,
) {
    let (lens, prompts) = ragged_schedule(srcs);
    let mut arena = KvArena::for_model(quant);
    let mut chunked: Vec<QuantIncrementalSession> = (0..2)
        .map(|s| quant.start_session(&mut arena, &srcs[s]))
        .collect();
    let mut pos = [0usize; 2];
    for step in 0..lens[0].len() {
        let chunks: Vec<&[usize]> = (0..2)
            .map(|s| &prompts[s][pos[s]..pos[s] + lens[s][step]])
            .collect();
        let mut refs: Vec<&mut QuantIncrementalSession> = chunked.iter_mut().collect();
        let got = quant.prefill_sessions(&mut arena, &mut refs, &chunks);
        for s in 0..2 {
            pos[s] += lens[s][step];
            assert!(pos[s] % 16 != 0, "context {} defeats the test", pos[s]);
            assert_eq!(
                got[s],
                want(s, pos[s]),
                "session {s} after {} rows, {config}",
                pos[s]
            );
            assert_eq!(chunked[s].pos(), pos[s]);
        }
    }
}

/// Chunk-shape independence: the logits after each ragged chunk must
/// equal, bit for bit, the logits `step_session` (one-row chunks of one
/// session) gives at that position, whatever the worker count and with
/// the SIMD tiers forced off.
#[test]
fn ragged_prefill_chunks_match_sequential_steps() {
    let (quant, srcs) = setup();
    let (_, prompts) = ragged_schedule(&srcs);
    for (threads, simd) in [(1, None), (2, None), (1, Some(false)), (2, Some(false))] {
        tensor::par::set_thread_override(Some(threads));
        tensor::simd::set_simd_override(simd);
        // Sequential logits at every position of both prompts.
        let mut arena = KvArena::for_model(&quant);
        let sequential: Vec<Vec<Vec<f32>>> = (0..2)
            .map(|s| {
                let mut session = quant.start_session(&mut arena, &srcs[s]);
                prompts[s]
                    .iter()
                    .map(|&t| quant.step_session(&mut arena, &mut session, t))
                    .collect()
            })
            .collect();
        check_ragged_chunks(
            &quant,
            &srcs,
            |s, rows| sequential[s][rows - 1].clone(),
            &format!("threads {threads}, simd {simd:?}"),
        );
        tensor::simd::set_simd_override(None);
        tensor::par::set_thread_override(None);
    }
}

/// The one INT8 step body against a reference that shares no attention
/// code with it: the logits after each ragged chunk must equal, bit for
/// bit, the matching row of `forward_logits` — the full recompute of the
/// whole prompt through `QuantExec`, dense per-head GEMMs and a causal
/// mask matrix — whatever the worker count and with the SIMD tiers
/// forced off.
#[test]
fn ragged_prefill_chunks_match_full_recompute() {
    let (quant, srcs) = setup();
    let (_, prompts) = ragged_schedule(&srcs);
    let full: Vec<Mat<f32>> = (0..2)
        .map(|s| quant.forward_logits(&srcs[s], &prompts[s]))
        .collect();
    for threads in [1, 2] {
        for simd in [None, Some(false)] {
            tensor::par::set_thread_override(Some(threads));
            tensor::simd::set_simd_override(simd);
            check_ragged_chunks(
                &quant,
                &srcs,
                |s, rows| full[s].row(rows - 1).to_vec(),
                &format!("threads {threads}, simd {simd:?}"),
            );
            tensor::simd::set_simd_override(None);
            tensor::par::set_thread_override(None);
        }
    }
}
