//! Differential suite for batched admission.
//!
//! `QuantSeq2Seq::start_sessions` opens every session of one admission
//! as a single stacked pass: each encoder layer's weight GEMMs and each
//! decoder layer's cross-attention `W_K`/`W_V` run once over all the
//! sources' rows, attention runs per source. Every session must be
//! bit-identical to the per-source body `start_session` ran before
//! admission was batched — frozen below as [`frozen_session`] — under
//! every policy of `Policy::sweep` (each INT8 tier the host has, one and
//! two workers, 4- and 16-row pages) and with the ABFT checker on. Batches hold 1–8 sources of 1–48 tokens, duplicates included.
//! Sessions started together must also hold their cross K/V in
//! allocations of their own, so they never plan as a shared-storage
//! cohort, while forks of them still do.

use std::collections::HashSet;
use std::sync::OnceLock;

use quantized::incremental::{KvArena, QuantIncrementalSession};
use quantized::{attention_cohorts, CacheRef, Cohort, QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::{Mat, Policy};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS, EOS};

/// Decode steps each batch is driven for after admission.
const STEPS: usize = 4;

/// Runs `body` under every policy of the sweep (checker off).
fn each_config(mut body: impl FnMut(&str)) {
    for policy in Policy::sweep() {
        eprintln!("admission_batch: {policy:?}");
        policy.run(|| body(&format!("{policy:?}")));
    }
}

fn model() -> &'static QuantSeq2Seq {
    static MODEL: OnceLock<QuantSeq2Seq> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(0xAD01);
        let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 9);
        let corpus = gen.corpus(8, &mut StdRng::seed_from_u64(0xAD02));
        QuantSeq2Seq::from_trained(&fp32, &corpus, SoftmaxMode::Hardware)
    })
}

/// Random admissions: 1–8 sources of 1–48 tokens each, most batches
/// repeating a source, plus a batch around a one-token source.
fn batches() -> Vec<Vec<Vec<usize>>> {
    let vocab = model().src_vocab();
    let mut rng = StdRng::seed_from_u64(0xAD03);
    let mut src =
        |len: usize| -> Vec<usize> { (0..len).map(|_| rng.random_range(3..vocab)).collect() };
    let mut out = vec![vec![src(1)], vec![src(48), src(1), src(17)]];
    let mut shape = StdRng::seed_from_u64(0xAD04);
    for _ in 0..6 {
        let n = shape.random_range(1..=8usize);
        let mut batch: Vec<Vec<usize>> = (0..n).map(|_| src(shape.random_range(1..=48))).collect();
        if n > 2 {
            batch[n - 1] = batch[shape.random_range(0..n - 1)].clone();
        }
        out.push(batch);
    }
    out
}

/// What opening a session over one source produced: the encoder output
/// codes and every decoder layer's cross-attention `(K, V)` codes.
#[derive(Debug, PartialEq)]
struct Opened {
    memory: Mat<i8>,
    cross: Vec<(Mat<i8>, Mat<i8>)>,
}

/// The per-source body `start_session` ran before admission was batched,
/// frozen: the source embedded by `Embedding::forward_inference`, each
/// encoder layer through the graph-executed ResBlocks
/// (`QuantMhaResBlock::forward` with `x_q = x_kv`, then
/// `QuantFfnResBlock::forward`), then each decoder layer's cross `W_K`
/// and `W_V` over the encoder output.
fn frozen_session(q: &QuantSeq2Seq, src: &[usize]) -> Opened {
    let x = q.src_embedding().forward_inference(src);
    let layers = q.encoder_layers();
    let mut codes = layers[0].mha.quantize_input_q(&x);
    for layer in layers {
        let (a, _) = layer.mha.forward(&codes, &codes, None);
        let (b, _) = layer.ffn.forward(&a);
        codes = b;
    }
    let cross = q
        .decoder_layers()
        .iter()
        .map(|l| {
            let (_, wk, wv, _) = l.cross_mha.projections();
            (wk.forward(&codes), wv.forward(&codes))
        })
        .collect();
    Opened {
        memory: codes,
        cross,
    }
}

/// A session's cross-attention `(K, V)` matrices, layer by layer.
fn cross_kv(s: &QuantIncrementalSession, layers: usize) -> Vec<(&Mat<i8>, &Mat<i8>)> {
    (0..layers)
        .map(|l| match s.cross_attention_caches(l) {
            (CacheRef::Flat(k), CacheRef::Flat(v)) => (k, v),
            _ => panic!("cross-attention K/V are flat matrices"),
        })
        .collect()
}

fn assert_opened(q: &QuantSeq2Seq, s: &QuantIncrementalSession, want: &Opened, what: &str) {
    assert_eq!(s.pos(), 0, "{what}: a fresh session");
    assert_eq!(s.memory_rows(), want.memory.rows(), "{what}: memory rows");
    let got = cross_kv(s, q.decoder_layers().len());
    for (l, ((k, v), (wk, wv))) in got.into_iter().zip(&want.cross).enumerate() {
        assert_eq!(k, wk, "{what}: layer {l} cross K");
        assert_eq!(v, wv, "{what}: layer {l} cross V");
    }
}

fn start_together(
    q: &QuantSeq2Seq,
    arena: &mut KvArena,
    batch: &[Vec<usize>],
) -> Vec<QuantIncrementalSession> {
    let srcs: Vec<&[usize]> = batch.iter().map(|s| s.as_slice()).collect();
    let sessions = q.start_sessions(arena, &srcs);
    assert_eq!(sessions.len(), batch.len(), "one session per source");
    sessions
}

/// The greedy tokens of `STEPS` steps of every session stepped together
/// from `BOS`, each cut at its first `EOS` (as `greedy_decode` stops).
fn greedy_together(
    q: &QuantSeq2Seq,
    arena: &mut KvArena,
    sessions: &mut [QuantIncrementalSession],
) -> Vec<Vec<usize>> {
    let mut next = vec![BOS; sessions.len()];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); sessions.len()];
    for _ in 0..STEPS {
        let chunks: Vec<&[usize]> = next.chunks(1).collect();
        let mut refs: Vec<&mut QuantIncrementalSession> = sessions.iter_mut().collect();
        let (tokens, _) = q.prefill_sessions_greedy(arena, &mut refs, &chunks);
        for (o, &t) in out.iter_mut().zip(&tokens) {
            o.push(t);
        }
        next = tokens;
    }
    for o in &mut out {
        if let Some(end) = o.iter().position(|&t| t == EOS) {
            o.truncate(end);
        }
    }
    out
}

/// Frozen references and full-recompute greedy decodes, per batch.
#[allow(clippy::type_complexity)]
fn references(q: &QuantSeq2Seq) -> Vec<(Vec<Vec<usize>>, Vec<Opened>, Vec<Vec<usize>>)> {
    batches()
        .into_iter()
        .map(|batch| {
            let opened = batch.iter().map(|s| frozen_session(q, s)).collect();
            let decoded = batch
                .iter()
                .map(|s| q.greedy_decode(s, BOS, EOS, STEPS))
                .collect();
            (batch, opened, decoded)
        })
        .collect()
}

/// One admission checked against the frozen body: the stacked pass, each
/// source started alone, the encoder alone, and the greedy tokens of the
/// stacked sessions decoding together.
fn check_batch(
    q: &QuantSeq2Seq,
    batch: &[Vec<usize>],
    opened: &[Opened],
    decoded: &[Vec<usize>],
    what: &str,
) {
    let mut arena = KvArena::for_model(q);
    let mut sessions = start_together(q, &mut arena, batch);
    for (i, (s, want)) in sessions.iter().zip(opened).enumerate() {
        assert_opened(
            q,
            s,
            want,
            &format!("{what}: source {i} of {}", batch.len()),
        );
        let alone = q.start_session(&mut arena, &batch[i]);
        assert_opened(q, &alone, want, &format!("{what}: source {i} alone"));
        assert_eq!(
            q.encode(&batch[i]),
            want.memory,
            "{what}: source {i} encode"
        );
    }
    // `greedy_decode` recomputes every prefix through the graph-executed
    // decoder over `encode`'s memory, pinned just above.
    let got = greedy_together(q, &mut arena, &mut sessions);
    assert_eq!(&got, decoded, "{what}: greedy tokens");
}

#[test]
fn stacked_admission_is_bit_identical_to_the_frozen_per_source_body() {
    let q = model();
    let refs = references(q);
    each_config(|what| {
        for (b, (batch, opened, decoded)) in refs.iter().enumerate() {
            check_batch(q, batch, opened, decoded, &format!("{what}, batch {b}"));
        }
    });
}

#[test]
fn checker_on_admission_is_bit_identical_and_clean() {
    let q = model();
    let refs = references(q);
    // Admission runs under the serving engine's fault state; this one
    // has the checker on and no plan.
    let mut state = faults::FaultState::new(None, true);
    state.run(|| {
        for (b, (batch, opened, decoded)) in refs.iter().enumerate() {
            check_batch(q, batch, opened, decoded, &format!("checker on, batch {b}"));
        }
    });
    assert!(state.counters.checked > 0, "the checker must have run");
    assert_eq!(state.counters.detected, 0, "nothing was injected");
}

fn singles(n: usize) -> Vec<Cohort> {
    (0..n)
        .map(|g| Cohort {
            members: vec![g],
            shared: 0,
        })
        .collect()
}

/// Every decoder layer's cross-attention cohort plan for one-row groups
/// over `sessions`.
fn cross_plans(q: &QuantSeq2Seq, sessions: &[&QuantIncrementalSession]) -> Vec<Vec<Cohort>> {
    (0..q.decoder_layers().len())
        .map(|l| {
            let (k, v): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) =
                sessions.iter().map(|s| s.cross_attention_caches(l)).unzip();
            attention_cohorts(&vec![1; sessions.len()], &k, &v, false)
        })
        .collect()
}

#[test]
fn sessions_started_together_share_no_storage_but_their_forks_do() {
    let q = model();
    let layers = q.decoder_layers().len();
    each_config(|what| {
        for (b, batch) in batches().iter().enumerate() {
            let what = format!("{what}, batch {b}");
            let mut arena = KvArena::for_model(q);
            let sessions = start_together(q, &mut arena, batch);
            let mut seen = HashSet::new();
            for s in &sessions {
                for (k, v) in cross_kv(s, layers) {
                    assert!(seen.insert(k as *const Mat<i8>), "{what}: shared K");
                    assert!(seen.insert(v as *const Mat<i8>), "{what}: shared V");
                }
            }
            let views: Vec<&QuantIncrementalSession> = sessions.iter().collect();
            for plan in cross_plans(q, &views) {
                assert_eq!(plan, singles(batch.len()), "{what}: no cohort at admission");
            }
            // Two forks of the first session attend its source together;
            // every other session (an equal source included) stays alone.
            let forks = [sessions[0].fork(&mut arena), sessions[0].fork(&mut arena)];
            let mut views: Vec<&QuantIncrementalSession> = vec![&sessions[0], &forks[0]];
            views.extend(&sessions[1..]);
            views.push(&forks[1]);
            let n = views.len();
            let mut want = vec![Cohort {
                members: vec![0, 1, n - 1],
                shared: batch[0].len(),
            }];
            want.extend((2..n - 1).map(|g| Cohort {
                members: vec![g],
                shared: 0,
            }));
            for plan in cross_plans(q, &views) {
                assert_eq!(plan, want, "{what}: forks share their source's K/V");
            }
        }
    });
}
