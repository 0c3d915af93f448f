//! Differential suite for shared-prefix attention cohorts.
//!
//! Sessions whose self-attention caches hold the same KV pages (forks of
//! one prefix snapshot), or whose cross-attention caches are the same
//! allocation (forks of one session), attend those rows together: one
//! score GEMM and one `P·V` GEMM per head over the cohort's stacked rows
//! (`quantized::attention_cohorts`). Every session's logits and greedy
//! token must be bit-identical to the same session stepped alone, token
//! by token, in a fresh arena with nothing shared — under every policy
//! of `Policy::sweep` (each INT8 tier the host has, one and two workers,
//! 4- and 16-row pages). The cohort plans are asserted too: which groups
//! attend together, over how many rows.

use std::collections::HashMap;

use quantized::incremental::{KvArena, QuantIncrementalSession};
use quantized::{attention_cohorts, cached_mha_rows, CacheRef, Cohort, QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{Mat, Policy};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS};

/// Runs `body` under every policy of the sweep.
fn each_config(mut body: impl FnMut(Policy)) {
    for policy in Policy::sweep() {
        eprintln!("shared_prefix_attention: {policy:?}");
        policy.run(|| body(policy));
    }
}

fn model() -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(0x5A4E);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(8, &mut StdRng::seed_from_u64(0x5A4F));
    let srcs = corpus.iter().map(|(s, _)| s.clone()).collect();
    (
        QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware),
        srcs,
    )
}

/// `n` ordinary target tokens, different for each `salt`.
fn tokens(n: usize, salt: usize) -> Vec<usize> {
    (0..n).map(|i| 3 + (i * 7 + salt * 13) % 29).collect()
}

/// The golden path: logits after feeding `fed` one token at a time to a
/// fresh session over `src` in a fresh arena, shared with nothing.
/// Memoised — the reference does not depend on the configuration.
struct Oracle<'q> {
    q: &'q QuantSeq2Seq,
    memo: HashMap<(Vec<usize>, Vec<usize>), Vec<f32>>,
}

impl<'q> Oracle<'q> {
    fn new(q: &'q QuantSeq2Seq) -> Self {
        Self {
            q,
            memo: HashMap::new(),
        }
    }

    fn logits(&mut self, src: &[usize], fed: &[usize]) -> Vec<f32> {
        let q = self.q;
        self.memo
            .entry((src.to_vec(), fed.to_vec()))
            .or_insert_with(|| {
                let mut arena = KvArena::for_model(q);
                let mut s = q.start_session(&mut arena, src);
                let mut logits = Vec::new();
                for &t in fed {
                    logits = q.step_session(&mut arena, &mut s, t);
                }
                logits
            })
            .clone()
    }
}

/// A session and everything it has consumed.
struct Live {
    s: QuantIncrementalSession,
    src: Vec<usize>,
    fed: Vec<usize>,
}

impl Live {
    /// A session over `src` that has prefilled `BOS` and `rows - 1`
    /// prompt tokens in five-token chunks (straddling page boundaries).
    fn prefilled(
        q: &QuantSeq2Seq,
        arena: &mut KvArena,
        src: &[usize],
        rows: usize,
        salt: usize,
    ) -> Live {
        let mut fed = vec![BOS];
        fed.extend(tokens(rows - 1, salt));
        let mut s = q.start_session(arena, src);
        for chunk in fed.chunks(5) {
            q.prefill_sessions(arena, &mut [&mut s], &[chunk]);
        }
        Live {
            s,
            src: src.to_vec(),
            fed,
        }
    }

    fn fork(&self, arena: &mut KvArena) -> Live {
        Live {
            s: self.s.fork(arena),
            src: self.src.clone(),
            fed: self.fed.clone(),
        }
    }

    fn rollback(&mut self, arena: &mut KvArena, rows: usize) {
        self.s.rollback_rows(arena, rows);
        self.fed.truncate(self.fed.len() - rows);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One batched step in which `lives[i]` consumes `chunks[i]`, checked
/// against the oracle: each session's logits bit for bit, then — the
/// step rolled back and replayed through the greedy head — its token.
fn step(
    q: &QuantSeq2Seq,
    oracle: &mut Oracle<'_>,
    arena: &mut KvArena,
    lives: &mut [&mut Live],
    chunks: &[Vec<usize>],
    what: &str,
) {
    let chunk_refs: Vec<&[usize]> = chunks.iter().map(|c| c.as_slice()).collect();
    let logits = {
        let mut refs: Vec<&mut QuantIncrementalSession> =
            lives.iter_mut().map(|l| &mut l.s).collect();
        q.prefill_sessions(arena, &mut refs, &chunk_refs)
    };
    for (l, c) in lives.iter_mut().zip(chunks) {
        l.s.rollback_rows(arena, c.len());
    }
    let (greedy, _) = {
        let mut refs: Vec<&mut QuantIncrementalSession> =
            lives.iter_mut().map(|l| &mut l.s).collect();
        q.prefill_sessions_greedy(arena, &mut refs, &chunk_refs)
    };
    for (i, (l, c)) in lives.iter_mut().zip(chunks).enumerate() {
        l.fed.extend_from_slice(c);
        let want = oracle.logits(&l.src, &l.fed);
        assert_eq!(bits(&logits[i]), bits(&want), "{what}: session {i} logits");
        assert_eq!(
            greedy[i],
            tensor::ops::argmax(&want),
            "{what}: session {i} greedy token"
        );
    }
}

/// Every decoder layer's self- and cross-attention cohort plans for a
/// step of `groups` rows over `sessions` in their current state — after
/// a step, exactly what that step's attention planned.
fn plans(
    q: &QuantSeq2Seq,
    arena: &KvArena,
    sessions: &[&Live],
    groups: &[usize],
) -> (Vec<Cohort>, Vec<Cohort>) {
    let mut out: Option<(Vec<Cohort>, Vec<Cohort>)> = None;
    for l in 0..q.decoder_layers().len() {
        let (sk, sv): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) = sessions
            .iter()
            .map(|s| s.s.self_attention_caches(arena, l))
            .unzip();
        let (ck, cv): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) = sessions
            .iter()
            .map(|s| s.s.cross_attention_caches(l))
            .unzip();
        let layer = (
            attention_cohorts(groups, &sk, &sv, true),
            attention_cohorts(groups, &ck, &cv, false),
        );
        if let Some(first) = &out {
            assert_eq!(first, &layer, "layer {l} plans differently from layer 0");
        }
        out = Some(layer);
    }
    out.expect("the model has decoder layers")
}

fn cohort(members: &[usize], shared: usize) -> Cohort {
    Cohort {
        members: members.to_vec(),
        shared,
    }
}

fn singles(n: usize) -> Vec<Cohort> {
    (0..n).map(|g| cohort(&[g], 0)).collect()
}

/// Layer 0's self-attention over `lives` with `groups` rows each, their
/// chunk rows already in their caches, called directly: the batched call
/// must equal each group attending alone.
fn direct_self_attention_matches_alone(
    q: &QuantSeq2Seq,
    arena: &KvArena,
    lives: &[&Live],
    groups: &[usize],
    what: &str,
) {
    let block = &q.decoder_layers()[0].self_mha;
    let d = q.tgt_embedding().d_model();
    let rows: usize = groups.iter().sum();
    let x = Mat::from_fn(rows, d, |r, c| {
        (((r * 31 + c * 7) % 201) as i32 - 100) as i8
    });
    let (keys, vals): (Vec<CacheRef<'_>>, Vec<CacheRef<'_>>) = lives
        .iter()
        .map(|l| l.s.self_attention_caches(arena, 0))
        .unzip();
    let got = cached_mha_rows(block, &x, groups, &keys, &vals, true);
    let mut r0 = 0;
    for (g, &n) in groups.iter().enumerate() {
        let xg = x.submatrix(r0, 0, n, d).unwrap();
        let want = cached_mha_rows(block, &xg, &[n], &keys[g..=g], &vals[g..=g], true);
        for j in 0..n {
            assert_eq!(got.row(r0 + j), want.row(j), "{what}: group {g} row {j}");
        }
        r0 += n;
    }
}

#[test]
fn forks_of_one_snapshot_decode_together() {
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[0], 3 * p, 1);
        let mut forks: Vec<Live> = (0..3).map(|_| snap.fork(&mut arena)).collect();
        for t in 0..4 {
            let chunks: Vec<Vec<usize>> = (0..3).map(|i| tokens(1, 10 * t + i)).collect();
            let mut lives: Vec<&mut Live> = forks.iter_mut().collect();
            step(&q, &mut oracle, &mut arena, &mut lives, &chunks, &what);
            let views: Vec<&Live> = forks.iter().collect();
            let (self_plan, cross_plan) = plans(&q, &arena, &views, &[1, 1, 1]);
            assert_eq!(self_plan, vec![cohort(&[0, 1, 2], 3 * p)], "{what}");
            assert_eq!(
                cross_plan,
                vec![cohort(&[0, 1, 2], srcs[0].len())],
                "{what}"
            );
        }
    });
}

#[test]
fn decode_rows_and_prefill_chunks_attend_shared_pages_together() {
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[1], 2 * p, 2);
        let mut a = snap.fork(&mut arena);
        let mut b = snap.fork(&mut arena);
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut a, &mut b],
            &[tokens(1, 3), tokens(1, 4)],
            &what,
        );
        // Two fresh forks prefill their own tails in the step where the
        // first two decode: one cohort of chunks and decode rows.
        let mut c = snap.fork(&mut arena);
        let mut e = snap.fork(&mut arena);
        let chunks = vec![tokens(p + 1, 5), tokens(1, 6), tokens(3, 7), tokens(1, 8)];
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut c, &mut a, &mut e, &mut b],
            &chunks,
            &what,
        );
        let (self_plan, cross_plan) = plans(&q, &arena, &[&c, &a, &e, &b], &[p + 1, 1, 3, 1]);
        assert_eq!(self_plan, vec![cohort(&[0, 1, 2, 3], 2 * p)], "{what}");
        assert_eq!(
            cross_plan,
            vec![cohort(&[0, 1, 2, 3], srcs[1].len())],
            "{what}"
        );
    });
}

#[test]
fn shared_rows_stop_before_every_groups_own_chunk() {
    // Two forks whose caches end inside the pages they share, asked to
    // attend their last rows as chunks: the shared segment must stop
    // before each group's chunk (a causal chunk row must not see the
    // rows after it), here at 2P - 2, not at the 2P rows the pages hold.
    let (q, srcs) = model();
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[2], 2 * p, 3);
        let a = snap.fork(&mut arena);
        let b = snap.fork(&mut arena);
        let (self_plan, _) = plans(&q, &arena, &[&a, &b], &[2, 1]);
        assert_eq!(self_plan, vec![cohort(&[0, 1], 2 * p - 2)], "{what}");
        direct_self_attention_matches_alone(&q, &arena, &[&a, &b], &[2, 1], &what);
    });
}

#[test]
fn fork_rolled_back_mid_page_excludes_its_partial_page() {
    // The prefix cache's diverged-tail hit: a fork rolled back into a
    // shared page keeps that page's id with fewer valid rows. Only the
    // pages full in every member are shared.
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[3], 2 * p, 4);
        let mut a = snap.fork(&mut arena);
        let mut b = snap.fork(&mut arena);
        b.rollback(&mut arena, p / 2);
        let (self_plan, cross_plan) = plans(&q, &arena, &[&a, &b], &[1, 1]);
        assert_eq!(self_plan, vec![cohort(&[0, 1], p)], "{what}");
        assert_eq!(cross_plan, vec![cohort(&[0, 1], srcs[3].len())], "{what}");
        direct_self_attention_matches_alone(&q, &arena, &[&a, &b], &[1, 1], &what);
        // The rolled-back fork re-ingests a diverged tail while the other
        // decodes; its write copies the partial page.
        let chunks = vec![tokens(1, 5), tokens(p / 2 + 1, 6)];
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut a, &mut b],
            &chunks,
            &what,
        );
        let (self_plan, _) = plans(&q, &arena, &[&a, &b], &[1, p / 2 + 1]);
        assert_eq!(self_plan, vec![cohort(&[0, 1], p)], "{what}");
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut a, &mut b],
            &[tokens(1, 7), tokens(1, 8)],
            &what,
        );
    });
}

#[test]
fn forks_of_two_snapshots_form_two_cohorts() {
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let sa = Live::prefilled(&q, &mut arena, &srcs[4], 2 * p, 5);
        let sb = Live::prefilled(&q, &mut arena, &srcs[5], 3 * p, 6);
        let mut a1 = sa.fork(&mut arena);
        let mut a2 = sa.fork(&mut arena);
        let mut b1 = sb.fork(&mut arena);
        let mut b2 = sb.fork(&mut arena);
        for t in 0..3 {
            let chunks: Vec<Vec<usize>> = (0..4).map(|i| tokens(1, 10 * t + i)).collect();
            step(
                &q,
                &mut oracle,
                &mut arena,
                &mut [&mut a1, &mut b1, &mut a2, &mut b2],
                &chunks,
                &what,
            );
        }
        let (self_plan, cross_plan) = plans(&q, &arena, &[&a1, &b1, &a2, &b2], &[1, 1, 1, 1]);
        assert_eq!(
            self_plan,
            vec![cohort(&[0, 2], 2 * p), cohort(&[1, 3], 3 * p)],
            "{what}"
        );
        assert_eq!(
            cross_plan,
            vec![
                cohort(&[0, 2], srcs[4].len()),
                cohort(&[1, 3], srcs[5].len())
            ],
            "{what}"
        );
    });
}

#[test]
fn a_fork_beside_unrelated_sessions_is_a_cohort_of_one() {
    // The fork shares pages with its snapshot, but the snapshot is not in
    // the step: nothing is attended together.
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[6], 2 * p, 7);
        let mut f = snap.fork(&mut arena);
        let mut cold = Live::prefilled(&q, &mut arena, &srcs[7], 2 * p + 1, 8);
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut f],
            &[tokens(1, 9)],
            &what,
        );
        assert_eq!(plans(&q, &arena, &[&f], &[1]), (singles(1), singles(1)));
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut f, &mut cold],
            &[tokens(1, 10), tokens(1, 11)],
            &what,
        );
        assert_eq!(
            plans(&q, &arena, &[&f, &cold], &[1, 1]),
            (singles(2), singles(2)),
            "{what}"
        );
    });
}

#[test]
fn one_source_started_twice_forms_no_cross_cohort() {
    // Equal bytes are not shared storage: two sessions that encoded the
    // same source on their own hold equal cross K/V in two allocations,
    // and fed the same prompt they hold equal self K/V in separate pages.
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let mut a = Live::prefilled(&q, &mut arena, &srcs[0], 2 * p + 1, 9);
        let mut b = Live::prefilled(&q, &mut arena, &srcs[0], 2 * p + 1, 9);
        let (ak, _) = a.s.cross_attention_caches(0);
        let (bk, _) = b.s.cross_attention_caches(0);
        for r in 0..ak.rows() {
            assert_eq!(ak.row(r), bk.row(r), "{what}: the same source's cross K");
        }
        step(
            &q,
            &mut oracle,
            &mut arena,
            &mut [&mut a, &mut b],
            &[tokens(1, 12), tokens(1, 12)],
            &what,
        );
        assert_eq!(
            plans(&q, &arena, &[&a, &b], &[1, 1]),
            (singles(2), singles(2)),
            "{what}"
        );
    });
}

#[test]
fn checker_on_engine_serves_prefix_hits_like_checker_off() {
    // End to end: requests that hit one cached prefix fork its snapshot
    // and decode as one cohort. With the checker on (no fault plan) the
    // engine returns the same tokens and counts the same fused drains as
    // with it off — it runs the production attention path.
    let (q, srcs) = model();
    let prompt: Vec<usize> = tokens(35, 15);
    let serve = |checker: bool| {
        let mut cfg = serving::EngineConfig::with_max_batch(3);
        cfg.prefix_cache_bytes = usize::MAX;
        let mut engine = serving::ContinuousBatcher::new(&q, cfg)
            .unwrap()
            .with_checker(checker);
        let request =
            |id: u64| serving::Request::new(id, srcs[2].clone(), 6).with_prompt(prompt.clone());
        engine.submit(request(0)).unwrap();
        let mut out = engine.run_to_completion();
        (1..4).for_each(|id| engine.submit(request(id)).unwrap());
        out.extend(engine.run_to_completion());
        let stats = engine.stats();
        assert_eq!(stats.prefix_hits, 3, "checker {checker}");
        assert_eq!(stats.checked > 0, checker, "checker {checker}");
        assert_eq!(stats.detected, 0, "nothing was injected");
        let tokens: Vec<(u64, Vec<usize>)> = out.into_iter().map(|r| (r.id, r.tokens)).collect();
        (tokens, stats.ops_fused, stats.intermediates_elided_bytes)
    };
    let off = serve(false);
    let on = serve(true);
    assert_eq!(on, off, "(tokens, fused drains, elided bytes)");
}

#[test]
fn fault_hooks_live_keep_the_cohort_path() {
    // Attention has no fault seam (only `QLinear` passes reach the
    // injector), so a checker-on engine attends exactly as a checker-off
    // one: the same cohorts, the same fused decode drains. The tokens do
    // not change; the fused-drain tally shows the path taken.
    let (q, srcs) = model();
    let mut oracle = Oracle::new(&q);
    each_config(|policy| {
        let p = policy.kv_page_rows;
        let what = format!("{policy:?}");
        let d = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d, p);
        let snap = Live::prefilled(&q, &mut arena, &srcs[1], 2 * p, 10);
        let mut a = snap.fork(&mut arena);
        let mut b = snap.fork(&mut arena);
        let chunks = [tokens(1, 13), tokens(1, 14)];
        // The references first, so the tallies below count the step only.
        for (l, c) in [&a, &b].into_iter().zip(&chunks) {
            oracle.logits(&l.src, &[l.fed.as_slice(), c].concat());
        }
        let mut fused_ops = Vec::new();
        let mut cohorts = Vec::new();
        let mut detected = 0;
        for checker in [false, true] {
            let mut state = faults::FaultState::new(None, checker);
            graph::tally::take();
            state.run(|| {
                step(
                    &q,
                    &mut oracle,
                    &mut arena,
                    &mut [&mut a, &mut b],
                    &chunks,
                    &format!("{what} checker {checker}"),
                )
            });
            fused_ops.push(graph::tally::take().ops_fused);
            detected += state.counters.detected;
            cohorts.push(plans(&q, &arena, &[&a, &b], &[1, 1]));
            a.rollback(&mut arena, 1);
            b.rollback(&mut arena, 1);
        }
        assert_eq!(detected, 0, "{what}: nothing was injected");
        assert_eq!(
            fused_ops[0], fused_ops[1],
            "{what}: checker changed the drains"
        );
        assert_eq!(
            cohorts[0],
            (
                vec![cohort(&[0, 1], 2 * p)],
                vec![cohort(&[0, 1], srcs[1].len())]
            ),
            "{what}"
        );
        assert_eq!(
            cohorts[0], cohorts[1],
            "{what}: checker changed the cohorts"
        );
    });
}
