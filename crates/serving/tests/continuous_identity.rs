//! Property test: continuous batching is bit-identical to sequential
//! decoding — for every request, regardless of arrival order, slot
//! count, per-request budget, or which other requests shared its steps.
//! The engine's outputs are compared against BOTH the single-session
//! incremental path (`greedy_decode_incremental`) and the full-prefix
//! recompute path (`greedy_decode`), so a drift in either KV caching or
//! batching would fail here.

use std::sync::OnceLock;

use proptest::prelude::*;
use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serving::{ContinuousBatcher, EngineConfig, Request};
use tensor::Policy;
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS, EOS};

fn model() -> &'static QuantSeq2Seq {
    static MODEL: OnceLock<QuantSeq2Seq> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(0x5E41);
        let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 2, 9);
        let corpus = gen.corpus(16, &mut StdRng::seed_from_u64(0x5E42));
        QuantSeq2Seq::from_trained(&fp32, &corpus, SoftmaxMode::Hardware)
    })
}

/// A pool of sources with deliberately mixed lengths (2..=9 tokens).
fn sources() -> &'static Vec<Vec<usize>> {
    static SRCS: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    SRCS.get_or_init(|| {
        let cfg = ModelConfig::tiny_for_tests();
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 2, 9);
        gen.corpus(12, &mut StdRng::seed_from_u64(0x5E43))
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn continuous_decode_is_bit_identical_to_sequential(
        order_seed in 0u64..10_000,
        n in 3usize..=10,
        max_batch in 1usize..=5,
        max_new in 4usize..=10,
    ) {
        let q = model();
        let srcs = sources();

        // Random arrival order over a random prefix of the pool
        // (Fisher–Yates; the vendored rand has no `seq` module).
        let mut rng = StdRng::seed_from_u64(order_seed);
        let mut picks: Vec<usize> = (0..srcs.len()).collect();
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.random_range(0..=i));
        }
        picks.truncate(n);

        let mut engine = ContinuousBatcher::new(q, EngineConfig::with_max_batch(max_batch)).unwrap();
        for (id, &s) in picks.iter().enumerate() {
            engine.submit(Request::new(id as u64, srcs[s].clone(), max_new)).unwrap();
        }
        let responses = engine.run_to_completion();
        prop_assert_eq!(responses.len(), picks.len());
        let stats = engine.stats();
        prop_assert_eq!(stats.sources_encoded + stats.prefix_hits, stats.admitted);
        prop_assert!(stats.admission_batches <= stats.sources_encoded);

        // Responses come back sorted by id, and ids were assigned in
        // submit order, so zipping against `picks` pairs each response
        // with its own source.
        for (i, (resp, &s)) in responses.iter().zip(&picks).enumerate() {
            prop_assert_eq!(resp.id, i as u64);
            let incremental = q.greedy_decode_incremental(&srcs[s], max_new);
            let full_prefix = q.greedy_decode(&srcs[s], BOS, EOS, max_new);
            prop_assert_eq!(
                &resp.tokens, &incremental,
                "id {} diverged from the incremental path", resp.id
            );
            prop_assert_eq!(
                &resp.tokens, &full_prefix,
                "id {} diverged from the full-prefix path", resp.id
            );
        }
    }
}

/// Admission encodes each refill's cold requests in one stacked pass.
/// Driven like `spine`'s `decode_c16` — 16 closed-loop clients in four
/// waves eight steps apart, 32 tokens each, 16–48-token sources that the
/// default padding budget spreads over different length buckets — every
/// refill admits one wave, so each pass encodes exactly four sources.
#[test]
fn a_decode_c16_shaped_engine_encodes_a_whole_wave_per_pass() {
    const CLIENTS: usize = 16;
    const WAVES: usize = 4;
    const MAX_NEW: usize = 32;
    let q = model();
    let mut engine = ContinuousBatcher::new(
        q,
        EngineConfig {
            ignore_eos: true,
            prefix_cache_bytes: 1 << 20,
            ..EngineConfig::with_max_batch(CLIENTS)
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5E44);
    let vocab = q.src_vocab();
    // The step from which each client may submit its next request.
    let mut ready: Vec<Option<usize>> = (0..CLIENTS)
        .map(|c| Some(c % WAVES * MAX_NEW.div_ceil(WAVES)))
        .collect();
    let mut owner = std::collections::HashMap::new();
    let mut next_id = 0u64;
    for step in 0..3 * MAX_NEW {
        for (c, due) in ready.iter_mut().enumerate() {
            if due.is_some_and(|d| d <= step) {
                let len = rng.random_range(16..=48);
                let src = (0..len).map(|_| rng.random_range(3..vocab)).collect();
                engine.submit(Request::new(next_id, src, MAX_NEW)).unwrap();
                owner.insert(next_id, c);
                next_id += 1;
                *due = None;
            }
        }
        assert!(engine.step());
        for r in engine.drain_finished() {
            ready[owner[&r.id]] = Some(step + 1);
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.sources_encoded + stats.prefix_hits, stats.admitted);
    assert_eq!(stats.prefix_hits, 0, "no prompt: nothing to reuse");
    assert!(stats.admission_batches >= 8, "{stats:?}");
    assert_eq!(
        stats.sources_encoded as f64 / stats.admission_batches as f64,
        4.0,
        "{stats:?}"
    );
}

/// The engine's step takes its tokens from the greedy head, not from
/// logits: prompted requests (chunked prefill, then decode) still match
/// the sequential logits-and-argmax reference token for token, and the
/// head's counters reach the operator through `stats()` — every step row
/// verified at least one tile, none fell back to the full projection.
/// Each engine is built under, and so steps under, one policy of the
/// sweep; the references run under the default.
#[test]
fn greedy_head_serves_every_row_and_reports_it() {
    let q = model();
    let srcs = sources();
    let prompts: Vec<Vec<usize>> = (0..6)
        .map(|i| srcs[i].iter().copied().take(i).collect())
        .collect();
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .enumerate()
        .map(|(id, prompt)| q.greedy_decode_with_prompt(&srcs[id], prompt, 6))
        .collect();
    for policy in Policy::sweep() {
        eprintln!("continuous_identity: {policy:?}");
        let cfg = EngineConfig {
            max_batch: 3,
            prefill_chunk: 2,
            ..EngineConfig::default()
        };
        let mut engine = policy.run(|| ContinuousBatcher::new(q, cfg)).unwrap();
        for (id, prompt) in prompts.iter().enumerate() {
            let req = Request::new(id as u64, srcs[id].clone(), 6).with_prompt(prompt.clone());
            engine.submit(req).unwrap();
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), prompts.len());
        for resp in &responses {
            assert_eq!(
                resp.tokens, want[resp.id as usize],
                "id {}, {policy:?}",
                resp.id
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.greedy_fallback_rows, 0);
        assert!(
            stats.greedy_candidate_tiles >= stats.rows,
            "{} tiles over {} step rows, {policy:?}",
            stats.greedy_candidate_tiles,
            stats.rows
        );
    }
}
