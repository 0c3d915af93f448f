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
        waste_pick in 0usize..3,
        max_new in 4usize..=10,
    ) {
        let q = model();
        let srcs = sources();
        let max_waste = [0usize, 4, usize::MAX][waste_pick];

        // Random arrival order over a random prefix of the pool
        // (Fisher–Yates; the vendored rand has no `seq` module).
        let mut rng = StdRng::seed_from_u64(order_seed);
        let mut picks: Vec<usize> = (0..srcs.len()).collect();
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.random_range(0..=i));
        }
        picks.truncate(n);

        let mut engine = ContinuousBatcher::new(
            q,
            EngineConfig {
                max_batch,
                bucket_max_waste: max_waste,
                ..EngineConfig::default()
            },
        ).unwrap();
        for (id, &s) in picks.iter().enumerate() {
            engine.submit(Request::new(id as u64, srcs[s].clone(), max_new)).unwrap();
        }
        let responses = engine.run_to_completion();
        prop_assert_eq!(responses.len(), picks.len());

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

/// The engine's step takes its tokens from the greedy head, not from
/// logits: prompted requests (chunked prefill, then decode) still match
/// the sequential logits-and-argmax reference token for token, and the
/// head's counters reach the operator through `stats()` — every step row
/// verified at least one tile, none fell back to the full projection.
#[test]
fn greedy_head_serves_every_row_and_reports_it() {
    let q = model();
    let srcs = sources();
    let mut engine = ContinuousBatcher::new(
        q,
        EngineConfig {
            max_batch: 3,
            prefill_chunk: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let prompts: Vec<Vec<usize>> = (0..6)
        .map(|i| srcs[i].iter().copied().take(i).collect())
        .collect();
    for (id, prompt) in prompts.iter().enumerate() {
        let req = Request::new(id as u64, srcs[id].clone(), 6).with_prompt(prompt.clone());
        engine.submit(req).unwrap();
    }
    let responses = engine.run_to_completion();
    assert_eq!(responses.len(), prompts.len());
    for (resp, prompt) in responses.iter().zip(&prompts) {
        let want = q.greedy_decode_with_prompt(&srcs[resp.id as usize], prompt, 6);
        assert_eq!(resp.tokens, want, "id {}", resp.id);
    }
    let stats = engine.stats();
    assert_eq!(stats.greedy_fallback_rows, 0);
    assert!(
        stats.greedy_candidate_tiles >= stats.rows,
        "{} tiles over {} step rows",
        stats.greedy_candidate_tiles,
        stats.rows
    );
}
