//! Differential tests for the long-context serving path: chunked
//! prefill through the paged INT8 KV cache versus the sequential
//! token-at-a-time reference, and paged decode at several page heights
//! versus the never-paged full-recompute decode.
//!
//! The paged path stores exactly the i8 codes a flat cache held, so
//! chunked prefill + paging must be **bit-identical** to
//! `greedy_decode_with_prompt` at every chunk size and page size, and
//! the cached decode to `greedy_decode`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::quantized::incremental::KvArena;
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::serving::{ContinuousBatcher, EngineConfig, Request};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS, EOS};

fn setup(seed: u64) -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(6, &mut StdRng::seed_from_u64(seed ^ 0xABCD));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let srcs = corpus.into_iter().map(|(s, _)| s).collect();
    (quant, srcs)
}

/// Long target-side prompts built from valid vocabulary tokens.
fn prompts(srcs: &[Vec<usize>], len: usize) -> Vec<Vec<usize>> {
    srcs.iter()
        .map(|s| s.iter().cycle().take(len).copied().collect())
        .collect()
}

#[test]
fn chunked_prefill_paged_int8_matches_sequential_reference() {
    // The serving engine (chunked prefill, paged INT8 KV, mixed
    // prefill/decode batches) against the single-session token-at-a-time
    // golden path, across chunk sizes and prefill budgets. Page size
    // follows ACCEL_KV_PAGE here, so the CI page-stress matrix also
    // exercises 1-row pages through this test.
    let (quant, srcs) = setup(0xC0FFEE);
    let prompts = prompts(&srcs, 19);
    let want: Vec<Vec<usize>> = srcs
        .iter()
        .zip(&prompts)
        .map(|(s, p)| quant.greedy_decode_with_prompt(s, p, 8))
        .collect();
    for (chunk, budget) in [(1usize, 64usize), (3, 64), (16, 64), (8, 6), (64, 64)] {
        let mut cfg = EngineConfig::with_max_batch(4);
        cfg.prefill_chunk = chunk;
        cfg.max_prefill_rows = budget;
        let mut engine = ContinuousBatcher::new(&quant, cfg).unwrap();
        for (i, (s, p)) in srcs.iter().zip(&prompts).enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 8).with_prompt(p.clone()))
                .unwrap();
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), srcs.len());
        for (resp, want) in responses.iter().zip(&want) {
            assert_eq!(
                &resp.tokens, want,
                "chunk {chunk} budget {budget} id {} diverged from sequential",
                resp.id
            );
        }
        // Retired sessions hand every page back.
        assert_eq!(engine.stats().kv_bytes_in_use, 0);
        assert!(engine.stats().kv_bytes_peak > 0);
    }
}

#[test]
fn int8_pages_are_bit_identical_at_every_page_height() {
    // Pages hold exactly the i8 codes a flat cache held: the cached
    // decode must equal the full-prefix recompute, and the per-step
    // logits must not differ by a single bit between page heights.
    let (quant, srcs) = setup(0xF00D);
    for src in &srcs {
        let full = quant.greedy_decode(src, BOS, EOS, 8);
        assert_eq!(full, quant.greedy_decode_incremental(src, 8), "src {src:?}");
    }
    let d_model = quant.tgt_embedding().d_model();
    let prefix = [1usize, 5, 8, 6, 2, 9, 4, 3];
    for src in &srcs {
        let mut by_page = Vec::new();
        for page_rows in [1usize, 3, 64] {
            let mut arena = KvArena::with_page_rows(d_model, page_rows);
            let mut s = quant.start_session(&mut arena, src);
            let logits: Vec<f32> = prefix
                .iter()
                .flat_map(|&t| quant.step_session(&mut arena, &mut s, t))
                .collect();
            by_page.push(logits.iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
        }
        assert_eq!(by_page[0], by_page[1], "page 1 vs 3");
        assert_eq!(by_page[0], by_page[2], "page 1 vs 64");
    }
}
