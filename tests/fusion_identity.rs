//! Differential tests for the graph fusion pass: every executor must
//! produce **exactly the same bits** on a fused graph as on the graph it
//! was fused from.
//!
//! The pass rewrites `Linear→Relu` / `Linear→Add` pairs into fused
//! nodes whose epilogues run inside the GEMM drain
//! (`tensor::prepack::matmul_prepacked_epilogue` and the INT8
//! equivalent). Because the fused drains apply the identical per-element
//! operations in the identical order, fused and unfused graphs are
//! bit-identical — these tests pin that across the executors
//! (`FloatExec`, `QuantExec`) and the accelerator's `PaperBackend` by
//! running `graph::fuse(&g)` beside `g`. The blocks always run the fused
//! graph; `quantized::cached_mha_rows` (the cached-KV decode body, with
//! its hand-fused decode drain, shared-prefix cohorts and `W_O` +
//! residual drain) is checked against a frozen unfused per-head
//! reference, and the serving engine and the rollback-after-fault decode
//! path end to end.
//!
//! The fault injector and checker are process-wide and the rollback test
//! installs both, so every test that runs INT8 code holds
//! `faults::exclusive()`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::{AccelConfig, Backend, PaperBackend};
use transformer_accel::faults::{self, FaultPlan, FaultSpace, SiteClass};
use transformer_accel::graph::{self, Executor, Graph};
use transformer_accel::quantized::qlinear::residual_add_i8;
use transformer_accel::quantized::softmax::scaled_prefix_softmax;
use transformer_accel::quantized::{
    cached_mha_rows, CacheRef, QVal, QuantExec, QuantMhaResBlock, QuantSeq2Seq, SoftmaxMode,
};
use transformer_accel::serving::{ContinuousBatcher, EngineConfig, Request, Response};
use transformer_accel::tensor::{gemm, init, Mat};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::exec::FloatExec;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS};

fn models(seed: u64) -> (Seq2SeqTransformer, QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(6, &mut StdRng::seed_from_u64(seed ^ 0x5EED));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let srcs = corpus.into_iter().map(|(s, _)| s).collect();
    (model, quant, srcs)
}

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `g` and `graph::fuse(&g)`, after checking the rewrite fired.
fn unfused_and_fused(g: Graph) -> [Graph; 2] {
    let fused = graph::fuse(&g);
    assert!(fused.nodes.len() < g.nodes.len(), "fusion must rewrite");
    [g, fused]
}

#[test]
fn float_exec_fused_is_bit_identical() {
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let x = init::normal(&mut rng, 5, cfg.d_model, 1.0);
    let mask = Mat::from_fn(5, 5, |r, c| c > r);

    let [g, fused] = unfused_and_fused(graph::mha_graph(&mha.mha().graph_config()));
    let inputs = || vec![("x_q", x.clone()), ("x_k", x.clone()), ("x_v", x.clone())];
    let run_mha = |g: &Graph| {
        FloatExec::mha_res(&mha)
            .run(g, inputs(), Some(&mask))
            .take("y")
    };
    let want = bits(&run_mha(&g));
    assert_eq!(bits(&run_mha(&fused)), want, "FloatExec MHA diverged");
    let block = mha.forward_inference(&x, &x, &x, Some(&mask));
    assert_eq!(bits(&block), want, "MhaResBlock::forward_inference");

    let [g, fused] = unfused_and_fused(graph::ffn_graph(&ffn.graph_config()));
    let run_ffn = |g: &Graph| {
        FloatExec::ffn_res(&ffn)
            .run(g, vec![("x", x.clone())], None)
            .take("y")
    };
    let want = bits(&run_ffn(&g));
    assert_eq!(bits(&run_ffn(&fused)), want, "FloatExec FFN diverged");
    assert_eq!(
        bits(&ffn.forward_inference(&x)),
        want,
        "FfnResBlock::forward_inference"
    );
}

#[test]
fn fp32_fused_inference_equals_the_training_forward() {
    // The FP32 model's inference path (every block's fused graph through
    // `FloatExec`) against its training forward (the unfused layer ops
    // `greedy_decode` and backprop run): teacher-forced logits agree bit
    // for bit, so the full-recompute oracle and the blocks the INT8
    // model is calibrated from compute the same function.
    let _faults = faults::exclusive();
    let (mut model, _, srcs) = models(0xF0F0);
    for src in srcs.iter().take(3) {
        let mut tgt = vec![BOS];
        tgt.extend(src.iter().rev());
        let want = bits(&model.forward_train(src, &tgt));
        let src_x = model.src_embedding().forward_inference(src);
        let memory = model.encoder().forward_inference(&src_x, None);
        let mut x = model.tgt_embedding().forward_inference(&tgt);
        let mask = transformer_accel::tensor::ops::causal_mask(tgt.len());
        for layer in model.decoder().layers() {
            let (self_mha, cross_mha, ffn) = layer.blocks();
            x = self_mha.forward_inference(&x, &x, &x, Some(&mask));
            x = cross_mha.forward_inference(&x, &memory, &memory, None);
            x = ffn.forward_inference(&x);
        }
        let got = bits(&model.output_projection().forward_inference(&x));
        assert_eq!(got, want, "src {src:?}");
    }
}

/// Frozen unfused form of [`cached_mha_rows`] over flat caches: every
/// group attends its whole cache alone, one score GEMM, prefix-length
/// softmax and `P·V` GEMM per head, then the `W_O` projection's codes
/// and a separate residual add.
fn cached_mha_rows_unfused(
    block: &QuantMhaResBlock,
    x: &Mat<i8>,
    groups: &[usize],
    caches: &[(&Mat<i8>, &Mat<i8>)],
    causal: bool,
) -> Mat<i8> {
    let (wq, _, _, wo) = block.projections();
    let (h, d_k) = (block.heads(), block.d_k());
    let q = wq.forward(x);
    let mut p = Mat::zeros(x.rows(), x.cols());
    let mut r0 = 0;
    for (&rows, &(keys, vals)) in groups.iter().zip(caches) {
        let ctx = keys.rows();
        let live: Vec<usize> = (0..rows)
            .map(|j| if causal { ctx - rows + j + 1 } else { ctx })
            .collect();
        for i in 0..h {
            let c0 = i * d_k;
            let qi = q.submatrix(r0, c0, rows, d_k).unwrap();
            let ki = keys.submatrix(0, c0, ctx, d_k).unwrap();
            let vi = vals.submatrix(0, c0, ctx, d_k).unwrap();
            let scores = gemm::matmul_i8_nt(&qi, &ki).unwrap();
            let probs =
                scaled_prefix_softmax(&scores, block.d_scale(), d_k, &live, block.softmax_mode());
            let panel = block.requantize_p_panel(&gemm::matmul_i8(&probs, &vi).unwrap());
            for j in 0..rows {
                p.row_mut(r0 + j)[c0..c0 + d_k].copy_from_slice(panel.row(j));
            }
        }
        r0 += rows;
    }
    let g = residual_add_i8(&wo.forward(&p), x);
    block.layernorm().forward(&g)
}

#[test]
fn row_exec_incremental_decode_is_bit_identical() {
    // `cached_mha_rows` — one-row decode drains, a multi-row chunk, and
    // two groups on one cache (a shared-prefix cohort) — against the
    // frozen unfused per-head body, self- and cross-attention alike.
    let _faults = faults::exclusive();
    let (_, quant, _) = models(0xF10A);
    let block = &quant.decoder_layers()[0].self_mha;
    let (_, wk, wv, _) = block.projections();
    let (d, mut rng) = (
        ModelConfig::tiny_for_tests().d_model,
        StdRng::seed_from_u64(0xF10B),
    );
    let mut codes = |n| block.quantize_input_q(&init::normal(&mut rng, n, d, 1.0));
    let (shared_src, own_src, x) = (codes(9), codes(5), codes(4));
    let (sk, sv) = (wk.forward(&shared_src), wv.forward(&shared_src));
    let (ok, ov) = (wk.forward(&own_src), wv.forward(&own_src));
    let caches = [(&sk, &sv), (&sk, &sv), (&ok, &ov)];
    let keys: Vec<CacheRef<'_>> = caches.iter().map(|c| CacheRef::flat(c.0)).collect();
    let vals: Vec<CacheRef<'_>> = caches.iter().map(|c| CacheRef::flat(c.1)).collect();
    for groups in [[1usize, 1, 2], [2, 1, 1]] {
        for causal in [true, false] {
            let got = cached_mha_rows(block, &x, &groups, &keys, &vals, causal);
            let want = cached_mha_rows_unfused(block, &x, &groups, &caches, causal);
            assert_eq!(got, want, "groups {groups:?}, causal {causal}");
        }
    }
}

#[test]
fn quant_exec_fused_is_bit_identical() {
    let _faults = faults::exclusive();
    let (_, quant, _) = models(0xF1A7);
    let layer = &quant.decoder_layers()[0];
    let mut rng = StdRng::seed_from_u64(0xF1A8);
    let cfg = ModelConfig::tiny_for_tests();
    let x = init::normal(&mut rng, 6, cfg.d_model, 1.0);
    let xq = layer.self_mha.quantize_input_q(&x);
    let mask = transformer_accel::tensor::ops::causal_mask(xq.rows());

    let [g, fused] = unfused_and_fused(graph::mha_graph(&layer.self_mha.graph_config()));
    let run_mha = |g: &Graph| {
        let inputs = ["x_q", "x_k", "x_v"].map(|n| (n, QVal::I8(xq.clone())));
        let mut env = QuantExec::mha(&layer.self_mha).run(g, inputs.to_vec(), Some(&mask));
        (env.take("y").into_i8(), env.take("p").into_i8())
    };
    let want = run_mha(&g);
    assert_eq!(run_mha(&fused), want, "QuantExec MHA diverged under fusion");
    assert_eq!(layer.self_mha.forward(&xq, &xq, Some(&mask)), want);

    let xf = layer.ffn.quantize_input(&x);
    let [g, fused] = unfused_and_fused(graph::ffn_graph(&layer.ffn.graph_config()));
    let run_ffn = |g: &Graph| {
        let mut env = QuantExec::ffn(&layer.ffn).run(g, vec![("x", QVal::I8(xf.clone()))], None);
        (env.take("y").into_i8(), env.take("hidden").into_i8())
    };
    let want = run_ffn(&g);
    assert_eq!(run_ffn(&fused), want, "QuantExec FFN diverged under fusion");
    assert_eq!(layer.ffn.forward(&xf), want);
}

#[test]
fn serving_decode_and_chunked_prefill_are_bit_identical() {
    // `cached_mha_rows` end to end: 3-row prefill chunks (per-head
    // GEMMs) batched three sessions wide against one-row chunks (the
    // fused decode drain) one session at a time, through the paged KV
    // arena.
    let _faults = faults::exclusive();
    let (_, quant, srcs) = models(0xF5E2);
    let prompts: Vec<Vec<usize>> = srcs
        .iter()
        .map(|s| s.iter().cycle().take(11).copied().collect())
        .collect();
    let run = |chunk: usize, batch: usize| -> (Vec<Response>, usize, usize) {
        let mut cfg = EngineConfig::with_max_batch(batch);
        cfg.prefill_chunk = chunk;
        let mut engine = ContinuousBatcher::new(&quant, cfg).unwrap();
        for (i, (s, p)) in srcs.iter().zip(&prompts).enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 6).with_prompt(p.clone()))
                .unwrap();
        }
        let resp = engine.run_to_completion();
        let stats = engine.stats();
        (resp, stats.ops_fused, stats.intermediates_elided_bytes)
    };
    let (chunked, ops, bytes) = run(3, 3);
    let (rows, _, _) = run(1, 1);
    assert_eq!(chunked.len(), rows.len());
    for (c, r) in chunked.iter().zip(&rows) {
        assert_eq!(c.tokens, r.tokens, "request {} diverged", c.id);
    }
    assert!(ops > 0, "fused drains must be counted");
    assert!(bytes > 0);
}

#[test]
fn accel_exec_runs_fused_graphs_identically() {
    // The accelerator lowering is fusion-transparent: the fused graph
    // must execute to the same codes AND the same cycle count.
    let _faults = faults::exclusive();
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0xACCE);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| init::normal(&mut rng, 8, cfg.d_model, 1.0))
        .collect();
    let qmha = transformer_accel::quantized::QuantMhaResBlock::from_f32(
        &mha,
        &calib,
        &calib,
        SoftmaxMode::Hardware,
    );
    let qffn = transformer_accel::quantized::QuantFfnResBlock::from_f32(&ffn, &calib);
    let be = PaperBackend::new(AccelConfig {
        model: cfg.clone(),
        s: 8,
        ..AccelConfig::paper_default()
    });
    let gcfg = graph::GraphConfig {
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        h: cfg.h,
    };
    let xq = qmha.quantize_input_q(&calib[0]);

    let g = graph::mha_graph(&gcfg);
    let run_mha = |g: &graph::Graph| {
        let prog = be.lower_mha(g, 8);
        (
            be.run_mha(&prog, &qmha, &xq, &xq, None),
            be.cycles(&prog, 8),
        )
    };
    assert_eq!(run_mha(&graph::fuse(&g)), run_mha(&g));

    let g = graph::ffn_graph(&gcfg);
    let x = qffn.quantize_input(&calib[1]);
    let run_ffn = |g: &graph::Graph| {
        let prog = be.lower_ffn(g);
        (be.run_ffn(&prog, &qffn, &x), be.cycles(&prog, 8))
    };
    assert_eq!(run_ffn(&graph::fuse(&g)), run_ffn(&g));
}

#[test]
fn rollback_after_fault_decode_is_fusion_invariant() {
    // A detected accumulator upset rolls the step back and replays it.
    // The fused QLinear drains defer to the unfused pair while fault
    // hooks are live (the ABFT check needs the pre-bias accumulators);
    // attention runs its one fused path either way. The heal must be
    // identical to the fault-free decode.
    let _faults = faults::exclusive();
    transformer_accel::tensor::par::set_thread_override(Some(1));
    faults::clear();
    faults::set_checker(Some(false));
    faults::reset_counters();

    let (_, quant, srcs) = models(0xFA57);
    let decode = |n: usize| -> (Vec<Response>, transformer_accel::serving::ServingStats) {
        let mut engine = ContinuousBatcher::new(&quant, EngineConfig::with_max_batch(2)).unwrap();
        for (id, src) in srcs.iter().take(n).enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), 6).with_prompt(vec![1, 2, 3]))
                .unwrap();
        }
        (engine.run_to_completion(), engine.stats())
    };
    let want = decode(2).0;

    // Count the GEMM passes prefill consumes, then schedule one
    // accumulator flip inside the first batched decode step's window.
    faults::install(FaultPlan::empty());
    {
        let mut arena = transformer_accel::quantized::incremental::KvArena::for_model(&quant);
        for src in srcs.iter().take(2) {
            let _ = quant.start_session(&mut arena, src);
        }
    }
    let p0 = faults::with_injector(|i| i.passes_seen()).unwrap();
    faults::clear();
    let plan = FaultPlan::seeded(
        7,
        1,
        &FaultSpace {
            index_lo: p0 + 1,
            index_hi: p0 + 15,
            rows: 2,
            cols: 8,
            classes: vec![SiteClass::Accumulator],
        },
    );

    faults::install(plan);
    faults::set_checker(Some(true));
    faults::reset_counters();
    let (resp, stats) = decode(2);
    let c = faults::counters();
    faults::clear();
    faults::set_checker(Some(false));
    assert_eq!(c.injected, 1, "the scheduled flip must fire");
    assert!(c.detected >= 1, "flip must be detected");
    assert!(stats.retries >= 1, "step must be retried");
    assert_eq!(
        resp.iter().map(|r| &r.tokens).collect::<Vec<_>>(),
        want.iter().map(|r| &r.tokens).collect::<Vec<_>>(),
        "healed decode must match the fault-free decode"
    );

    faults::set_checker(None);
    faults::reset_counters();
    transformer_accel::tensor::par::set_thread_override(None);
}
