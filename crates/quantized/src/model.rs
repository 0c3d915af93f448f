//! The fully quantized encoder–decoder model used for the Section V-A
//! BLEU study: INT8 ResBlocks everywhere, FP32 embeddings and output
//! projection (the paper only quantizes the Fig. 3 matrices — "other
//! components beside the stacks ... have not been taken into account").

use tensor::{ops, Mat};
use transformer::bleu::corpus_bleu;
use transformer::greedy::GreedyStats;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::BOS;

use crate::exec::{cached_mha_rows, CacheRef};
use crate::ffn::QuantFfnResBlock;
use crate::mha::QuantMhaResBlock;
use crate::softmax::SoftmaxMode;

/// Copies each group of consecutive rows of `m` (`groups[i]` rows for
/// group `i`, in order) into a matrix of its own.
pub(crate) fn split_rows(m: &Mat<i8>, groups: &[usize]) -> Vec<Mat<i8>> {
    let mut r0 = 0;
    groups
        .iter()
        .map(|&rows| {
            let part = m.submatrix(r0, 0, rows, m.cols()).expect("group rows");
            r0 += rows;
            part
        })
        .collect()
}

/// One quantized encoder layer.
#[derive(Debug, Clone)]
pub struct QuantEncoderLayer {
    /// Self-attention ResBlock.
    pub mha: QuantMhaResBlock,
    /// Feed-forward ResBlock.
    pub ffn: QuantFfnResBlock,
}

/// One quantized decoder layer.
#[derive(Debug, Clone)]
pub struct QuantDecoderLayer {
    /// Causal self-attention ResBlock.
    pub self_mha: QuantMhaResBlock,
    /// Encoder–decoder cross-attention ResBlock.
    pub cross_mha: QuantMhaResBlock,
    /// Feed-forward ResBlock.
    pub ffn: QuantFfnResBlock,
}

/// INT8-quantized sequence-to-sequence Transformer.
#[derive(Debug, Clone)]
pub struct QuantSeq2Seq {
    src_emb: transformer::embedding::Embedding,
    tgt_emb: transformer::embedding::Embedding,
    enc_layers: Vec<QuantEncoderLayer>,
    dec_layers: Vec<QuantDecoderLayer>,
    out_proj: transformer::linear::Linear,
    max_len: usize,
}

impl QuantSeq2Seq {
    /// Quantizes a trained FP32 model, calibrating every activation
    /// scale by replaying the calibration corpus through the FP32
    /// layers (post-training quantization, after Bhandare et al. 2019).
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    pub fn from_trained(
        model: &Seq2SeqTransformer,
        calib: &[(Vec<usize>, Vec<usize>)],
        mode: SoftmaxMode,
    ) -> Self {
        assert!(!calib.is_empty(), "empty calibration corpus");
        let cfg = model.config();

        // --- Encoder side -------------------------------------------------
        let mut xs: Vec<Mat<f32>> = calib
            .iter()
            .map(|(src, _)| model.src_embedding().forward_inference(src))
            .collect();
        let mut enc_layers = Vec::with_capacity(model.encoder().n_layers());
        for layer in model.encoder().layers() {
            let (mha_f, ffn_f) = layer.blocks();
            let qmha = QuantMhaResBlock::from_f32(mha_f, &xs, &xs, mode);
            // FP32 replay to produce the next interface's activations.
            let mut mha_clone = mha_f.clone();
            let mha_outs: Vec<Mat<f32>> = xs
                .iter()
                .map(|x| mha_clone.forward(x, x, x, None))
                .collect();
            let qffn = QuantFfnResBlock::from_f32(ffn_f, &mha_outs);
            let mut ffn_clone = ffn_f.clone();
            xs = mha_outs.iter().map(|x| ffn_clone.forward(x)).collect();
            enc_layers.push(QuantEncoderLayer {
                mha: qmha,
                ffn: qffn,
            });
        }
        let memories = xs; // FP32 encoder outputs per calibration pair

        // --- Decoder side -------------------------------------------------
        let mut ys: Vec<Mat<f32>> = calib
            .iter()
            .map(|(_, tgt)| {
                let mut tgt_in = vec![BOS];
                tgt_in.extend_from_slice(tgt);
                model.tgt_embedding().forward_inference(&tgt_in)
            })
            .collect();
        let mut dec_layers = Vec::with_capacity(model.decoder().n_layers());
        for layer in model.decoder().layers() {
            let (self_f, cross_f, ffn_f) = layer.blocks();
            let q_self = QuantMhaResBlock::from_f32_with_mask(self_f, &ys, &ys, mode, |sq, _| {
                Some(ops::causal_mask(sq))
            });
            let mut self_clone = self_f.clone();
            let self_outs: Vec<Mat<f32>> = ys
                .iter()
                .map(|y| {
                    let m = ops::causal_mask(y.rows());
                    self_clone.forward(y, y, y, Some(&m))
                })
                .collect();
            let q_cross = QuantMhaResBlock::from_f32(cross_f, &self_outs, &memories, mode);
            let mut cross_clone = cross_f.clone();
            let cross_outs: Vec<Mat<f32>> = self_outs
                .iter()
                .zip(&memories)
                .map(|(a, m)| cross_clone.forward(a, m, m, None))
                .collect();
            let q_ffn = QuantFfnResBlock::from_f32(ffn_f, &cross_outs);
            let mut ffn_clone = ffn_f.clone();
            ys = cross_outs.iter().map(|x| ffn_clone.forward(x)).collect();
            dec_layers.push(QuantDecoderLayer {
                self_mha: q_self,
                cross_mha: q_cross,
                ffn: q_ffn,
            });
        }

        Self {
            src_emb: model.src_embedding().clone(),
            tgt_emb: model.tgt_embedding().clone(),
            enc_layers,
            dec_layers,
            // An inference copy: `Linear::clone` would also copy the
            // `d_model x vocab` gradient buffer nothing here reads.
            out_proj: transformer::linear::Linear::from_parts(
                "out_proj",
                model.output_projection().weight().clone(),
                model.output_projection().bias().to_vec(),
            ),
            max_len: cfg.max_len,
        }
    }

    /// Switches every attention block's softmax implementation.
    pub fn set_softmax_mode(&mut self, mode: SoftmaxMode) {
        for l in &mut self.enc_layers {
            l.mha.set_softmax_mode(mode);
        }
        for l in &mut self.dec_layers {
            l.self_mha.set_softmax_mode(mode);
            l.cross_mha.set_softmax_mode(mode);
        }
    }

    /// The quantized encoder layers (the accelerator simulator drives
    /// these directly).
    pub fn encoder_layers(&self) -> &[QuantEncoderLayer] {
        &self.enc_layers
    }

    /// The quantized decoder layers.
    pub fn decoder_layers(&self) -> &[QuantDecoderLayer] {
        &self.dec_layers
    }

    /// Maximum decode length (from the source model's configuration) —
    /// the horizon incremental sessions reserve their KV caches for.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Source-side vocabulary size — tokens `>= src_vocab()` panic in
    /// the embedding lookup, so network admission validates against it.
    pub fn src_vocab(&self) -> usize {
        self.src_emb.vocab()
    }

    /// Target-side vocabulary size (prompt tokens must stay below it).
    pub fn tgt_vocab(&self) -> usize {
        self.tgt_emb.vocab()
    }

    /// The (FP32) target embedding — incremental decoding embeds single
    /// tokens at absolute positions through it.
    pub fn tgt_embedding(&self) -> &transformer::embedding::Embedding {
        &self.tgt_emb
    }

    /// Applies the FP32 output projection to a stack of decoder rows
    /// (one logit row per input row). The GEMM is row-independent, so
    /// row `r` is the same bits whatever other rows are stacked with it.
    pub(crate) fn output_projection_rows(&self, x: &Mat<f32>) -> Mat<f32> {
        self.out_proj.forward_inference(x)
    }

    /// `ops::argmax` of each row of
    /// [`QuantSeq2Seq::output_projection_rows`] without forming the
    /// logits (`Linear::argmax_rows`), plus the screen's counts.
    pub(crate) fn output_projection_argmax(&self, x: &Mat<f32>) -> (Vec<usize>, GreedyStats) {
        self.out_proj.argmax_rows(x)
    }

    /// The (FP32) source embedding the encoder input is built with.
    pub fn src_embedding(&self) -> &transformer::embedding::Embedding {
        &self.src_emb
    }

    /// Runs the quantized encoder, returning output codes (scale: last
    /// FFN block's `out_scale`) — the stacked encoder pass
    /// [`QuantSeq2Seq::start_sessions`] runs, over one source.
    pub fn encode(&self, src: &[usize]) -> Mat<i8> {
        self.encode_stacked(&[src])
    }

    /// Runs the quantized encoder over several sources as **one**
    /// stacked pass and returns their output codes stacked in the same
    /// order (source `i`'s rows follow source `i - 1`'s).
    ///
    /// Each layer's `W_K`/`W_V`/`W_Q`/`W_G` projections and both FFN
    /// sublayers run once over all the sources' rows, so the encoder
    /// weights stream once per call rather than once per source. The
    /// attention is per source: [`cached_mha_rows`] with each source's
    /// K/V in its own allocation (so no two sources can look like a
    /// shared-storage cohort) and `causal = false`. Every integer GEMM is
    /// row-independent and the attention sees only its own source's rows,
    /// so each source's codes are bit-identical to encoding it alone.
    /// Input rows are embedded with [`Embedding::embed_into`], whose
    /// memoised position rows are the recomputed ones bit for bit.
    ///
    /// [`Embedding::embed_into`]: transformer::embedding::Embedding::embed_into
    pub(crate) fn encode_stacked(&self, srcs: &[&[usize]]) -> Mat<i8> {
        let groups: Vec<usize> = srcs.iter().map(|s| s.len()).collect();
        let mut emb = Mat::zeros(groups.iter().sum(), self.src_emb.d_model());
        let mut r = 0;
        for src in srcs {
            for (pos, &token) in src.iter().enumerate() {
                self.src_emb.embed_into(token, pos, emb.row_mut(r));
                r += 1;
            }
        }
        let mut codes = self.enc_layers[0].mha.quantize_input_q(&emb);
        for layer in &self.enc_layers {
            let (_, wk, wv, _) = layer.mha.projections();
            let keys = split_rows(&wk.forward(&codes), &groups);
            let vals = split_rows(&wv.forward(&codes), &groups);
            let keys: Vec<CacheRef<'_>> = keys.iter().map(CacheRef::flat).collect();
            let vals: Vec<CacheRef<'_>> = vals.iter().map(CacheRef::flat).collect();
            let a = cached_mha_rows(&layer.mha, &codes, &groups, &keys, &vals, false);
            let (b, _) = layer.ffn.forward(&a);
            codes = b;
        }
        codes
    }

    /// Teacher-forced logits (FP32, from the output projection).
    pub fn forward_logits(&self, src: &[usize], tgt_in: &[usize]) -> Mat<f32> {
        let memory = self.encode(src);
        let dec = self.decode_codes(tgt_in, &memory);
        let last_ffn = &self.dec_layers.last().expect("nonempty decoder").ffn;
        let dec_f32 = last_ffn.dequantize_output(&dec);
        self.out_proj.forward_inference(&dec_f32)
    }

    fn decode_codes(&self, tgt_in: &[usize], memory: &Mat<i8>) -> Mat<i8> {
        let y = self.tgt_emb.forward_inference(tgt_in);
        let mask = ops::causal_mask(tgt_in.len());
        let mut codes = self.dec_layers[0].self_mha.quantize_input_q(&y);
        for layer in &self.dec_layers {
            let (a, _) = layer.self_mha.forward(&codes, &codes, Some(&mask));
            let (b, _) = layer.cross_mha.forward(&a, memory, None);
            let (c, _) = layer.ffn.forward(&b);
            codes = c;
        }
        codes
    }

    /// Greedy autoregressive decoding (mirrors
    /// [`Seq2SeqTransformer::greedy_decode`]).
    pub fn greedy_decode(
        &self,
        src: &[usize],
        bos: usize,
        eos: usize,
        max_len: usize,
    ) -> Vec<usize> {
        let memory = self.encode(src);
        let mut tokens = vec![bos];
        let mut out = Vec::new();
        for _ in 0..max_len {
            let dec = self.decode_codes(&tokens, &memory);
            let last_ffn = &self.dec_layers.last().expect("nonempty decoder").ffn;
            let dec_f32 = last_ffn.dequantize_output(&dec);
            let last = dec_f32
                .submatrix(dec_f32.rows() - 1, 0, 1, dec_f32.cols())
                .expect("row");
            let logits = self.out_proj.forward_inference(&last);
            let next = ops::argmax(logits.row(0));
            if next == eos {
                break;
            }
            out.push(next);
            tokens.push(next);
        }
        out
    }

    /// Evaluates greedy decodes against references with corpus BLEU.
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty.
    pub fn evaluate(&self, corpus: &[(Vec<usize>, Vec<usize>)]) -> QuantEvalReport {
        assert!(!corpus.is_empty(), "empty evaluation corpus");
        let hyps: Vec<Vec<usize>> = corpus
            .iter()
            .map(|(src, _)| self.greedy_decode_incremental(src, self.max_len))
            .collect();
        self.score(corpus, hyps)
    }

    /// Like [`QuantSeq2Seq::evaluate`] but decodes sentences on
    /// `threads` worker threads (inference is `&self` — the quantized
    /// datapath holds no mutable state). Results are bit-identical to
    /// the serial path.
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty or `threads == 0`.
    pub fn evaluate_parallel(
        &self,
        corpus: &[(Vec<usize>, Vec<usize>)],
        threads: usize,
    ) -> QuantEvalReport {
        assert!(!corpus.is_empty(), "empty evaluation corpus");
        assert!(threads > 0, "need at least one thread");
        let chunk = corpus.len().div_ceil(threads);
        let mut hyps: Vec<Vec<usize>> = vec![Vec::new(); corpus.len()];
        std::thread::scope(|scope| {
            for (slot_chunk, work_chunk) in hyps.chunks_mut(chunk).zip(corpus.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, (src, _)) in slot_chunk.iter_mut().zip(work_chunk) {
                        *slot = self.greedy_decode_incremental(src, self.max_len);
                    }
                });
            }
        });
        self.score(corpus, hyps)
    }

    fn score(&self, corpus: &[(Vec<usize>, Vec<usize>)], hyps: Vec<Vec<usize>>) -> QuantEvalReport {
        let refs: Vec<Vec<usize>> = corpus.iter().map(|(_, t)| t.clone()).collect();
        let exact = hyps.iter().zip(&refs).filter(|(h, r)| h == r).count();
        QuantEvalReport {
            bleu: corpus_bleu(&hyps, &refs),
            exact_match: exact as f32 / corpus.len() as f32,
            token_error_rate: transformer::metrics::token_error_rate(&hyps, &refs),
        }
    }
}

/// Evaluation result of the quantized model.
#[derive(Debug, Clone, Copy)]
pub struct QuantEvalReport {
    /// Corpus BLEU-4 (0–100).
    pub bleu: f64,
    /// Exact-match rate of greedy decodes.
    pub exact_match: f32,
    /// Token error rate (Levenshtein edits / reference tokens).
    pub token_error_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::tasks::{Task, TaskGen, EOS};

    #[allow(clippy::type_complexity)]
    fn tiny_setup() -> (Seq2SeqTransformer, Vec<(Vec<usize>, Vec<usize>)>) {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 1;
        let mut rng = StdRng::seed_from_u64(11);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
        let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(12));
        (model, corpus)
    }

    #[test]
    fn construction_and_logit_shapes() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        let (src, tgt) = &corpus[0];
        let (_, tin, _) = transformer::tasks::teacher_forcing(src, tgt);
        let logits = q.forward_logits(src, &tin);
        assert_eq!(logits.shape(), (tin.len(), model.config().vocab));
        assert!(logits.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn quantized_logits_track_fp32_logits() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Fp32);
        let mut m = model.clone();
        let (src, tgt) = &corpus[1];
        let (_, tin, _) = transformer::tasks::teacher_forcing(src, tgt);
        let want = m.forward_train(src, &tin);
        let got = q.forward_logits(src, &tin);
        // correlation check: argmax rows should mostly agree on an
        // untrained random model is too strict; instead bound the error
        // relative to the logit scale.
        let scale = tensor::ops::max_abs(&want).max(1e-3);
        let err = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(err / scale < 0.35, "relative logit error {}", err / scale);
    }

    #[test]
    fn greedy_decode_is_deterministic() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        let (src, _) = &corpus[2];
        assert_eq!(
            q.greedy_decode(src, BOS, EOS, 8),
            q.greedy_decode(src, BOS, EOS, 8)
        );
    }

    #[test]
    fn evaluate_produces_bounded_metrics() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        let rep = q.evaluate(&corpus);
        assert!((0.0..=100.0).contains(&rep.bleu));
        assert!((0.0..=1.0).contains(&rep.exact_match));
        assert!(rep.token_error_rate >= 0.0);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        let serial = q.evaluate(&corpus);
        let parallel = q.evaluate_parallel(&corpus, 3);
        assert_eq!(serial.bleu, parallel.bleu);
        assert_eq!(serial.exact_match, parallel.exact_match);
        // more threads than sentences must also work
        let many = q.evaluate_parallel(&corpus, 64);
        assert_eq!(serial.bleu, many.bleu);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let (model, corpus) = tiny_setup();
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        let _ = q.evaluate_parallel(&corpus, 0);
    }

    #[test]
    fn softmax_mode_switch_applies_everywhere() {
        let (model, corpus) = tiny_setup();
        let mut q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Fp32);
        let (src, tgt) = &corpus[0];
        let (_, tin, _) = transformer::tasks::teacher_forcing(src, tgt);
        let a = q.forward_logits(src, &tin);
        q.set_softmax_mode(SoftmaxMode::Hardware);
        let b = q.forward_logits(src, &tin);
        assert_ne!(a, b);
    }
}
