//! The quantized MHA ResBlock — the INT8 dataflow of Fig. 3a /
//! Algorithm 1 lines 1–13, bit-exact with the accelerator.

use std::sync::OnceLock;

use fixedmath::quant::{QuantParams, Requantizer};
use tensor::norm::{layernorm_rows, LAYERNORM_EPS};
use tensor::{gemm, ops, Mat};
use transformer::functional::softmax_rows;
use transformer::mha::MhaResBlock;

use crate::calib::{linear_f32, MhaScales, Observer};
use crate::exec::PlannedGraph;
use crate::layernorm::HwLayerNorm;
use crate::qlinear::{QLinear, QuantScheme};
use crate::softmax::{prob_scale, SoftmaxMode};

/// Quantized multi-head-attention ResBlock.
#[derive(Debug, Clone)]
pub struct QuantMhaResBlock {
    wq: QLinear,
    wk: QLinear,
    wv: QLinear,
    wo: QLinear,
    ln: HwLayerNorm,
    h: usize,
    d_k: usize,
    d_scale: f32,
    p_requant: Requantizer,
    p_scale: QuantParams,
    mode: SoftmaxMode,
    /// [`graph::mha_graph`], fused, as [`Self::forward`] runs it; built
    /// on first use.
    graph: OnceLock<PlannedGraph>,
}

impl QuantMhaResBlock {
    /// Calibrates and quantizes an FP32 [`MhaResBlock`] using unmasked
    /// attention over the calibration inputs (`calib_q[i]` attends over
    /// `calib_kv[i]`).
    ///
    /// # Panics
    ///
    /// Panics if the calibration sets are empty or of different lengths.
    pub fn from_f32(
        block: &MhaResBlock,
        calib_q: &[Mat<f32>],
        calib_kv: &[Mat<f32>],
        mode: SoftmaxMode,
    ) -> Self {
        Self::from_f32_with_mask(block, calib_q, calib_kv, mode, |_, _| None)
    }

    /// Calibrates with a mask builder `mask_fn(s_q, s_kv)` (e.g. the
    /// causal mask for decoder self-attention).
    ///
    /// # Panics
    ///
    /// Panics if the calibration sets are empty or of different lengths.
    pub(crate) fn from_f32_with_mask(
        block: &MhaResBlock,
        calib_q: &[Mat<f32>],
        calib_kv: &[Mat<f32>],
        mode: SoftmaxMode,
        mask_fn: impl Fn(usize, usize) -> Option<Mat<bool>>,
    ) -> Self {
        let scales = Self::calibrate(block, calib_q, calib_kv, mask_fn);
        Self::from_f32_with_scales(block, scales, mode)
    }

    /// Replays the Fig. 3a dataflow in FP32 and resolves activation
    /// scales with the max-abs rule.
    fn calibrate(
        block: &MhaResBlock,
        calib_q: &[Mat<f32>],
        calib_kv: &[Mat<f32>],
        mask_fn: impl Fn(usize, usize) -> Option<Mat<bool>>,
    ) -> MhaScales {
        assert!(!calib_q.is_empty(), "empty calibration set");
        assert_eq!(
            calib_q.len(),
            calib_kv.len(),
            "calibration set length mismatch"
        );
        let (wq_f, wk_f, wv_f, wo_f) = block.mha().projections();
        let h = block.mha().heads();
        let d_model = wq_f.d_in();
        let d_k = d_model / h;
        let scale = 1.0 / (d_k as f32).sqrt();

        // FP32 replay of the Fig. 3a dataflow to observe activations.
        let mut obs_xq = Observer::new();
        let mut obs_xkv = Observer::new();
        let mut obs_q = Observer::new();
        let mut obs_k = Observer::new();
        let mut obs_v = Observer::new();
        let mut obs_p = Observer::new();
        let mut obs_out = Observer::new();
        for (xq, xkv) in calib_q.iter().zip(calib_kv) {
            obs_xq.observe(xq);
            obs_xkv.observe(xkv);
            let q = linear_f32(wq_f, xq);
            let k = linear_f32(wk_f, xkv);
            let v = linear_f32(wv_f, xkv);
            obs_q.observe(&q);
            obs_k.observe(&k);
            obs_v.observe(&v);
            let mask = mask_fn(xq.rows(), xkv.rows());
            let mut heads = Vec::with_capacity(h);
            for i in 0..h {
                let c0 = i * d_k;
                let qi = q.submatrix(0, c0, q.rows(), d_k).expect("panel");
                let ki = k.submatrix(0, c0, k.rows(), d_k).expect("panel");
                let vi = v.submatrix(0, c0, v.rows(), d_k).expect("panel");
                let scores = ops::scale(&gemm::matmul_nt(&qi, &ki).expect("shapes"), scale);
                let masked = match &mask {
                    Some(m) => ops::mask_scores(&scores, m).expect("mask shape"),
                    None => scores,
                };
                let probs = softmax_rows(&masked, None);
                heads.push(gemm::matmul(&probs, &vi).expect("shapes"));
            }
            let p = Mat::hconcat(&heads).expect("heads share rows");
            obs_p.observe(&p);
            let g = ops::add(&linear_f32(wo_f, &p), xq).expect("residual shape");
            let ln = block.layernorm();
            let out = layernorm_rows(&g, ln.gamma(), ln.beta(), LAYERNORM_EPS);
            obs_out.observe(&out);
        }
        MhaScales {
            x_q: obs_xq.quant_params(),
            x_kv: obs_xkv.quant_params(),
            q: obs_q.quant_params(),
            k: obs_k.quant_params(),
            v: obs_v.quant_params(),
            p: obs_p.quant_params(),
            out: obs_out.quant_params(),
        }
    }

    /// Quantizes with explicit, externally chosen activation scales.
    pub(crate) fn from_f32_with_scales(
        block: &MhaResBlock,
        scales: MhaScales,
        mode: SoftmaxMode,
    ) -> Self {
        Self::from_f32_with_scales_scheme(block, scales, mode, QuantScheme::PerTensor)
    }

    /// Quantizes with explicit scales and a chosen weight-quantization
    /// granularity (the per-tensor vs per-channel ablation).
    pub fn from_f32_with_scales_scheme(
        block: &MhaResBlock,
        scales: MhaScales,
        mode: SoftmaxMode,
        scheme: QuantScheme,
    ) -> Self {
        let (wq_f, wk_f, wv_f, wo_f) = block.mha().projections();
        let h = block.mha().heads();
        let d_k = wq_f.d_in() / h;
        let wq = QLinear::from_f32_scheme(wq_f, scales.x_q, scales.q, scheme);
        let wk = QLinear::from_f32_scheme(wk_f, scales.x_kv, scales.k, scheme);
        let wv = QLinear::from_f32_scheme(wv_f, scales.x_kv, scales.v, scheme);
        // W_G output is requantized straight into the residual (x_q)
        // domain so the residual add is a plain integer add.
        let wo = QLinear::from_f32_scheme(wo_f, scales.p, scales.x_q, scheme);
        let ln_f = block.layernorm();
        let ln = HwLayerNorm::from_f32(ln_f.gamma(), ln_f.beta(), scales.x_q, scales.out);
        let d_scale = scales.q.scale() * scales.k.scale();
        let p_ratio =
            prob_scale().scale() as f64 * scales.v.scale() as f64 / scales.p.scale() as f64;
        Self {
            wq,
            wk,
            wv,
            wo,
            ln,
            h,
            d_k,
            d_scale,
            p_requant: Requantizer::from_ratio(p_ratio),
            p_scale: scales.p,
            mode,
            graph: OnceLock::new(),
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.h
    }

    /// Per-head width.
    pub fn d_k(&self) -> usize {
        self.d_k
    }

    /// The softmax implementation in use.
    pub fn softmax_mode(&self) -> SoftmaxMode {
        self.mode
    }

    /// Switches the softmax implementation (the step-1 → step-2 toggle
    /// of the quantization study).
    pub(crate) fn set_softmax_mode(&mut self, mode: SoftmaxMode) {
        self.mode = mode;
    }

    /// The four quantized projections `(W_Q, W_K, W_V, W_G)`.
    pub fn projections(&self) -> (&QLinear, &QLinear, &QLinear, &QLinear) {
        (&self.wq, &self.wk, &self.wv, &self.wo)
    }

    /// The quantized LayerNorm module.
    pub fn layernorm(&self) -> &HwLayerNorm {
        &self.ln
    }

    /// Scale of the concatenated head-output matrix `P`.
    pub fn p_scale(&self) -> QuantParams {
        self.p_scale
    }

    /// Real scale of the `Q_i K_i^T` score accumulators
    /// (`s_q * s_k`) — what the softmax module's input stage folds in.
    pub fn d_scale(&self) -> f32 {
        self.d_scale
    }

    /// Requantizes an attention-output accumulator (`probs × V_i`) into
    /// a `P` code — the per-column requantization behind the systolic
    /// array's drain during Algorithm 1 line 7.
    pub fn requantize_p(&self, acc: i32) -> i8 {
        self.p_requant.apply_sat_i8(acc)
    }

    /// [`QuantMhaResBlock::requantize_p`] over one drained accumulator
    /// row: `out[i] = requantize_p(acc[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn requantize_p_into(&self, acc: &[i32], out: &mut [i8]) {
        self.p_requant.apply_sat_i8_slice(acc, out);
    }

    /// Requantizes a whole `probs × V_i` accumulator panel into `P`
    /// codes.
    pub fn requantize_p_panel(&self, p_acc: &Mat<i32>) -> Mat<i8> {
        let mut out = Mat::zeros(p_acc.rows(), p_acc.cols());
        self.p_requant
            .apply_sat_i8_slice(p_acc.as_slice(), out.as_mut_slice());
        out
    }

    /// Quantizes a query-side FP32 input into block input codes.
    pub fn quantize_input_q(&self, x: &Mat<f32>) -> Mat<i8> {
        self.wq.quantize_input(x)
    }

    /// Quantizes a key/value-side FP32 input into block input codes.
    pub(crate) fn quantize_input_kv(&self, x: &Mat<f32>) -> Mat<i8> {
        self.wk.quantize_input(x)
    }

    /// Dequantizes block output codes.
    pub(crate) fn dequantize_output(&self, y: &Mat<i8>) -> Mat<f32> {
        self.ln.dequantize_output(y)
    }

    /// Scale of the block's output codes.
    pub fn out_scale(&self) -> QuantParams {
        self.ln.out_scale()
    }

    /// Runs the block on INT8 codes. Returns `(output codes, P codes)`;
    /// the concatenated `P` matrix is exposed because the accelerator's
    /// scheduler stores it in the data memory between the two Algorithm-1
    /// loops.
    ///
    /// # Panics
    ///
    /// Panics if widths differ from `d_model` or the mask shape is wrong.
    pub fn forward(
        &self,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> (Mat<i8>, Mat<i8>) {
        // Runs the [`graph::mha_graph`] dataflow through
        // [`crate::exec::QuantExec`]: Algorithm 1's first loop fans out
        // per head across threads, the second loop (W_G, residual,
        // LayerNorm) runs in plan order.
        let g = self
            .graph
            .get_or_init(|| PlannedGraph::fused(&graph::mha_graph(&self.graph_config())));
        let mut env = crate::exec::QuantExec::mha(self).run(
            &g.graph,
            &g.plan,
            vec![
                ("x_q", crate::exec::QVal::I8(xq.clone())),
                ("x_k", crate::exec::QVal::I8(xkv.clone())),
                ("x_v", crate::exec::QVal::I8(xkv.clone())),
            ],
            mask,
        );
        let p = env.take("p").into_i8();
        (env.take("y").into_i8(), p)
    }

    /// The graph-shape parameters of this block (`d_ff` is not an MHA
    /// concern and is left at zero).
    pub fn graph_config(&self) -> graph::GraphConfig {
        graph::GraphConfig {
            d_model: self.h * self.d_k,
            d_ff: 0,
            h: self.h,
        }
    }

    /// Convenience wrapper: quantize FP32 inputs, run, dequantize.
    pub fn forward_f32(&self, xq: &Mat<f32>, xkv: &Mat<f32>, mask: Option<&Mat<bool>>) -> Mat<f32> {
        let (codes, _) = self.forward(
            &self.quantize_input_q(xq),
            &self.quantize_input_kv(xkv),
            mask,
        );
        self.dequantize_output(&codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;

    fn setup(mode: SoftmaxMode) -> (MhaResBlock, QuantMhaResBlock, Vec<Mat<f32>>) {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(42);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..6)
            .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
            .collect();
        let qblock = QuantMhaResBlock::from_f32(&block, &calib, &calib, mode);
        (block, qblock, calib)
    }

    fn max_err(a: &Mat<f32>, b: &Mat<f32>) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn quantized_tracks_fp32_block() {
        let (block, qblock, calib) = setup(SoftmaxMode::Fp32);
        let mut block = block;
        let x = &calib[0];
        let want = block.forward(x, x, x, None);
        let got = qblock.forward_f32(x, x, None);
        let err = max_err(&got, &want);
        // LayerNorm output is O(1); INT8+fixed-point error budget ~0.15.
        assert!(err < 0.15, "max abs error {err}");
    }

    #[test]
    fn hardware_softmax_changes_little() {
        let (_, q_sw, calib) = setup(SoftmaxMode::Fp32);
        let (_, q_hw, _) = setup(SoftmaxMode::Hardware);
        let x = &calib[1];
        let a = q_sw.forward_f32(x, x, None);
        let b = q_hw.forward_f32(x, x, None);
        let err = max_err(&a, &b);
        assert!(err < 0.25, "softmax swap shifted outputs by {err}");
        assert!(err > 0.0, "hardware softmax should differ at all");
    }

    #[test]
    fn forward_is_deterministic() {
        let (_, qblock, calib) = setup(SoftmaxMode::Hardware);
        let xq = qblock.quantize_input_q(&calib[2]);
        let (a, pa) = qblock.forward(&xq, &xq, None);
        let (b, pb) = qblock.forward(&xq, &xq, None);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
    }

    #[test]
    fn masked_forward_respects_causality() {
        let (block, qblock, calib) = setup(SoftmaxMode::Hardware);
        let mut block = block;
        let x = &calib[3];
        let s = x.rows();
        let mask = ops::causal_mask(s);
        let want = block.forward(x, x, x, Some(&mask));
        let got = qblock.forward_f32(x, x, Some(&mask));
        assert!(max_err(&got, &want) < 0.3);
    }

    #[test]
    fn cross_attention_with_different_lengths() {
        let (_, qblock, calib) = setup(SoftmaxMode::Hardware);
        let xq = calib[0].submatrix(0, 0, 3, calib[0].cols()).unwrap();
        let y = qblock.forward_f32(&xq, &calib[1], None);
        assert_eq!(y.shape(), (3, calib[0].cols()));
    }

    #[test]
    fn mode_toggle_switches_implementation() {
        let (_, mut qblock, calib) = setup(SoftmaxMode::Fp32);
        let xq = qblock.quantize_input_q(&calib[4]);
        let (a, _) = qblock.forward(&xq, &xq, None);
        qblock.set_softmax_mode(SoftmaxMode::Hardware);
        assert_eq!(qblock.softmax_mode(), SoftmaxMode::Hardware);
        let (b, _) = qblock.forward(&xq, &xq, None);
        assert_ne!(a, b, "switching softmax must change some codes");
    }

    #[test]
    #[should_panic(expected = "empty calibration")]
    fn empty_calibration_rejected() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(1);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let _ = QuantMhaResBlock::from_f32(&block, &[], &[], SoftmaxMode::Fp32);
    }
}
