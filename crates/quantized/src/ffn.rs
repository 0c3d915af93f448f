//! The quantized FFN ResBlock — the INT8 dataflow of Fig. 3b /
//! Algorithm 1 lines 14–22.

use std::sync::OnceLock;

use fixedmath::quant::QuantParams;
use tensor::norm::{layernorm_rows, LAYERNORM_EPS};
use tensor::{ops, Mat};
use transformer::ffn::FfnResBlock;

use crate::calib::{linear_f32, FfnScales};
use crate::exec::PlannedGraph;
use crate::layernorm::HwLayerNorm;
use crate::qlinear::{QLinear, QuantScheme};

/// Quantized position-wise feed-forward ResBlock.
#[derive(Debug, Clone)]
pub struct QuantFfnResBlock {
    lin1: QLinear,
    lin2: QLinear,
    ln: HwLayerNorm,
    /// [`graph::ffn_graph`], fused, as [`Self::forward`] runs it; built
    /// on first use.
    graph: OnceLock<PlannedGraph>,
}

impl QuantFfnResBlock {
    /// Calibrates and quantizes an FP32 [`FfnResBlock`].
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    pub fn from_f32(block: &FfnResBlock, calib: &[Mat<f32>]) -> Self {
        Self::from_f32_calibrated(block, calib, crate::calib::CalibrationRule::MaxAbs)
    }

    /// Calibrates with an explicit activation-calibration rule.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    pub fn from_f32_calibrated(
        block: &FfnResBlock,
        calib: &[Mat<f32>],
        rule: crate::calib::CalibrationRule,
    ) -> Self {
        assert!(!calib.is_empty(), "empty calibration set");
        let (l1, l2) = block.sublayers();
        let mut obs_x = rule.observer();
        let mut obs_hidden = rule.observer();
        let mut obs_out = rule.observer();
        for x in calib {
            obs_x.observe(x);
            let hidden = ops::relu(&linear_f32(l1, x));
            obs_hidden.observe(&hidden);
            let g = ops::add(&linear_f32(l2, &hidden), x).expect("residual shape");
            let lnp = block.layernorm();
            let out = layernorm_rows(&g, lnp.gamma(), lnp.beta(), LAYERNORM_EPS);
            obs_out.observe(&out);
        }
        let scales = FfnScales {
            x: rule.resolve(&obs_x),
            hidden: rule.resolve(&obs_hidden),
            out: rule.resolve(&obs_out),
        };
        Self::from_f32_with_scales(block, scales)
    }

    /// Quantizes with explicit activation scales.
    pub fn from_f32_with_scales(block: &FfnResBlock, scales: FfnScales) -> Self {
        Self::from_f32_with_scales_scheme(block, scales, QuantScheme::PerTensor)
    }

    /// Quantizes with explicit scales and a chosen weight-quantization
    /// granularity (the per-tensor vs per-channel ablation).
    pub fn from_f32_with_scales_scheme(
        block: &FfnResBlock,
        scales: FfnScales,
        scheme: QuantScheme,
    ) -> Self {
        let (l1, l2) = block.sublayers();
        let lin1 = QLinear::from_f32_scheme(l1, scales.x, scales.hidden, scheme);
        // W2 output requantized straight into the residual (x) domain.
        let lin2 = QLinear::from_f32_scheme(l2, scales.hidden, scales.x, scheme);
        let lnp = block.layernorm();
        let ln = HwLayerNorm::from_f32(lnp.gamma(), lnp.beta(), scales.x, scales.out);
        Self {
            lin1,
            lin2,
            ln,
            graph: OnceLock::new(),
        }
    }

    /// The two quantized linear sublayers `(W1, W2)`.
    pub fn sublayers(&self) -> (&QLinear, &QLinear) {
        (&self.lin1, &self.lin2)
    }

    /// The quantized LayerNorm module.
    pub fn layernorm(&self) -> &HwLayerNorm {
        &self.ln
    }

    /// Quantizes an FP32 input into block input codes.
    pub fn quantize_input(&self, x: &Mat<f32>) -> Mat<i8> {
        self.lin1.quantize_input(x)
    }

    /// Dequantizes block output codes.
    pub fn dequantize_output(&self, y: &Mat<i8>) -> Mat<f32> {
        self.ln.dequantize_output(y)
    }

    /// Scale of the block's output codes.
    pub fn out_scale(&self) -> QuantParams {
        self.ln.out_scale()
    }

    /// Runs the block on INT8 codes. Returns `(output codes, hidden
    /// codes)`; the post-ReLU hidden matrix is the `P` the accelerator
    /// stores between the two Algorithm-1 loops.
    pub fn forward(&self, x: &Mat<i8>) -> (Mat<i8>, Mat<i8>) {
        // Runs the [`graph::ffn_graph`] dataflow through
        // [`crate::exec::QuantExec`]. ReLU on symmetric INT8 codes is a
        // plain max(0, ·), fused into the output of the bias adders
        // (Fig. 5's ReLU block).
        let g = self
            .graph
            .get_or_init(|| PlannedGraph::fused(&graph::ffn_graph(&self.graph_config())));
        let mut exec = crate::exec::QuantExec::ffn(self);
        let mut env = exec.run_planned(
            &g.graph,
            &g.plan,
            vec![("x", crate::exec::QVal::I8(x.clone()))],
            None,
        );
        let hidden = env.take("hidden").into_i8();
        (env.take("y").into_i8(), hidden)
    }

    /// The graph-shape parameters of this block (`h` is not an FFN
    /// concern and is left at one).
    pub fn graph_config(&self) -> graph::GraphConfig {
        graph::GraphConfig {
            d_model: self.lin1.weight_q().rows(),
            d_ff: self.lin1.weight_q().cols(),
            h: 1,
        }
    }

    /// Convenience wrapper: quantize FP32 input, run, dequantize.
    pub fn forward_f32(&self, x: &Mat<f32>) -> Mat<f32> {
        let (codes, _) = self.forward(&self.quantize_input(x));
        self.dequantize_output(&codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;

    fn setup() -> (FfnResBlock, QuantFfnResBlock, Vec<Mat<f32>>) {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(7);
        let block = FfnResBlock::new(&cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..6)
            .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
            .collect();
        let qblock = QuantFfnResBlock::from_f32(&block, &calib);
        (block, qblock, calib)
    }

    #[test]
    fn quantized_tracks_fp32_block() {
        let (mut block, qblock, calib) = setup();
        let x = &calib[0];
        let want = block.forward(x);
        let got = qblock.forward_f32(x);
        let err: f32 = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(err < 0.15, "max abs error {err}");
    }

    #[test]
    fn hidden_codes_are_nonnegative_after_relu() {
        let (_, qblock, calib) = setup();
        let xq = qblock.quantize_input(&calib[1]);
        let (_, hidden) = qblock.forward(&xq);
        assert!(hidden.as_slice().iter().all(|&v| v >= 0));
    }

    #[test]
    fn forward_is_deterministic() {
        let (_, qblock, calib) = setup();
        let xq = qblock.quantize_input(&calib[2]);
        assert_eq!(qblock.forward(&xq), qblock.forward(&xq));
    }

    #[test]
    fn single_row_input_works() {
        let (_, qblock, calib) = setup();
        let row = calib[0].submatrix(0, 0, 1, calib[0].cols()).unwrap();
        let y = qblock.forward_f32(&row);
        assert_eq!(y.shape(), (1, calib[0].cols()));
    }

    #[test]
    #[should_panic(expected = "empty calibration")]
    fn empty_calibration_rejected() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(2);
        let block = FfnResBlock::new(&cfg, &mut rng);
        let _ = QuantFfnResBlock::from_f32(&block, &[]);
    }
}
