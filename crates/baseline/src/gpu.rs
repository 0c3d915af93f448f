//! Calibrated V100/PyTorch latency model.
//!
//! The paper measures its GPU baseline with the reference PyTorch
//! implementation (`jadore801120/attention-is-all-you-need-pytorch`) on
//! an NVIDIA V100 at batch 1, `s = 64`:
//!
//! | layer | GPU latency |
//! |---|---|
//! | MHA ResBlock | 1557.8 µs |
//! | FFN ResBlock | 713.4 µs |
//!
//! We model each ResBlock as its framework **operator trace** — every
//! PyTorch op dispatched (linear, view, transpose, masked_fill,
//! softmax, dropout, …) — with
//!
//! `latency = n_ops · overhead + FLOPs / (peak · batch1_efficiency)`.
//!
//! Solving the two published latencies for the two free constants gives
//! `overhead = 66.18 µs` per op and `efficiency = 5.41 %` of the V100's
//! 15.7 TFLOP/s FP32 peak — both squarely in the plausible range for
//! 2018-era PyTorch at batch 1. The model then *reproduces Table III by
//! construction at the calibration point* and extrapolates the
//! overhead-vs-compute crossover to other sequence lengths and model
//! sizes.

use serde::Serialize;
use transformer::config::ModelConfig;

/// One dispatched framework operation.
#[derive(Debug, Clone, Serialize)]
pub struct GpuOp {
    /// Operation name (mirrors the PyTorch trace).
    pub name: String,
    /// Floating-point operations executed on the device (2 × MACs for
    /// GEMMs; elementwise ops are counted but compute-negligible).
    pub flops: u64,
}

/// An operator trace of one layer.
#[derive(Debug, Clone, Serialize)]
pub struct OpTrace {
    /// Layer name.
    pub layer: String,
    /// Dispatched operations in execution order.
    pub ops: Vec<GpuOp>,
}

impl OpTrace {
    /// Number of dispatched operations.
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Total device FLOPs.
    pub(crate) fn total_flops(&self) -> u64 {
        self.ops.iter().map(|o| o.flops).sum()
    }
}

fn op(name: &str, flops: u64) -> GpuOp {
    GpuOp {
        name: name.into(),
        flops,
    }
}

/// The operator trace of the MHA ResBlock in the reference PyTorch
/// implementation (21 dispatched ops at batch 1).
pub fn mha_trace(cfg: &ModelConfig, s: usize) -> OpTrace {
    let (s64, h, dm, dk) = (s as u64, cfg.h as u64, cfg.d_model as u64, cfg.d_k() as u64);
    let proj = 2 * s64 * dm * dm; // full d_model x d_model linear
    let elem = s64 * dm; // elementwise over the activations
    let scores = 2 * s64 * s64 * dk * h;
    let ops = vec![
        op("linear_q", proj),
        op("linear_k", proj),
        op("linear_v", proj),
        op("view_q", 0),
        op("view_k", 0),
        op("view_v", 0),
        op("transpose_q", 0),
        op("transpose_k", 0),
        op("transpose_v", 0),
        op("div_sqrt_dk", s64 * s64 * h),
        op("bmm_qk", scores),
        op("masked_fill", s64 * s64 * h),
        op("softmax", 5 * s64 * s64 * h),
        op("dropout", s64 * s64 * h),
        op("bmm_av", scores),
        op("transpose_out", 0),
        op("reshape_concat", 0),
        op("linear_fc", proj),
        op("dropout_fc", elem),
        op("residual_add", elem),
        op("layer_norm", 8 * elem),
    ];
    OpTrace {
        layer: "MHA ResBlock".into(),
        ops,
    }
}

/// The operator trace of the FFN ResBlock (6 dispatched ops).
pub fn ffn_trace(cfg: &ModelConfig, s: usize) -> OpTrace {
    let (s64, dm, df) = (s as u64, cfg.d_model as u64, cfg.d_ff as u64);
    let elem = s64 * dm;
    let ops = vec![
        op("linear_w1", 2 * s64 * dm * df),
        op("relu", s64 * df),
        op("linear_w2", 2 * s64 * df * dm),
        op("dropout", elem),
        op("residual_add", elem),
        op("layer_norm", 8 * elem),
    ];
    OpTrace {
        layer: "FFN ResBlock".into(),
        ops,
    }
}

/// The calibrated GPU latency model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GpuModel {
    /// Framework dispatch + launch overhead per operation (µs).
    pub per_op_overhead_us: f64,
    /// Device peak FP32 throughput (FLOP/s).
    pub peak_flops: f64,
    /// Achieved fraction of peak at batch 1 (tiny GEMMs).
    pub batch1_efficiency: f64,
}

impl GpuModel {
    /// The V100/PyTorch baseline, calibrated to the paper's two
    /// published latencies (see module docs for the derivation).
    pub fn v100_pytorch() -> Self {
        Self {
            per_op_overhead_us: 66.179,
            peak_flops: 15.7e12,
            batch1_efficiency: 0.054_052,
        }
    }

    /// Predicted latency of an operator trace, in microseconds.
    pub fn latency_us(&self, trace: &OpTrace) -> f64 {
        let overhead = trace.op_count() as f64 * self.per_op_overhead_us;
        let compute = trace.total_flops() as f64 / (self.peak_flops * self.batch1_efficiency) * 1e6;
        overhead + compute
    }

    /// Fraction of the predicted latency spent in framework overhead.
    #[cfg(test)]
    fn overhead_fraction(&self, trace: &OpTrace) -> f64 {
        let total = self.latency_us(trace);
        trace.op_count() as f64 * self.per_op_overhead_us / total
    }

    /// Modelled GEMM efficiency at batch size `b`: tiny GEMMs gain
    /// near-linearly from batching until the device saturates around
    /// 60% of peak (a typical fp32 GEMM ceiling). **Assumption, not a
    /// measurement** — used only for the qualitative batch-crossover
    /// extension (the paper's comparison is strictly batch 1).
    pub(crate) fn efficiency_at_batch(&self, batch: usize) -> f64 {
        (self.batch1_efficiency * (batch as f64).powf(0.85)).min(0.60)
    }

    /// Predicted per-sentence latency at batch size `b`: overhead is
    /// paid once per op regardless of batch, compute scales with batch
    /// but amortises over the `b` sentences.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn latency_us_per_sentence(&self, trace: &OpTrace, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let overhead = trace.op_count() as f64 * self.per_op_overhead_us;
        let compute = trace.total_flops() as f64 * batch as f64
            / (self.peak_flops * self.efficiency_at_batch(batch))
            * 1e6;
        (overhead + compute) / batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelConfig {
        ModelConfig::transformer_base()
    }

    #[test]
    fn calibration_reproduces_table3_gpu_latencies() {
        let m = GpuModel::v100_pytorch();
        let mha = m.latency_us(&mha_trace(&base(), 64));
        let ffn = m.latency_us(&ffn_trace(&base(), 64));
        assert!((mha - 1557.8).abs() < 2.0, "MHA {mha}");
        assert!((ffn - 713.4).abs() < 2.0, "FFN {ffn}");
    }

    #[test]
    fn mha_is_overhead_dominated_ffn_less_so() {
        let m = GpuModel::v100_pytorch();
        let mha_frac = m.overhead_fraction(&mha_trace(&base(), 64));
        let ffn_frac = m.overhead_fraction(&ffn_trace(&base(), 64));
        assert!(mha_frac > 0.85, "MHA overhead fraction {mha_frac}");
        assert!(ffn_frac < 0.60, "FFN overhead fraction {ffn_frac}");
    }

    #[test]
    fn op_counts_match_reference_implementation() {
        assert_eq!(mha_trace(&base(), 64).op_count(), 21);
        assert_eq!(ffn_trace(&base(), 64).op_count(), 6);
    }

    #[test]
    fn gemm_flops_match_analysis_crate() {
        let t = mha_trace(&base(), 64);
        let macs = accel::analysis::mha_macs(&base(), 64);
        let gemm_flops: u64 = t
            .ops
            .iter()
            .filter(|o| o.name.starts_with("linear") || o.name.starts_with("bmm"))
            .map(|o| o.flops)
            .sum();
        assert_eq!(gemm_flops, 2 * macs.total());
        let t = ffn_trace(&base(), 64);
        let gemm_flops: u64 = t
            .ops
            .iter()
            .filter(|o| o.name.starts_with("linear"))
            .map(|o| o.flops)
            .sum();
        assert_eq!(gemm_flops, 2 * accel::analysis::ffn_macs(&base(), 64));
    }

    #[test]
    fn compute_term_grows_with_sequence_length() {
        let m = GpuModel::v100_pytorch();
        let short = m.latency_us(&ffn_trace(&base(), 16));
        let long = m.latency_us(&ffn_trace(&base(), 512));
        assert!(long > short * 3.0, "{short} -> {long}");
        // overhead fraction falls as compute grows
        assert!(
            m.overhead_fraction(&ffn_trace(&base(), 512))
                < m.overhead_fraction(&ffn_trace(&base(), 16))
        );
    }

    #[test]
    fn batch_one_batched_model_degenerates_to_calibration() {
        let m = GpuModel::v100_pytorch();
        let t = mha_trace(&base(), 64);
        assert!((m.latency_us_per_sentence(&t, 1) - m.latency_us(&t)).abs() < 1e-9);
    }

    #[test]
    fn batching_amortises_overhead() {
        let m = GpuModel::v100_pytorch();
        let t = mha_trace(&base(), 64);
        let b1 = m.latency_us_per_sentence(&t, 1);
        let b64 = m.latency_us_per_sentence(&t, 64);
        assert!(
            b64 < b1 / 10.0,
            "batch 64 should crush per-sentence cost: {b64} vs {b1}"
        );
        // efficiency saturates
        assert!(m.efficiency_at_batch(4096) <= 0.60);
        assert!(m.efficiency_at_batch(2) > m.efficiency_at_batch(1));
    }

    #[test]
    fn bigger_models_shift_toward_compute() {
        let m = GpuModel::v100_pytorch();
        let big = ModelConfig::transformer_big();
        assert!(
            m.overhead_fraction(&mha_trace(&big, 64))
                < m.overhead_fraction(&mha_trace(&base(), 64))
        );
    }
}
