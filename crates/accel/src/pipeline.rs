//! Full-model inference scheduling — the paper's future work ("build a
//! FPGA or ASIC accelerator for the complete Transformer inference"),
//! projected from the calibrated single-ResBlock models.
//!
//! Adds the one system-level constraint a multi-layer run introduces:
//! **weight traffic**. The weight memory is double-buffered (that is
//! what its 456 BRAMs buy, see [`crate::area`]), so the next block's
//! weights load while the current block computes; a layer only stalls
//! when its weight-load time exceeds the previous block's compute time.

use hwsim::cycles::Cycle;
use hwsim::traffic::{Direction, TrafficLedger};
use serde::Serialize;

use crate::config::AccelConfig;
use crate::scheduler;

/// System-level parameters of a multi-layer run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PipelineConfig {
    /// Sustained external bandwidth into the weight memory, bytes per
    /// clock cycle (64 B/cycle at 200 MHz = 12.8 GB/s — a single DDR4
    /// channel's worth, conservative for the VU13P board class).
    pub weight_bandwidth_bytes_per_cycle: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            weight_bandwidth_bytes_per_cycle: 64,
        }
    }
}

/// INT8 weight bytes of one MHA ResBlock (four projections + biases).
pub(crate) fn mha_weight_bytes(cfg: &AccelConfig) -> u64 {
    let d = cfg.model.d_model as u64;
    4 * (d * d + d)
}

/// INT8 weight bytes of one FFN ResBlock (two sublayers + biases).
pub(crate) fn ffn_weight_bytes(cfg: &AccelConfig) -> u64 {
    let d = cfg.model.d_model as u64;
    let f = cfg.model.d_ff as u64;
    2 * d * f + f + d
}

fn load_cycles(bytes: u64, pcfg: &PipelineConfig) -> Cycle {
    Cycle(bytes.div_ceil(pcfg.weight_bandwidth_bytes_per_cycle))
}

/// External-memory traffic of one encoder layer at sequence length
/// `cfg.s`: weights in (the dominant term), input activations in and
/// output activations back out. Everything between the two ResBlocks
/// stays on chip (the Fig. 5 data memory).
pub(crate) fn layer_traffic(cfg: &AccelConfig) -> TrafficLedger {
    let mut t = TrafficLedger::new();
    let act_bytes = (cfg.s * cfg.model.d_model) as u64; // INT8
    t.record("mha weights", Direction::In, mha_weight_bytes(cfg));
    t.record("ffn weights", Direction::In, ffn_weight_bytes(cfg));
    t.record("input activations", Direction::In, act_bytes);
    t.record("output activations", Direction::Out, act_bytes);
    t
}

/// The layer's arithmetic intensity (MACs per external byte): the
/// roofline x-coordinate. Transformer-base at s = 64 lands near 65
/// MAC/B — weight-bound at batch 1 (every weight byte is used exactly
/// `s` times).
pub fn layer_arithmetic_intensity(cfg: &AccelConfig) -> f64 {
    let macs = crate::analysis::mha_macs(&cfg.model, cfg.s).total()
        + crate::analysis::ffn_macs(&cfg.model, cfg.s);
    layer_traffic(cfg).arithmetic_intensity(macs)
}

/// Latency breakdown of one encoder layer in steady state.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LayerLatency {
    /// MHA ResBlock compute cycles.
    pub mha: Cycle,
    /// FFN ResBlock compute cycles.
    pub ffn: Cycle,
    /// Stall cycles waiting for weights (0 when the double buffer keeps
    /// up).
    pub weight_stall: Cycle,
}

impl LayerLatency {
    /// Total cycles for the layer.
    pub(crate) fn total(&self) -> Cycle {
        self.mha + self.ffn + self.weight_stall
    }
}

/// Steady-state latency of one encoder layer, including weight traffic.
pub fn encoder_layer(cfg: &AccelConfig, pcfg: &PipelineConfig) -> LayerLatency {
    let mha = scheduler::schedule_mha(cfg).cycles;
    let ffn = scheduler::schedule_ffn(cfg).cycles;
    // FFN weights load while the MHA computes; the next layer's MHA
    // weights load while the FFN computes.
    let ffn_load = load_cycles(ffn_weight_bytes(cfg), pcfg);
    let mha_load = load_cycles(mha_weight_bytes(cfg), pcfg);
    let stall = ffn_load.saturating_sub(mha) + mha_load.saturating_sub(ffn);
    LayerLatency {
        mha,
        ffn,
        weight_stall: stall,
    }
}

/// Latency report of a full stack / full inference.
#[derive(Debug, Clone, Serialize)]
pub struct InferenceReport {
    /// Encoder-stack cycles (all layers).
    pub encoder_cycles: Cycle,
    /// Decoder cycles across every autoregressive step.
    pub decoder_cycles: Cycle,
    /// Number of decode steps.
    pub decode_steps: usize,
    /// Total cycles.
    pub total_cycles: Cycle,
    /// Total latency in microseconds at the configured clock.
    pub total_us: f64,
}

/// Schedules the `n_layers`-deep encoder stack at `s = cfg.s`.
pub(crate) fn encoder_stack(cfg: &AccelConfig, pcfg: &PipelineConfig, n_layers: usize) -> Cycle {
    let per_layer = encoder_layer(cfg, pcfg).total();
    // First layer additionally waits for its own MHA weights.
    let prologue = load_cycles(mha_weight_bytes(cfg), pcfg);
    prologue + per_layer * n_layers as u64
}

/// One autoregressive decoder step at target position `t` (1-based):
/// causal self-attention over `t` cached positions, cross-attention
/// over `s_src` encoder positions, plus the FFN.
pub(crate) fn decoder_step(cfg: &AccelConfig, t: usize, s_src: usize) -> Cycle {
    let t = t.min(cfg.s);
    let self_mha = scheduler::schedule_mha_cross(cfg, t, t).cycles;
    let cross_mha = scheduler::schedule_mha_cross(cfg, t, s_src).cycles;
    let ffn = scheduler::schedule_ffn_len(cfg, t).cycles;
    self_mha + cross_mha + ffn
}

/// Full encoder–decoder inference: encode `s_src` tokens once, then
/// `s_tgt` greedy decode steps, each running every decoder layer.
///
/// # Panics
///
/// Panics if lengths are zero or exceed `cfg.s`.
///
/// # Example
///
/// ```
/// use accel::pipeline::{full_inference, PipelineConfig};
/// use accel::AccelConfig;
/// let rep = full_inference(
///     &AccelConfig::paper_default(),
///     &PipelineConfig::default(),
///     64,
///     8,
/// );
/// assert!(rep.decoder_cycles > rep.encoder_cycles);
/// ```
pub fn full_inference(
    cfg: &AccelConfig,
    pcfg: &PipelineConfig,
    s_src: usize,
    s_tgt: usize,
) -> InferenceReport {
    assert!(s_src > 0 && s_src <= cfg.s, "s_src out of range");
    assert!(s_tgt > 0 && s_tgt <= cfg.s, "s_tgt out of range");
    let n = cfg.model.n_layers;
    let encoder_cycles = encoder_stack(cfg, pcfg, n);
    let mut decoder_cycles = Cycle::ZERO;
    for t in 1..=s_tgt {
        decoder_cycles += decoder_step(cfg, t, s_src) * n as u64;
    }
    let total_cycles = encoder_cycles + decoder_cycles;
    InferenceReport {
        encoder_cycles,
        decoder_cycles,
        decode_steps: s_tgt,
        total_cycles,
        total_us: cfg.clock.cycles_to_us(total_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (AccelConfig, PipelineConfig) {
        (AccelConfig::paper_default(), PipelineConfig::default())
    }

    #[test]
    fn weight_byte_counts_match_model_dimensions() {
        let (cfg, _) = base();
        assert_eq!(mha_weight_bytes(&cfg), 4 * (512 * 512 + 512));
        assert_eq!(ffn_weight_bytes(&cfg), 2 * 512 * 2048 + 2048 + 512);
    }

    #[test]
    fn single_ddr4_channel_stalls_slightly_on_ffn_weights() {
        // A real finding of the system-level model: at 64 B/cycle
        // (12.8 GB/s) the FFN's 2.1 MB of weights take ~32.8k cycles,
        // which does NOT hide behind the MHA's ~21k compute — the base
        // model stalls ~11.8k cycles per layer on one DDR4 channel.
        let (cfg, pcfg) = base();
        let layer = encoder_layer(&cfg, &pcfg);
        assert!(
            layer.weight_stall > Cycle::ZERO && layer.weight_stall < Cycle(15_000),
            "stall {}",
            layer.weight_stall
        );
        assert_eq!(layer.total(), layer.mha + layer.ffn + layer.weight_stall);
    }

    #[test]
    fn doubling_bandwidth_removes_the_stall() {
        let (cfg, _) = base();
        let fast = PipelineConfig {
            weight_bandwidth_bytes_per_cycle: 128,
        };
        assert_eq!(encoder_layer(&cfg, &fast).weight_stall, Cycle::ZERO);
        let slow = PipelineConfig {
            weight_bandwidth_bytes_per_cycle: 8,
        };
        assert!(encoder_layer(&cfg, &slow).weight_stall > Cycle(100_000));
    }

    #[test]
    fn six_layer_encoder_is_roughly_six_single_layers() {
        let (cfg, pcfg) = base();
        let one = encoder_layer(&cfg, &pcfg).total();
        let six = encoder_stack(&cfg, &pcfg, 6);
        assert!(six >= one * 6);
        assert!(
            six.get() < one.get() * 6 + 20_000,
            "prologue should be small"
        );
    }

    #[test]
    fn layer_traffic_is_weight_dominated() {
        let (cfg, _) = base();
        let t = layer_traffic(&cfg);
        let weights = mha_weight_bytes(&cfg) + ffn_weight_bytes(&cfg);
        assert_eq!(
            t.bytes(hwsim::traffic::Direction::In),
            weights + (64 * 512) as u64
        );
        assert!(weights as f64 / t.total_bytes() as f64 > 0.97);
    }

    #[test]
    fn arithmetic_intensity_equals_sequence_length_roughly() {
        // each weight byte is used s times; activations are negligible,
        // so AI ~= s at batch 1.
        let (cfg, _) = base();
        let ai = layer_arithmetic_intensity(&cfg);
        assert!((ai - 64.0).abs() < 5.0, "AI {ai}");
    }

    #[test]
    fn decode_steps_grow_with_position() {
        let (cfg, _) = base();
        let early = decoder_step(&cfg, 1, 64);
        let late = decoder_step(&cfg, 64, 64);
        assert!(late > early, "{early} vs {late}");
    }

    #[test]
    fn full_inference_report_is_consistent() {
        let (cfg, pcfg) = base();
        let rep = full_inference(&cfg, &pcfg, 64, 16);
        assert_eq!(rep.decode_steps, 16);
        assert_eq!(rep.total_cycles, rep.encoder_cycles + rep.decoder_cycles);
        assert!((rep.total_us - rep.total_cycles.get() as f64 / 200.0).abs() < 1e-9);
        // autoregressive decoding dominates: 16 steps x 6 layers x ~3
        // blocks each vs 6 encoder layers x 2 blocks
        assert!(rep.decoder_cycles > rep.encoder_cycles);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_target_rejected() {
        let (cfg, pcfg) = base();
        let _ = full_inference(&cfg, &pcfg, 64, 65);
    }
}
