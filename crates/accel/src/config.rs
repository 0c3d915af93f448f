//! Accelerator configuration: array geometry, clock, and scheduling
//! policy switches (each switch corresponds to one of the paper's
//! optimisations, so their benefit can be measured in ablation).

use hwsim::cycles::Frequency;
use serde::{Deserialize, Serialize};
use transformer::config::ModelConfig;

/// How the LayerNorm module computes row statistics (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerNormMode {
    /// "The straightforward way": after G completes, one full pass to
    /// compute `E(G)`, a second full pass for `var(G)`, then output.
    Straightforward,
    /// "Optimized by step one": `Σ G` accumulators run inline with the
    /// input, so only the variance pass remains after G completes.
    InlineMean,
    /// "Optimized by step one and step two": `Σ G` *and* `Σ G⊙G`
    /// accumulate inline and `var = E(G)² − E(G⊙G)` (Eq. 9); only the
    /// rsqrt lookup separates the last input from the first output.
    InlineMeanAndVariance,
}

/// Scheduling-policy switches of the computation flow (Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedPolicy {
    /// Run the Softmax module in parallel with the `V W_Vi + Bias_Vi`
    /// GEMM (Algorithm 1 line 6 — the paper's key utilization trick).
    /// When `false`, the systolic array stalls until softmax finishes.
    pub overlap_softmax: bool,
    /// Drain the output accumulators through a double-buffered port
    /// while the next GEMM is already streaming. When `false`, the array
    /// is blocked for the 64 drain cycles of every GEMM (single-buffered
    /// accumulators).
    pub overlap_drain: bool,
    /// LayerNorm latency optimisation level (Fig. 7).
    pub layernorm: LayerNormMode,
}

impl SchedPolicy {
    /// The paper's published design point: softmax overlapped,
    /// single-buffered drain, fully optimised LayerNorm.
    pub fn paper() -> Self {
        Self {
            overlap_softmax: true,
            overlap_drain: false,
            layernorm: LayerNormMode::InlineMeanAndVariance,
        }
    }

    /// A fully naive baseline (no published optimisation enabled) —
    /// the ablation floor.
    pub fn naive() -> Self {
        Self {
            overlap_softmax: false,
            overlap_drain: false,
            layernorm: LayerNormMode::Straightforward,
        }
    }

    /// Everything overlapped (double-buffered drain as well) — the
    /// optimistic ceiling of the timing model.
    pub fn aggressive() -> Self {
        Self {
            overlap_softmax: true,
            overlap_drain: true,
            layernorm: LayerNormMode::InlineMeanAndVariance,
        }
    }
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// Target model hyper-parameters (Table I row).
    pub model: ModelConfig,
    /// Systolic-array row count = max sequence length `s`.
    pub s: usize,
    /// Clock frequency (the paper closes timing at 200 MHz).
    pub clock: Frequency,
    /// Scheduling policy.
    pub sched: SchedPolicy,
}

impl AccelConfig {
    /// The paper's evaluation point: Transformer-base, `s = 64`,
    /// 200 MHz, published policy.
    pub fn paper_default() -> Self {
        Self {
            model: ModelConfig::transformer_base(),
            s: 64,
            clock: Frequency::paper_clock(),
            sched: SchedPolicy::paper(),
        }
    }

    /// Validates structural assumptions.
    ///
    /// # Panics
    ///
    /// Panics if the model config is invalid or `s == 0`.
    pub(crate) fn validate(&self) {
        self.model.validate();
        assert!(self.s > 0, "sequence length must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_base_model_at_64() {
        let c = AccelConfig::paper_default();
        c.validate();
        assert_eq!(c.model.d_model, 512);
        assert_eq!(c.s, 64);
        assert_eq!(c.clock.as_mhz(), 200.0);
        assert!(c.sched.overlap_softmax);
        assert!(!c.sched.overlap_drain);
    }

    #[test]
    fn policies_differ() {
        assert_ne!(SchedPolicy::paper(), SchedPolicy::naive());
        assert_ne!(SchedPolicy::paper(), SchedPolicy::aggressive());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_s_rejected() {
        let mut c = AccelConfig::paper_default();
        c.s = 0;
        c.validate();
    }
}
