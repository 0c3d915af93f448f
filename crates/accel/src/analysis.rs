//! Operation counting and the Eq. (3) utilization analysis.

use transformer::config::ModelConfig;

/// Multiply counts of one MHA ResBlock, broken down as in Eq. (3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhaMacs {
    /// `Q_i K_i^T` score products over all heads: `s² · d_k · h`.
    pub qk: u64,
    /// The three input projections over all heads: `3 · s · d_k · d_model · h`.
    pub projections: u64,
    /// The output projection `P · W_G`: `s · d_model²`.
    pub output_proj: u64,
    /// `Attention · V` products over all heads: `s² · d_k · h`.
    pub av: u64,
}

impl MhaMacs {
    /// Total multiplies in the ResBlock's GEMMs.
    pub fn total(&self) -> u64 {
        self.qk + self.projections + self.output_proj + self.av
    }
}

/// Counts MHA multiplies for sequence length `s` (Eq. (3) numerator and
/// denominator terms; the paper writes `d_k = 64`).
pub fn mha_macs(cfg: &ModelConfig, s: usize) -> MhaMacs {
    let (s, h, dm, dk) = (s as u64, cfg.h as u64, cfg.d_model as u64, cfg.d_k() as u64);
    MhaMacs {
        qk: s * s * dk * h,
        projections: 3 * s * dk * dm * h,
        output_proj: s * dm * dm,
        av: s * s * dk * h,
    }
}

/// FFN ResBlock multiplies: `2 · s · d_model · d_ff`.
pub fn ffn_macs(cfg: &ModelConfig, s: usize) -> u64 {
    2 * s as u64 * cfg.d_model as u64 * cfg.d_ff as u64
}

/// The share of MHA multiplies spent in `Q_i K_i^T` — the quantity
/// Eq. (3) estimates — computed from exact MAC counts.
///
/// Note: the paper's printed Eq. (3) carries extra `d_model`/`s` factors
/// in three denominator terms (dimensional slip), which makes its
/// closed form `s / (s + 256 h² + 64)` smaller than the exact ratio by
/// roughly `(2s + 256 h) / (s + 256 h² + 64)`. Both are tiny, so the
/// paper's conclusion (this op barely affects SA utilization) stands;
/// EXPERIMENTS.md reports both values.
/// ```
/// use accel::analysis::qk_ratio;
/// use transformer::config::ModelConfig;
/// let r = qk_ratio(&ModelConfig::transformer_base(), 64);
/// assert!(r < 0.03); // under 3% of the block's multiplies
/// ```
pub fn qk_ratio(cfg: &ModelConfig, s: usize) -> f64 {
    let m = mha_macs(cfg, s);
    m.qk as f64 / m.total() as f64
}

/// The paper's closed form of Eq. (3): `s / (s + 256 h² + 64)`.
pub fn qk_ratio_closed_form(h: usize, s: usize) -> f64 {
    s as f64 / (s as f64 + 256.0 * (h * h) as f64 + 64.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_reproduces_papers_numbers() {
        // Paper: "256h² is no smaller than 16,384" (h = 8) and the ratio
        // at s = 64 is 64 / (64 + 16,384 + 64).
        let r = qk_ratio_closed_form(8, 64);
        assert!((r - 64.0 / 16_512.0).abs() < 1e-12);
        assert!(r < 0.004);
    }

    #[test]
    fn exact_ratio_is_small_as_paper_concludes() {
        // The exact MAC ratio is larger than the paper's (algebraically
        // slipped) closed form but still small — the conclusion that
        // QK^T barely affects SA utilization holds either way.
        let base = ModelConfig::transformer_base();
        assert!(qk_ratio(&base, 64) < 0.03, "{}", qk_ratio(&base, 64));
        assert!(qk_ratio(&base, 128) < 0.06);
        let big = ModelConfig::transformer_big();
        assert!(qk_ratio(&big, 128) < 0.03);
        // and the closed form is always the smaller of the two
        assert!(qk_ratio_closed_form(8, 64) < qk_ratio(&base, 64));
    }

    #[test]
    fn ratio_grows_with_s_and_shrinks_with_h() {
        let base = ModelConfig::transformer_base();
        assert!(qk_ratio(&base, 128) > qk_ratio(&base, 32));
        let big = ModelConfig::transformer_big();
        assert!(qk_ratio(&big, 64) < qk_ratio(&base, 64));
    }

    #[test]
    fn mha_mac_breakdown_for_base_at_64() {
        let cfg = ModelConfig::transformer_base();
        let m = mha_macs(&cfg, 64);
        assert_eq!(m.qk, 64 * 64 * 64 * 8);
        assert_eq!(m.projections, 3 * 64 * 64 * 512 * 8);
        assert_eq!(m.output_proj, 64 * 512 * 512);
        assert_eq!(m.av, m.qk);
        // sanity: SA-bound lower cycle bound = total / (s*64) MACs/cycle
        let lower_bound = m.total() / (64 * 64);
        assert_eq!(lower_bound, 17_408);
    }

    #[test]
    fn ffn_macs_for_base_at_64() {
        let cfg = ModelConfig::transformer_base();
        assert_eq!(ffn_macs(&cfg, 64), 2 * 64 * 512 * 2048);
        // lower bound 32,768 cycles on a 64x64 array
        assert_eq!(ffn_macs(&cfg, 64) / (64 * 64), 32_768);
    }
}
