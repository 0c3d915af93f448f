//! Timing model of the LayerNorm module (Figs. 7 and 8).
//!
//! `G` arrives column-serially from the systolic-array drain (`d_model`
//! columns of `s` elements). The module has `s` parallel lanes; the
//! output phase emits one column per cycle (`Output(i, t)` for all `i`
//! simultaneously, `t` sweeping `1..64h` — Fig. 8), so the output phase
//! is `d_model` cycles in every variant. What the Fig. 7 optimisation
//! changes is the **added latency between the last input column and the
//! first output column**:
//!
//! | variant | after last G column |
//! |---|---|
//! | straightforward | mean pass (`d_model`) + variance pass (`d_model`) + rsqrt |
//! | step one        | variance pass (`d_model`) + rsqrt |
//! | step one + two  | rsqrt only (Eq. 9 from inline `ΣG`, `ΣG⊙G`) |

use hwsim::cycles::Cycle;

use crate::config::LayerNormMode;

/// Pipeline latency of the `x^(-1/2)` ROM lookup plus the mean/variance
/// combine (Fig. 8's subtract/multiply chain).
pub(crate) const RSQRT_LATENCY: u64 = 6;

/// Cycles between the last input column of `G` and the first output
/// column, for the given optimisation level (Fig. 7).
pub fn added_latency(mode: LayerNormMode, d_model: usize) -> Cycle {
    let d = d_model as u64;
    match mode {
        LayerNormMode::Straightforward => Cycle(2 * d + RSQRT_LATENCY),
        LayerNormMode::InlineMean => Cycle(d + RSQRT_LATENCY),
        LayerNormMode::InlineMeanAndVariance => Cycle(RSQRT_LATENCY),
    }
}

/// Output-phase duration: one column of `s` outputs per cycle over
/// `d_model` columns (identical across variants).
pub fn output_cycles(d_model: usize) -> Cycle {
    Cycle(d_model as u64)
}

/// End-to-end added cost of the LayerNorm module once `G` is complete.
pub(crate) fn total_tail(mode: LayerNormMode, d_model: usize) -> Cycle {
    added_latency(mode, d_model) + output_cycles(d_model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claims_128h_added_for_straightforward() {
        // "To calculate E(G) and var(G), at least 128h cycles are added
        // to the whole system latency" — with d_model = 64h, the two
        // passes are 2·64h = 128h.
        let d_model = 512; // h = 8
        let added = added_latency(LayerNormMode::Straightforward, d_model);
        assert_eq!(added.get() - RSQRT_LATENCY, 128 * 8);
    }

    #[test]
    fn each_step_removes_one_pass() {
        let d = 512;
        let sf = added_latency(LayerNormMode::Straightforward, d).get();
        let s1 = added_latency(LayerNormMode::InlineMean, d).get();
        let s12 = added_latency(LayerNormMode::InlineMeanAndVariance, d).get();
        assert_eq!(sf - s1, d as u64);
        assert_eq!(s1 - s12, d as u64);
        assert_eq!(s12, RSQRT_LATENCY);
    }

    #[test]
    fn output_phase_is_variant_independent() {
        for mode in [
            LayerNormMode::Straightforward,
            LayerNormMode::InlineMean,
            LayerNormMode::InlineMeanAndVariance,
        ] {
            assert_eq!(total_tail(mode, 512) - added_latency(mode, 512), Cycle(512));
        }
    }

    #[test]
    fn fully_optimized_tail_is_nearly_just_output() {
        // "very few cycles are required between the system finishing
        // calculating all the elements of matrix G and starting the
        // output"
        let tail = total_tail(LayerNormMode::InlineMeanAndVariance, 512);
        assert!(tail.get() < 512 + 10);
    }
}
