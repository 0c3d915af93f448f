//! Timing model of the Softmax module (Fig. 6).
//!
//! The module has `s` parallel row lanes; score columns arrive serially
//! from the systolic-array drain. Its four stages map to cycles as:
//!
//! 1. **max tracking** — runs *during* input arrival (one comparator per
//!    lane), so it adds no latency after the last column;
//! 2. **EXP + SUM** — one pass over the `s_cols` stored columns;
//! 3. **LN unit** — a short pipeline ([`LN_LATENCY`] cycles);
//! 4. **final EXP** — a second pass over the columns, emitting output.
//!
//! Total latency after the last input column: `2·s_cols + LN_LATENCY`.
//! The paper's schedulability condition (Section IV) is that this
//! finishes before the systolic array completes `V·W_Vi + Bias_Vi`
//! (`d_model` cycles) — [`hides_behind_vw`] checks it.

use hwsim::cycles::Cycle;

/// Pipeline latency of the LN unit (leading-one detect + shift-add).
pub(crate) const LN_LATENCY: u64 = 4;

/// Latency from the last input column to the last output column.
pub fn latency_after_last_input(s_cols: usize) -> Cycle {
    Cycle(2 * s_cols as u64 + LN_LATENCY)
}

/// The paper's overlap condition: "As long as the Softmax module can
/// give the output no later than the SA module finishing calculating
/// `VW_Vi + Bias_Vi`" — i.e. softmax latency ≤ the `d_model`-deep GEMM
/// stream (plus its drain).
pub fn hides_behind_vw(s_cols: usize, d_model: usize) -> bool {
    latency_after_last_input(s_cols).get() <= (d_model + crate::partition::PANEL_COLS) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_two_passes_plus_ln() {
        assert_eq!(latency_after_last_input(64), Cycle(128 + LN_LATENCY));
        assert_eq!(latency_after_last_input(1), Cycle(2 + LN_LATENCY));
    }

    #[test]
    fn paper_configuration_hides_softmax() {
        // s = 64, d_model = 512: 132 <= 576 with slack — the paper's
        // design condition holds comfortably.
        assert!(hides_behind_vw(64, 512));
    }

    #[test]
    fn all_table1_configs_hide_softmax_at_s64() {
        for cfg in transformer::config::ModelConfig::table1() {
            assert!(hides_behind_vw(64, cfg.d_model), "{}", cfg.name);
        }
    }

    #[test]
    fn very_long_sequences_break_the_overlap() {
        // At s = 512 on Transformer-base the two softmax passes (1028)
        // exceed the V-projection stream (576): the array would stall.
        assert!(!hides_behind_vw(512, 512));
    }
}
