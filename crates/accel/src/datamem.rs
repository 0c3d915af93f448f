//! The Data Memory of Fig. 5 — capacity and bandwidth planning.
//!
//! Table II accounts the *weight* memory's BRAMs but carries no row for
//! the activation buffers, although Fig. 5 shows them explicitly
//! (`Q or X: s × 64h`, `K = V: s × 64h`, `Temp1: s × max(s, 64)`,
//! `Temp2: s × 64`, `P or ReLU(XW1): s × 256h`). On a VU13P the natural
//! home for these megabit-scale buffers is **URAM** (4,096 × 72-bit
//! blocks, 1,280 of them on-chip), which Vivado reports in a separate
//! column — consistent with the paper's table listing only 498 BRAM.
//! This module sizes those buffers for any configuration and checks the
//! URAM budget, completing the on-chip memory story.

use serde::Serialize;

use crate::config::AccelConfig;
use crate::partition::PANEL_COLS;

/// URAM blocks available on the paper's VU13P.
pub const VU13P_URAM: u64 = 1_280;

/// One activation buffer of Fig. 5.
#[derive(Debug, Clone, Serialize)]
pub struct BufferSpec {
    /// Fig. 5 label.
    pub name: String,
    /// Rows (always `s`).
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Bits per element (8 for INT8 activations, 32 for raw score
    /// accumulators held for the softmax's second pass).
    pub bits_per_elem: u64,
}

impl BufferSpec {
    /// Total bits stored.
    pub(crate) fn bits(&self) -> u64 {
        self.rows as u64 * self.cols as u64 * self.bits_per_elem
    }

    /// URAM blocks needed: the datapath reads one `s`-element column per
    /// cycle, so the buffer is banked `ceil(s·bits/72)` wide; depth then
    /// rides within one block for every Table-I configuration.
    pub(crate) fn uram_blocks(&self) -> u64 {
        let width_bits = self.rows as u64 * self.bits_per_elem;
        let columns = width_bits.div_ceil(72);
        let depth_per_block = 4_096u64;
        let rows_of_blocks = (self.cols as u64).div_ceil(depth_per_block);
        columns * rows_of_blocks
    }
}

/// The full Fig. 5 buffer inventory for a configuration.
pub(crate) fn buffers(cfg: &AccelConfig) -> Vec<BufferSpec> {
    let s = cfg.s;
    let d_model = cfg.model.d_model;
    let d_ff = cfg.model.d_ff;
    vec![
        BufferSpec {
            name: "Q or X".into(),
            rows: s,
            cols: d_model,
            bits_per_elem: 8,
        },
        BufferSpec {
            name: "K = V".into(),
            rows: s,
            cols: d_model,
            bits_per_elem: 8,
        },
        BufferSpec {
            // Temp1 holds Q_i W_Qi, and doubles as the softmax's score
            // store (s x max(s, 64)); scores are kept at accumulator
            // width for the second EXP pass.
            name: "Temp1".into(),
            rows: s,
            cols: s.max(PANEL_COLS),
            bits_per_elem: 32,
        },
        BufferSpec {
            name: "Temp2".into(),
            rows: s,
            cols: PANEL_COLS,
            bits_per_elem: 8,
        },
        BufferSpec {
            name: "P or ReLU(XW1)".into(),
            rows: s,
            cols: d_ff,
            bits_per_elem: 8,
        },
    ]
}

/// Data-memory plan: buffers, totals, and the URAM budget check.
#[derive(Debug, Clone, Serialize)]
pub struct DataMemoryPlan {
    /// Individual buffers.
    pub buffers: Vec<BufferSpec>,
    /// Total bits across buffers.
    pub total_bits: u64,
    /// Total URAM blocks.
    pub total_uram: u64,
    /// Whether the plan fits the VU13P's 1,280 URAMs.
    pub fits_vu13p: bool,
}

/// Plans the data memory for a configuration.
pub fn plan(cfg: &AccelConfig) -> DataMemoryPlan {
    cfg.validate();
    let buffers = buffers(cfg);
    let total_bits = buffers.iter().map(|b| b.bits()).sum();
    let total_uram = buffers.iter().map(|b| b.uram_blocks()).sum();
    DataMemoryPlan {
        buffers,
        total_bits,
        total_uram,
        fits_vu13p: total_uram <= VU13P_URAM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;

    #[test]
    fn paper_point_fits_comfortably_in_uram() {
        let p = plan(&AccelConfig::paper_default());
        assert!(p.fits_vu13p, "needs {} URAM", p.total_uram);
        // base model at s = 64: well under a quarter of the device
        assert!(p.total_uram < 320, "{}", p.total_uram);
    }

    #[test]
    fn buffer_shapes_match_fig5() {
        let p = plan(&AccelConfig::paper_default());
        let by_name = |n: &str| p.buffers.iter().find(|b| b.name == n).unwrap();
        assert_eq!(by_name("Q or X").cols, 512); // s x 64h
        assert_eq!(by_name("P or ReLU(XW1)").cols, 2048); // s x 256h
        assert_eq!(by_name("Temp1").cols, 64); // s x max(s, 64), s = 64
        assert_eq!(by_name("Temp2").cols, 64);
        assert_eq!(p.buffers.len(), 5);
    }

    #[test]
    fn p_buffer_dominates() {
        // "P or ReLU(XW1)" is 4x the input buffers — the FFN's hidden
        // activations are the data-memory driver, mirroring the FFN's
        // dominance in weights.
        let p = plan(&AccelConfig::paper_default());
        let p_bits = p
            .buffers
            .iter()
            .find(|b| b.name.starts_with('P'))
            .unwrap()
            .bits();
        assert!(p_bits * 2 > p.total_bits - p_bits);
    }

    #[test]
    fn long_sequence_grows_the_score_buffer() {
        let mut cfg = AccelConfig::paper_default();
        cfg.s = 128;
        let p = plan(&cfg);
        let temp1 = p.buffers.iter().find(|b| b.name == "Temp1").unwrap();
        assert_eq!(temp1.cols, 128);
        assert_eq!(temp1.bits_per_elem, 32);
        assert!(p.fits_vu13p);
    }

    #[test]
    fn big_model_still_fits() {
        let mut cfg = AccelConfig::paper_default();
        cfg.model = transformer::config::ModelConfig::transformer_big();
        let p = plan(&cfg);
        assert!(p.fits_vu13p, "needs {} URAM", p.total_uram);
    }

    #[test]
    fn uram_banking_respects_column_bandwidth() {
        // one s-element INT8 column per cycle needs ceil(64*8/72) = 8
        // parallel URAMs for the input buffers at s = 64
        let p = plan(&AccelConfig::paper_default());
        let q = p.buffers.iter().find(|b| b.name == "Q or X").unwrap();
        assert_eq!(q.uram_blocks(), 8);
    }
}
