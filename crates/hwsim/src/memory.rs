//! On-chip memory modelling: BRAM36 block estimation for a given
//! depth × width, following Xilinx UltraScale+ BRAM packing rules
//! (36 Kbit per block, maximum port width 72 bits at depth 512).

use serde::{Deserialize, Serialize};

/// Bits per BRAM36 block.
pub const BRAM36_BITS: u64 = 36 * 1024;

/// Maximum single-port width of a BRAM36 (72 bits at depth 512).
pub(crate) const BRAM36_MAX_WIDTH: u64 = 72;

/// A synchronous on-chip memory specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Number of addressable words.
    pub depth: u64,
    /// Bits per word (the port width the datapath needs every cycle).
    pub width_bits: u64,
}

impl MemorySpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(depth: u64, width_bits: u64) -> Self {
        assert!(
            depth > 0 && width_bits > 0,
            "memory dimensions must be positive"
        );
        Self { depth, width_bits }
    }

    /// Total bits stored.
    pub fn bits(&self) -> u64 {
        self.depth * self.width_bits
    }

    /// BRAM36 blocks required, honouring both capacity and port width:
    /// the width forces `ceil(width / 72)` parallel blocks; each column
    /// of blocks then provides `36Kbit / min(width_per_block, 72)` words
    /// of depth.
    pub fn bram36_blocks(&self) -> f64 {
        let columns = self.width_bits.div_ceil(BRAM36_MAX_WIDTH);
        let width_per_column = self.width_bits.div_ceil(columns);
        // depth available per column at this width
        let depth_per_block = BRAM36_BITS / width_per_column.next_power_of_two().max(1);
        // Xilinx supports width 1,2,4,9,18,36,72 -> depth 32K..512; model
        // with the power-of-two envelope and the 512-word floor at w=72.
        let depth_per_block = depth_per_block.clamp(512, 32 * 1024);
        let rows = self.depth.div_ceil(depth_per_block);
        // BRAM18 granularity: a memory using at most half a block counts 0.5
        let blocks = (columns * rows) as f64;
        if blocks == 1.0 && self.bits() * 2 <= BRAM36_BITS {
            0.5
        } else {
            blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_memory_uses_half_block() {
        // 512 x 16 bits = 8 Kbit -> one BRAM18 = 0.5 BRAM36
        assert_eq!(MemorySpec::new(512, 16).bram36_blocks(), 0.5);
    }

    #[test]
    fn capacity_bound_dominates_for_deep_memories() {
        // 64K x 8 bits = 512 Kbit -> >= 15 blocks by capacity
        let m = MemorySpec::new(64 * 1024, 8);
        assert!(m.bram36_blocks() >= 14.0, "{}", m.bram36_blocks());
    }

    #[test]
    fn width_bound_dominates_for_wide_memories() {
        // 512 x 512 bits: width forces ceil(512/72) = 8 columns
        let m = MemorySpec::new(512, 512);
        assert!(m.bram36_blocks() >= 8.0, "{}", m.bram36_blocks());
    }

    #[test]
    fn weight_memory_scale_check() {
        // One Transformer-base layer of INT8 weights:
        // 4 * 512 * 512 + 2 * 512 * 2048 = 3.1 MB = 26.2 Mbit
        // needs at least 26.2Mbit / 36Kbit ~= 713 blocks purely by
        // capacity; banked at width 512 it lands in the same order as the
        // paper's 456 blocks for its weight buffer.
        let total_bits: u64 = (4 * 512 * 512 + 2 * 512 * 2048) * 8;
        let by_capacity = total_bits as f64 / BRAM36_BITS as f64;
        assert!(by_capacity > 500.0 && by_capacity < 800.0, "{by_capacity}");
    }

    #[test]
    fn bits_reported() {
        assert_eq!(MemorySpec::new(1024, 8).bits(), 8192);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        let _ = MemorySpec::new(0, 8);
    }
}
