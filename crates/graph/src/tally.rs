//! Process-wide fusion tallies.
//!
//! The serving engine's decode path holds no executor: the block
//! `forward`s build a short-lived one per pass, and the cached-attention
//! ResBlock is a plain function. Both therefore add their fused-op
//! counts to these monotonic process-wide counters (relaxed atomics — same pattern as
//! the `faults` crate's tallies), and the engine records the per-step
//! delta in its own stats.

use std::sync::atomic::{AtomicU64, Ordering};

static OPS_FUSED: AtomicU64 = AtomicU64::new(0);
static ELIDED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide fusion counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionTally {
    /// Fused nodes executed since process start.
    pub ops_fused: u64,
    /// Bytes of intermediate tensors fusion never materialized.
    pub intermediates_elided_bytes: u64,
}

impl FusionTally {
    /// Counter-wise difference `self - earlier` (saturating, so a
    /// stale snapshot can never produce a wrap-around).
    pub fn since(&self, earlier: &FusionTally) -> FusionTally {
        FusionTally {
            ops_fused: self.ops_fused.saturating_sub(earlier.ops_fused),
            intermediates_elided_bytes: self
                .intermediates_elided_bytes
                .saturating_sub(earlier.intermediates_elided_bytes),
        }
    }
}

/// Adds `ops` fused nodes and `bytes` elided intermediate bytes to the
/// process-wide tally. Executors call this per fused node, the
/// cached-attention functions per call; zero adds are skipped.
pub fn note_fused(ops: usize, bytes: usize) {
    if ops == 0 {
        return;
    }
    OPS_FUSED.fetch_add(ops as u64, Ordering::Relaxed);
    ELIDED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Reads the current process-wide tally.
pub fn fusion_tally() -> FusionTally {
    FusionTally {
        ops_fused: OPS_FUSED.load(Ordering::Relaxed),
        intermediates_elided_bytes: ELIDED_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_and_since_is_saturating() {
        let t0 = fusion_tally();
        note_fused(2, 1024);
        note_fused(0, 999); // zero ops: skipped entirely
        let t1 = fusion_tally();
        let d = t1.since(&t0);
        assert_eq!(d.ops_fused, 2);
        assert_eq!(d.intermediates_elided_bytes, 1024);
        assert_eq!(t0.since(&t1).ops_fused, 0, "saturates, never wraps");
    }
}
