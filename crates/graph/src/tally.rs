//! Per-thread fusion tallies.
//!
//! The serving engine's decode path holds no executor: the block
//! `forward`s build a short-lived one per pass, and the cached-attention
//! ResBlock is a plain function. Both therefore add their fused-op
//! counts to this thread's tally, and the engine [`take`]s it around the
//! model call of each step into its own stats. Fused nodes never run in
//! a graph's parallel head groups, so every count lands on the thread
//! that runs the block — the one stepping the engine.

use std::cell::Cell;

/// Fused-op work counted on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionTally {
    /// Fused nodes executed.
    pub ops_fused: u64,
    /// Bytes of intermediate tensors fusion never materialized.
    pub intermediates_elided_bytes: u64,
}

thread_local! {
    static TALLY: Cell<FusionTally> = const {
        Cell::new(FusionTally {
            ops_fused: 0,
            intermediates_elided_bytes: 0,
        })
    };
}

/// Adds `ops` fused nodes and `bytes` elided intermediate bytes to this
/// thread's tally. Executors call this per fused node, the
/// cached-attention functions per call; zero adds are skipped.
pub fn note_fused(ops: usize, bytes: usize) {
    if ops == 0 {
        return;
    }
    TALLY.set(FusionTally {
        ops_fused: TALLY.get().ops_fused + ops as u64,
        intermediates_elided_bytes: TALLY.get().intermediates_elided_bytes + bytes as u64,
    });
}

/// This thread's tally since the last `take`, which it zeroes.
pub fn take() -> FusionTally {
    TALLY.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_this_threads_tally_and_zeroes_it() {
        take();
        note_fused(2, 1024);
        note_fused(0, 999); // zero ops: skipped entirely
        std::thread::spawn(|| note_fused(5, 5)).join().unwrap();
        let t = take();
        assert_eq!(t.ops_fused, 2);
        assert_eq!(t.intermediates_elided_bytes, 1024);
        assert_eq!(take(), FusionTally::default());
    }
}
