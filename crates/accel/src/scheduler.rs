//! Algorithm 1 — the static computation flow of the accelerator — as
//! [`ScheduleReport`]s over the one timing walk of the lowered command
//! stream ([`crate::isa`]).
//!
//! The schedule itself is data: [`crate::isa::mha_program`] /
//! [`crate::isa::ffn_program`] lower the operator graph to commands and
//! the walker in [`crate::isa`] places every command on the SA, drain,
//! Softmax and LayerNorm units. Every GEMM is a `k`-cycle stream through
//! the `s × 64` array followed by a 64-cycle column-serial drain; the
//! policy decides whether the drain blocks the array
//! ([`crate::config::SchedPolicy::overlap_drain`]) and whether the
//! softmax hides behind the `V·W_Vi` projection
//! ([`crate::config::SchedPolicy::overlap_softmax`], Algorithm 1 line 6).
//! This module only range-checks the lengths and reads the resulting
//! timeline.

use hwsim::cycles::Cycle;
use hwsim::timeline::Timeline;
use serde::Serialize;

use crate::config::AccelConfig;
use crate::isa::{self, Command};
use crate::partition::PANEL_COLS;

/// Outcome of scheduling one ResBlock.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleReport {
    /// End-to-end latency in cycles.
    pub cycles: Cycle,
    /// End-to-end latency in microseconds at the configured clock.
    pub latency_us: f64,
    /// Cycles the systolic array spent streaming or draining.
    pub sa_busy: Cycle,
    /// SA busy fraction over the makespan ("the high hardware
    /// utilization of the SA" the computation flow is designed for).
    pub sa_utilization: f64,
    /// The full event timeline (render with
    /// [`hwsim::timeline::Timeline::gantt`]).
    pub timeline: Timeline,
}

/// Walks a lowered program and reads the report off its timeline.
pub(crate) fn report(cfg: &AccelConfig, program: &[Command], s_kv: usize) -> ScheduleReport {
    let (timeline, sa) = isa::walk(cfg, program, s_kv);
    let cycles = timeline.makespan();
    let sa_busy = timeline.busy(sa);
    ScheduleReport {
        cycles,
        latency_us: cfg.clock.cycles_to_us(cycles),
        sa_busy,
        sa_utilization: sa_busy.get() as f64 / cycles.get().max(1) as f64,
        timeline,
    }
}

/// Schedules the MHA ResBlock (Algorithm 1 lines 1–13) for a self- or
/// cross-attention instance with `s_q` query rows and `s_kv` key/value
/// rows.
///
/// `s_q` is range-checked only: a GEMM's stream length is its reduction
/// depth (`d_model`, `d_k` or `s_kv`), not its row count, so fewer query
/// rows leave rows of the array idle without shortening any pass.
///
/// # Panics
///
/// Panics if either length is zero or exceeds `cfg.s`.
pub fn schedule_mha_cross(cfg: &AccelConfig, s_q: usize, s_kv: usize) -> ScheduleReport {
    cfg.validate();
    assert!(
        s_q > 0 && s_q <= cfg.s,
        "s_q {s_q} out of range (array has {} rows)",
        cfg.s
    );
    assert!(
        s_kv > 0 && s_kv <= cfg.s.max(PANEL_COLS),
        "s_kv {s_kv} out of range"
    );
    report(cfg, &isa::mha_program(cfg.model.h, s_kv), s_kv)
}

/// Schedules the self-attention MHA ResBlock at the configured maximum
/// sequence length (the paper's Table-III setting).
///
/// # Example
///
/// ```
/// use accel::{scheduler::schedule_mha, AccelConfig};
/// let rep = schedule_mha(&AccelConfig::paper_default());
/// assert_eq!(rep.cycles.get(), 20_998); // paper: 21,344
/// ```
pub fn schedule_mha(cfg: &AccelConfig) -> ScheduleReport {
    schedule_mha_cross(cfg, cfg.s, cfg.s)
}

/// Schedules the FFN ResBlock (Algorithm 1 lines 14–22) for `s` rows.
/// Like `s_q` above, `s` is range-checked only (every FFN stream is
/// `d_model` or `d_ff` deep).
///
/// # Panics
///
/// Panics if `s == 0` or `s > cfg.s`.
pub fn schedule_ffn_len(cfg: &AccelConfig, s: usize) -> ScheduleReport {
    cfg.validate();
    assert!(
        s > 0 && s <= cfg.s,
        "s {s} out of range (array has {} rows)",
        cfg.s
    );
    report(cfg, &isa::ffn_program(cfg.model.d_model, cfg.model.d_ff), s)
}

/// Schedules the FFN ResBlock at the configured maximum sequence length.
pub fn schedule_ffn(cfg: &AccelConfig) -> ScheduleReport {
    schedule_ffn_len(cfg, cfg.s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LayerNormMode, SchedPolicy};

    fn paper() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn mha_cycle_count_near_paper() {
        let rep = schedule_mha(&paper());
        // Published: 21,344. Our model: per-head 1,984 ·8 + G 4,608 + LN 518.
        assert_eq!(rep.cycles, Cycle(20_998));
        let err = (rep.cycles.get() as f64 - 21_344.0).abs() / 21_344.0;
        assert!(err < 0.02, "MHA cycles {} vs paper 21,344", rep.cycles);
    }

    #[test]
    fn ffn_cycle_count_same_order_as_paper() {
        let rep = schedule_ffn(&paper());
        assert_eq!(rep.cycles, Cycle(35_846));
        // Published: 42,099 — our model omits some memory-system stalls,
        // staying within 15%.
        let err = (rep.cycles.get() as f64 - 42_099.0).abs() / 42_099.0;
        assert!(err < 0.16, "FFN cycles {} vs paper 42,099", rep.cycles);
    }

    #[test]
    fn ffn_to_mha_ratio_matches_paper_shape() {
        let mha = schedule_mha(&paper());
        let ffn = schedule_ffn(&paper());
        let ratio = ffn.cycles.get() as f64 / mha.cycles.get() as f64;
        // paper: 42,099 / 21,344 = 1.97; ours ~1.71 — FFN clearly ~2x.
        assert!((1.5..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn softmax_overlap_saves_cycles() {
        let mut cfg = paper();
        let with = schedule_mha(&cfg);
        cfg.sched.overlap_softmax = false;
        let without = schedule_mha(&cfg);
        assert!(without.cycles > with.cycles);
        // 8 heads × softmax latency (132) at most
        let saved = without.cycles.get() - with.cycles.get();
        assert!(saved >= 8 * 100, "saved only {saved}");
    }

    #[test]
    fn drain_overlap_saves_cycles() {
        let mut cfg = paper();
        let single = schedule_ffn(&cfg);
        cfg.sched.overlap_drain = true;
        let double = schedule_ffn(&cfg);
        assert!(double.cycles < single.cycles);
        // 40 GEMMs × 64 drain cycles bound the saving
        assert!(single.cycles.get() - double.cycles.get() <= 40 * 64 + 64);
    }

    #[test]
    fn layernorm_modes_ablate_as_fig7() {
        let mut cfg = paper();
        cfg.sched.layernorm = LayerNormMode::Straightforward;
        let sf = schedule_mha(&cfg);
        cfg.sched.layernorm = LayerNormMode::InlineMean;
        let s1 = schedule_mha(&cfg);
        cfg.sched.layernorm = LayerNormMode::InlineMeanAndVariance;
        let s12 = schedule_mha(&cfg);
        assert_eq!(sf.cycles.get() - s1.cycles.get(), 512);
        assert_eq!(s1.cycles.get() - s12.cycles.get(), 512);
    }

    #[test]
    fn naive_policy_is_strictly_worse() {
        let mut cfg = paper();
        let tuned = schedule_mha(&cfg);
        cfg.sched = SchedPolicy::naive();
        let naive = schedule_mha(&cfg);
        assert!(naive.cycles > tuned.cycles);
        assert!(naive.sa_utilization < tuned.sa_utilization + 1e-9);
    }

    #[test]
    fn sa_utilization_is_high_under_paper_policy() {
        let rep = schedule_mha(&paper());
        assert!(
            rep.sa_utilization > 0.95,
            "SA utilization {}",
            rep.sa_utilization
        );
        let rep = schedule_ffn(&paper());
        assert!(rep.sa_utilization > 0.95);
    }

    #[test]
    fn latency_us_uses_200mhz() {
        let rep = schedule_mha(&paper());
        assert!((rep.latency_us - rep.cycles.get() as f64 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn long_sequences_tile_qk() {
        let mut cfg = paper();
        cfg.s = 128;
        let rep128 = schedule_mha(&cfg);
        cfg.s = 64;
        let rep64 = schedule_mha(&cfg);
        assert!(rep128.cycles > rep64.cycles);
        // 128-length QK^T needs 2 tiles per head and softmax over 128
        // columns; both grow the makespan.
        let qk_events = rep128
            .timeline
            .events()
            .iter()
            .filter(|e| e.label.contains("QK^T"))
            .count();
        assert_eq!(qk_events, 16);
    }

    #[test]
    fn cross_attention_lengths_respected() {
        let cfg = paper();
        let rep = schedule_mha_cross(&cfg, 16, 64);
        assert!(rep.cycles < schedule_mha(&cfg).cycles + Cycle(1));
    }

    #[test]
    fn short_sequence_ffn_is_cheaper_only_via_drain() {
        // FFN stream costs don't depend on s (weights stream k = d_model
        // regardless); the schedule is s-independent in this model.
        let cfg = paper();
        let a = schedule_ffn_len(&cfg, 16);
        let b = schedule_ffn_len(&cfg, 64);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_sequence_rejected() {
        let cfg = paper();
        let _ = schedule_mha_cross(&cfg, 65, 64);
    }

    #[test]
    fn critical_path_ends_in_layernorm_and_spans_the_makespan() {
        let rep = schedule_mha(&paper());
        let path = rep.timeline.critical_path();
        assert!(!path.is_empty());
        let last = rep.timeline.event(*path.last().unwrap());
        assert_eq!(last.label, "layernorm");
        assert_eq!(last.end, rep.cycles);
        let first = rep.timeline.event(path[0]);
        assert_eq!(first.start, Cycle::ZERO);
        // contiguity: each hop starts exactly where the previous ended
        for pair in path.windows(2) {
            assert_eq!(
                rep.timeline.event(pair[0]).end,
                rep.timeline.event(pair[1]).start
            );
        }
    }

    #[test]
    fn gantt_contains_all_units() {
        let rep = schedule_mha(&paper());
        let g = rep.timeline.gantt(100);
        for name in ["systolic_array", "softmax", "layernorm"] {
            assert!(g.contains(name), "missing {name} in gantt");
        }
    }
}
