//! Golden ISA programs and paper cycle counts.
//!
//! `mha_program` / `ffn_program` are now *lowered from the operator
//! graph* (`accel::exec::lower_mha` / `lower_ffn`); this test freezes
//! the pre-refactor hand-written Algorithm-1 loops and asserts the
//! lowering reproduces them command for command, and that the timing
//! interpretation of the lowered programs still lands exactly on the
//! reproduction's paper-configuration cycle counts (MHA 20 998, FFN
//! 35 846; the paper reports 21 344 / 36 329 with DRAM refresh
//! overhead the model excludes).

use transformer_accel::accel::exec::{lower_ffn, lower_mha};
use transformer_accel::accel::isa::{ffn_program, mha_program, schedule_program, Command};
use transformer_accel::accel::partition::{qk_plan, PANEL_COLS};
use transformer_accel::accel::scheduler::{
    schedule_ffn, schedule_ffn_len, schedule_mha, schedule_mha_cross, ScheduleReport,
};
use transformer_accel::accel::{AccelConfig, LayerNormMode, SchedPolicy};
use transformer_accel::graph::{ffn_graph, mha_graph, GraphConfig};
use transformer_accel::hwsim::cycles::Cycle;
use transformer_accel::transformer::config::ModelConfig;

/// The hand-written Algorithm-1 MHA command loop, as it existed before
/// programs were derived from the graph.
fn handwritten_mha(h: usize, s_kv: usize) -> Vec<Command> {
    let mut prog = Vec::new();
    let tiles = qk_plan(s_kv).tiles;
    for head in 0..h {
        prog.push(Command::ProjectQ { head });
        prog.push(Command::ProjectK { head });
        for tile in 0..tiles {
            prog.push(Command::ScoreTile { head, tile });
        }
        prog.push(Command::Softmax { head });
        prog.push(Command::ProjectV { head });
        prog.push(Command::Context { head });
    }
    for panel in 0..h {
        prog.push(Command::OutputPanel { panel });
    }
    prog.push(Command::LayerNorm);
    prog
}

/// The hand-written Algorithm-1 FFN command loop.
fn handwritten_ffn(d_model: usize, d_ff: usize) -> Vec<Command> {
    let mut prog = Vec::new();
    for panel in 0..d_ff.div_ceil(PANEL_COLS) {
        prog.push(Command::FfnHidden { panel });
    }
    for panel in 0..d_model.div_ceil(PANEL_COLS) {
        prog.push(Command::FfnOutput { panel });
    }
    prog.push(Command::LayerNorm);
    prog
}

#[test]
fn lowered_programs_match_handwritten_loops() {
    let cfg = AccelConfig::paper_default();
    let (h, s) = (cfg.model.h, cfg.s);
    assert_eq!(mha_program(h, s), handwritten_mha(h, s));
    assert_eq!(
        ffn_program(cfg.model.d_model, cfg.model.d_ff),
        handwritten_ffn(cfg.model.d_model, cfg.model.d_ff)
    );
    // and off the paper point, including a non-multiple-of-64 width
    for (h, s) in [(2, 8), (4, 200)] {
        assert_eq!(mha_program(h, s), handwritten_mha(h, s));
    }
    for (d_model, d_ff) in [(64, 256), (100, 300)] {
        assert_eq!(ffn_program(d_model, d_ff), handwritten_ffn(d_model, d_ff));
    }
}

#[test]
fn graph_lowering_is_the_program_source() {
    let cfg = AccelConfig::paper_default();
    let g = mha_graph(&GraphConfig {
        d_model: cfg.model.d_model,
        d_ff: 0,
        h: cfg.model.h,
    });
    assert_eq!(lower_mha(&g, cfg.s), mha_program(cfg.model.h, cfg.s));
    let g = ffn_graph(&GraphConfig {
        d_model: cfg.model.d_model,
        d_ff: cfg.model.d_ff,
        h: 1,
    });
    assert_eq!(
        lower_ffn(&g),
        ffn_program(cfg.model.d_model, cfg.model.d_ff)
    );
}

#[test]
fn lowered_programs_hit_paper_cycle_counts() {
    let cfg = AccelConfig::paper_default();
    let mha = mha_program(cfg.model.h, cfg.s);
    assert_eq!(schedule_program(&cfg, &mha, cfg.s), Cycle(20_998));
    let ffn = ffn_program(cfg.model.d_model, cfg.model.d_ff);
    assert_eq!(schedule_program(&cfg, &ffn, cfg.s), Cycle(35_846));
}

fn golden_model(name: &str) -> ModelConfig {
    match name {
        "base" => ModelConfig::transformer_base(),
        "big" => ModelConfig::transformer_big(),
        "mini" => ModelConfig {
            name: "mini64h".into(),
            d_model: 128,
            d_ff: 512,
            h: 2,
            n_layers: 1,
            vocab: 16,
            max_len: 16,
        },
        other => panic!("unknown golden model {other}"),
    }
}

fn golden_policy(name: &str) -> SchedPolicy {
    match name {
        "paper" => SchedPolicy::paper(),
        "naive" => SchedPolicy::naive(),
        "aggressive" => SchedPolicy::aggressive(),
        "ln-plain" => SchedPolicy {
            layernorm: LayerNormMode::Straightforward,
            ..SchedPolicy::paper()
        },
        "ln-mean" => SchedPolicy {
            layernorm: LayerNormMode::InlineMean,
            ..SchedPolicy::paper()
        },
        other => panic!("unknown golden policy {other}"),
    }
}

/// `[cycles, sa_busy, events]` of a report.
fn summary(rep: &ScheduleReport) -> [u64; 3] {
    [
        rep.cycles.get(),
        rep.sa_busy.get(),
        rep.timeline.events().len() as u64,
    ]
}

/// FNV-1a over every event's `(unit, label, start, end)`, in issue order.
fn timeline_digest(rep: &ScheduleReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in rep.timeline.events() {
        let line = format!(
            "{}|{}|{}|{}\n",
            rep.timeline.unit_name(e.unit),
            e.label,
            e.start.get(),
            e.end.get()
        );
        for b in line.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

type GoldenRow = (&'static str, &'static str, usize, usize, [u64; 3], [u64; 3]);

/// `(model, policy, s_q, s_kv, MHA [cycles, sa_busy, events], FFN
/// [cycles, sa_busy, events])`, generated by the four hand-written
/// closed-form schedulers at the last commit that had them. The
/// schedule is now one walk over the lowered program, so comparing the
/// scheduler with `schedule_program` proves nothing; these numbers do.
#[rustfmt::skip]
const GOLDEN_SCHEDULES: &[GoldenRow] = &[
    ("base", "paper", 8, 8, [20550, 20032, 57], [35846, 35328, 41]),
    ("base", "paper", 64, 64, [20998, 20480, 57], [35846, 35328, 41]),
    ("base", "paper", 128, 128, [22534, 22016, 65], [35846, 35328, 41]),
    ("base", "paper", 16, 64, [20998, 20480, 57], [35846, 35328, 41]),
    ("base", "naive", 8, 8, [21734, 20032, 57], [36870, 35328, 41]),
    ("base", "naive", 64, 64, [23078, 20480, 57], [36870, 35328, 41]),
    ("base", "naive", 128, 128, [25638, 22016, 65], [36870, 35328, 41]),
    ("base", "aggressive", 8, 8, [18630, 16960, 105], [33414, 32768, 81]),
    ("base", "aggressive", 64, 64, [19078, 17408, 105], [33414, 32768, 81]),
    ("base", "aggressive", 128, 128, [20102, 18432, 121], [33414, 32768, 81]),
    ("base", "ln-plain", 8, 8, [21574, 20032, 57], [36870, 35328, 41]),
    ("base", "ln-plain", 64, 64, [22022, 20480, 57], [36870, 35328, 41]),
    ("base", "ln-plain", 128, 128, [23558, 22016, 65], [36870, 35328, 41]),
    ("base", "ln-mean", 8, 8, [21062, 20032, 57], [36358, 35328, 41]),
    ("base", "ln-mean", 64, 64, [21510, 20480, 57], [36358, 35328, 41]),
    ("base", "ln-mean", 128, 128, [23046, 22016, 65], [36358, 35328, 41]),
    ("big", "paper", 8, 8, [73862, 72832, 113], [137222, 136192, 81]),
    ("big", "paper", 64, 64, [74758, 73728, 113], [137222, 136192, 81]),
    ("big", "paper", 128, 128, [77830, 76800, 129], [137222, 136192, 81]),
    ("big", "naive", 8, 8, [76230, 72832, 113], [139270, 136192, 81]),
    ("big", "naive", 64, 64, [78918, 73728, 113], [139270, 136192, 81]),
    ("big", "naive", 128, 128, [84038, 76800, 129], [139270, 136192, 81]),
    ("big", "aggressive", 8, 8, [69894, 66688, 209], [132230, 131072, 161]),
    ("big", "aggressive", 64, 64, [70790, 67584, 209], [132230, 131072, 161]),
    ("big", "aggressive", 128, 128, [72838, 69632, 241], [132230, 131072, 161]),
    ("big", "ln-plain", 8, 8, [75910, 72832, 113], [139270, 136192, 81]),
    ("big", "ln-plain", 64, 64, [76806, 73728, 113], [139270, 136192, 81]),
    ("big", "ln-plain", 128, 128, [79878, 76800, 129], [139270, 136192, 81]),
    ("big", "ln-mean", 8, 8, [74886, 72832, 113], [138246, 136192, 81]),
    ("big", "ln-mean", 64, 64, [75782, 73728, 113], [138246, 136192, 81]),
    ("big", "ln-mean", 128, 128, [78854, 76800, 129], [138246, 136192, 81]),
    ("mini", "paper", 8, 8, [2070, 1936, 15], [2822, 2688, 11]),
    ("mini", "paper", 64, 64, [2182, 2048, 15], [2822, 2688, 11]),
    ("mini", "paper", 128, 128, [2702, 2432, 17], [2822, 2688, 11]),
    ("mini", "naive", 8, 8, [2366, 1936, 15], [3078, 2688, 11]),
    ("mini", "naive", 64, 64, [2702, 2048, 15], [3078, 2688, 11]),
    ("mini", "naive", 128, 128, [3342, 2432, 17], [3078, 2688, 11]),
    ("mini", "aggressive", 8, 8, [1686, 1168, 27], [2310, 2048, 21]),
    ("mini", "aggressive", 64, 64, [1806, 1280, 27], [2310, 2048, 21]),
    ("mini", "aggressive", 128, 128, [2318, 1536, 31], [2310, 2048, 21]),
    ("mini", "ln-plain", 8, 8, [2326, 1936, 15], [3078, 2688, 11]),
    ("mini", "ln-plain", 64, 64, [2438, 2048, 15], [3078, 2688, 11]),
    ("mini", "ln-plain", 128, 128, [2958, 2432, 17], [3078, 2688, 11]),
    ("mini", "ln-mean", 8, 8, [2198, 1936, 15], [2950, 2688, 11]),
    ("mini", "ln-mean", 64, 64, [2310, 2048, 15], [2950, 2688, 11]),
    ("mini", "ln-mean", 128, 128, [2830, 2432, 17], [2950, 2688, 11]),
];

#[test]
fn schedules_equal_the_numbers_pinned_before_the_single_walk() {
    for &(model, pol, s_q, s_kv, mha, ffn) in GOLDEN_SCHEDULES {
        let cfg = AccelConfig {
            model: golden_model(model),
            s: s_q.max(s_kv),
            sched: golden_policy(pol),
            ..AccelConfig::paper_default()
        };
        let at = format!("{model} {pol} s_q={s_q} s_kv={s_kv}");
        let rep = schedule_mha_cross(&cfg, s_q, s_kv);
        assert_eq!(summary(&rep), mha, "MHA {at}");
        let program = mha_program(cfg.model.h, s_kv);
        assert_eq!(schedule_program(&cfg, &program, s_kv), rep.cycles, "{at}");
        let rep = schedule_ffn_len(&cfg, s_q);
        assert_eq!(summary(&rep), ffn, "FFN {at}");
        let program = ffn_program(cfg.model.d_model, cfg.model.d_ff);
        assert_eq!(schedule_program(&cfg, &program, s_q), rep.cycles, "{at}");
    }
}

#[test]
fn paper_point_timelines_equal_the_pinned_digests() {
    let cfg = AccelConfig::paper_default();
    assert_eq!(timeline_digest(&schedule_mha(&cfg)), 0x554f_3441_df5d_e0f0);
    assert_eq!(timeline_digest(&schedule_ffn(&cfg)), 0x4660_676e_cdd9_f1ef);
}
