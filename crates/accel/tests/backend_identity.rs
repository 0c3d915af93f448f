//! Cross-backend identity and accuracy contracts.
//!
//! Every backend lowers the *same* [`graph::mha_graph`] /
//! [`graph::ffn_graph`] builders; this suite pins what each is allowed
//! to do with them:
//!
//! * the paper backend, reached through the [`Backend`] trait, must be
//!   byte-for-byte the pre-refactor stack (golden command streams and
//!   the MHA 20998 / FFN 35846 cycle pins);
//! * the tiled-SA backend must be **bit-identical** to the quantized
//!   reference — tiling only regroups integer partial sums — and its
//!   command stream runs on the paper's pass executor, fault plan and
//!   ABFT checker included;
//! * the circulant backend is lossy by design and must stay above its
//!   documented SQNR floor on block-circulant weights;
//! * the explorer's Pareto fronts must span more than one backend.

use accel::circulant::{CirculantConfig, CIRC_SQNR_FLOOR_DB};
use accel::config::AccelConfig;
use accel::explorer::{self, ExploreConfig, ExplorerReport};
use accel::isa::{self, Command};
use accel::{
    ArrayEngine, Backend, BackendProgram, CheckMode, CirculantBackend, PaperBackend, TiledBackend,
    TiledConfig,
};
use faults::{FaultPlan, FaultSpace, SiteClass};
use graph::{ffn_graph, mha_graph, GraphConfig};
use quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Mat;
use transformer::config::ModelConfig;
use transformer::ffn::FfnResBlock;
use transformer::mha::MhaResBlock;

fn graph_config(cfg: &AccelConfig) -> GraphConfig {
    GraphConfig {
        d_model: cfg.model.d_model,
        d_ff: cfg.model.d_ff,
        h: cfg.model.h,
    }
}

fn tiny_accel() -> AccelConfig {
    let mut cfg = AccelConfig::paper_default();
    cfg.model = ModelConfig::tiny_for_tests();
    cfg.s = 8;
    cfg
}

/// Quantized tiny blocks plus calibration-derived INT8 inputs.
fn tiny_quantized(seed: u64) -> (QuantMhaResBlock, QuantFfnResBlock, Mat<i8>, Mat<i8>) {
    quantized_blocks(&ModelConfig::tiny_for_tests(), 8, seed)
}

/// Quantized `mcfg` blocks plus calibration-derived `s`-row INT8 inputs.
fn quantized_blocks(
    mcfg: &ModelConfig,
    s: usize,
    seed: u64,
) -> (QuantMhaResBlock, QuantFfnResBlock, Mat<i8>, Mat<i8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mha = MhaResBlock::new(mcfg, &mut rng);
    let ffn = FfnResBlock::new(mcfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, mcfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
    let xq = qmha.quantize_input_q(&calib[0]);
    let xf = qffn.quantize_input(&calib[1]);
    (qmha, qffn, xq, xf)
}

#[test]
fn paper_backend_through_the_trait_keeps_the_golden_pins() {
    let be = PaperBackend::paper_default();
    let cfg = be.config().clone();
    let gcfg = graph_config(&cfg);
    let mha = be.lower_mha(&mha_graph(&gcfg), cfg.s);
    let ffn = be.lower_ffn(&ffn_graph(&gcfg));
    match (&mha, &ffn) {
        (BackendProgram::Isa(m), BackendProgram::Isa(f)) => {
            assert_eq!(*m, isa::mha_program(cfg.model.h, cfg.s));
            assert_eq!(*f, isa::ffn_program(cfg.model.d_model, cfg.model.d_ff));
        }
        _ => panic!("paper backend must lower to ISA programs"),
    }
    assert_eq!(be.cycles(&mha, cfg.s), 20_998, "MHA pin moved");
    assert_eq!(be.cycles(&ffn, cfg.s), 35_846, "FFN pin moved");
}

#[test]
fn tiled_lowering_preserves_the_golden_command_stream() {
    // The tile scheduler sits *in front of* the paper's ISA lowering: it
    // may regroup work into DDR tiles, but the reconstructed command
    // stream must be exactly the golden program.
    let base = AccelConfig::paper_default();
    let gcfg = graph_config(&base);
    let be = TiledBackend::new(TiledConfig {
        base: base.clone(),
        rows: 16,
        cols: 16,
        tile_k: 512,
        ddr_bytes_per_cycle: 8,
        weight_cache_bytes: 0,
    });
    match be.lower_mha(&mha_graph(&gcfg), base.s) {
        BackendProgram::Tiled(p) => {
            assert_eq!(p.commands(), isa::mha_program(base.model.h, base.s))
        }
        _ => panic!("tiled backend must lower to a tile schedule"),
    }
    match be.lower_ffn(&ffn_graph(&gcfg)) {
        BackendProgram::Tiled(p) => {
            assert_eq!(
                p.commands(),
                isa::ffn_program(base.model.d_model, base.model.d_ff)
            )
        }
        _ => panic!("tiled backend must lower to a tile schedule"),
    }
}

#[test]
fn tiled_backend_is_bit_identical_to_the_quantized_reference() {
    let base = tiny_accel();
    let gcfg = graph_config(&base);
    let (qmha, qffn, xq, xf) = tiny_quantized(0x71D);
    // A deliberately awkward grid: tiles never divide the tiny shapes
    // evenly, so every ragged-edge path is on the identity hook.
    let be = TiledBackend::new(TiledConfig {
        base: base.clone(),
        rows: 4,
        cols: 4,
        tile_k: 16,
        ddr_bytes_per_cycle: 8,
        weight_cache_bytes: 0,
    });

    let prog = be.lower_mha(&mha_graph(&gcfg), base.s);
    let got = be.run_mha(&prog, &qmha, &xq, &xq, None);
    let (want, _) = qmha.forward(&xq, &xq, None);
    assert_eq!(got, want, "tiled MHA diverged from the reference");

    let prog = be.lower_ffn(&ffn_graph(&gcfg));
    let got = be.run_ffn(&prog, &qffn, &xf);
    let (want, _) = qffn.forward(&xf);
    assert_eq!(got, want, "tiled FFN diverged from the reference");
}

#[test]
fn seeded_fault_campaign_runs_through_the_tiled_program() {
    // The tiled program's command stream replays on the paper backend's
    // pass executor, so a seeded weight-SRAM / accumulator campaign runs
    // through it under the ABFT + golden checker, and lands exactly as
    // on the paper program: the streams are equal.
    let mini64h = ModelConfig {
        name: "mini64h".into(),
        d_model: 128,
        d_ff: 256,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    };
    for (model, s) in [(ModelConfig::tiny_for_tests(), 8), (mini64h, 16)] {
        let (qmha, qffn, xq, xf) = quantized_blocks(&model, s, 0x7AB);
        let base = AccelConfig {
            model: model.clone(),
            s,
            ..AccelConfig::paper_default()
        };
        let gcfg = graph_config(&base);
        let tiled = TiledBackend::new(TiledConfig {
            base: base.clone(),
            ..TiledBackend::kv260_default().config().clone()
        });
        let paper = PaperBackend::new(base);
        for mha in [true, false] {
            let lower = |be: &dyn Backend| match mha {
                true => be.lower_mha(&mha_graph(&gcfg), s),
                false => be.lower_ffn(&ffn_graph(&gcfg)),
            };
            let (BackendProgram::Tiled(tiled_prog), BackendProgram::Isa(paper_prog)) =
                (lower(&tiled), lower(&paper))
            else {
                panic!("each backend lowers to its own program")
            };
            let run = |program: &[Command], plan: Option<FaultPlan>| {
                let mut engine = ArrayEngine::new(s).with_check_mode(CheckMode::AbftGolden);
                if let Some(plan) = plan {
                    engine = engine.with_fault_plan(plan);
                }
                match mha {
                    true => engine.run_mha(program, &qmha, &xq, &xq, None),
                    false => engine.run_ffn(program, &qffn, &xf),
                }
            };
            let tiled_prog = tiled_prog.commands();
            let clean = run(&tiled_prog, None);
            assert_eq!(clean.stats.faults_detected, 0);
            // Rows below `s` and columns below the narrowest tile width:
            // every drawn site lies inside its pass's tiles.
            let space = FaultSpace {
                index_lo: 0,
                index_hi: clean.stats.gemm_passes as u64,
                rows: s,
                cols: model.d_k().min(64),
                classes: vec![SiteClass::WeightSram, SiteClass::Accumulator],
            };
            for seed in 0..12 {
                let plan = FaultPlan::seeded(seed, 1, &space);
                let got = run(&tiled_prog, Some(plan.clone()));
                let at = format!("{} mha={mha} seed {seed}", model.name);
                assert_eq!(got, run(&paper_prog, Some(plan)), "{at}");
                assert_eq!(got.stats.faults_injected, 1, "{at}: the event lands");
                assert!(got.stats.faults_detected >= 1, "{at}: and is detected");
                assert_eq!(got.stats.faults_escaped, 0, "{at}: by ABFT");
            }
        }
    }
}

#[test]
fn circulant_ffn_stays_above_its_documented_sqnr_floor() {
    let be = CirculantBackend::new(CirculantConfig {
        base: tiny_accel(),
        block: 8,
        lanes: 4,
    });
    let db = explorer::measure_circulant_ffn_sqnr(&be, 0xC1AC);
    assert!(
        db >= CIRC_SQNR_FLOOR_DB,
        "circulant FFN SQNR {db:.1} dB below the {CIRC_SQNR_FLOOR_DB} dB floor"
    );
}

#[test]
fn all_backends_lower_the_same_shared_graphs() {
    // One set of graph builders feeds every backend; none may construct
    // its own dataflow.
    let base = tiny_accel();
    let gcfg = graph_config(&base);
    let mha_g = mha_graph(&gcfg);
    let ffn_g = ffn_graph(&gcfg);

    let paper = PaperBackend::new(base.clone());
    let tiled = TiledBackend::new(TiledConfig {
        base: base.clone(),
        rows: 4,
        cols: 4,
        tile_k: 16,
        ddr_bytes_per_cycle: 8,
        weight_cache_bytes: 0,
    });
    let circ = CirculantBackend::new(CirculantConfig {
        base: base.clone(),
        block: 8,
        lanes: 4,
    });

    let backends: Vec<&dyn Backend> = vec![&paper, &tiled, &circ];
    for be in backends {
        let caps = be.caps();
        if caps.supports_mha {
            assert!(!be.lower_mha(&mha_g, base.s).is_empty(), "{}", caps.name);
        }
        assert!(caps.supports_ffn, "{} must run the FFN", caps.name);
        let prog = be.lower_ffn(&ffn_g);
        assert!(!prog.is_empty(), "{}", caps.name);
        assert!(be.cycles(&prog, base.s) > 0, "{}", caps.name);
    }
}

#[test]
fn explorer_fronts_span_multiple_backends() {
    let r = explorer::explore(&ExploreConfig {
        base: tiny_accel(),
        tiled_grids: vec![4, 8],
        tiled_bandwidths: vec![8],
        tiled_weight_caches: vec![0, 4 << 10],
        circ_blocks: vec![4, 8],
        seed: 0xF00,
    });
    let mha = ExplorerReport::front_backends(&r.mha_front);
    let ffn = ExplorerReport::front_backends(&r.ffn_front);
    assert!(mha.len() >= 2, "MHA front collapsed to {mha:?}");
    assert!(ffn.len() >= 2, "FFN front collapsed to {ffn:?}");
}
