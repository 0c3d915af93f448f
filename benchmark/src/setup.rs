//! Builds the canonical model: FP32 init, calibration, quantization and
//! weight prepacking — the work `setup_s` measures.

use std::time::Instant;

use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer::ffn::FfnResBlock;
use transformer::linear::Linear;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

use crate::config::{model_config, CALIB_PAIRS, CALIB_SEED, MODEL_SEED, SRC_LEN};
use crate::hostspeed::Meter;
use crate::stats::median;

/// The quantized model plus the FP32 pieces the probes and the
/// circulant backend still need once the FP32 model is dropped.
pub struct Model {
    /// The INT8 model every serving workload runs.
    pub quant: QuantSeq2Seq,
    /// The FP32 `512 -> 8192` output projection.
    pub outproj: Linear,
    /// Encoder layer 0's FP32 FFN block (the circulant backend needs
    /// FP32 weights to project onto block-circulant form).
    pub enc0_ffn: FfnResBlock,
}

/// Builds the model once.
pub fn build() -> Model {
    let cfg = model_config();
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(MODEL_SEED));
    let calib = TaskGen::new(Task::Reverse, cfg.vocab, SRC_LEN.0, SRC_LEN.1)
        .corpus(CALIB_PAIRS, &mut StdRng::seed_from_u64(CALIB_SEED));
    let quant = QuantSeq2Seq::from_trained(&fp32, &calib, SoftmaxMode::Hardware);
    Model {
        outproj: fp32.output_projection().clone(),
        enc0_ffn: fp32.encoder().layers()[0].blocks().1.clone(),
        quant,
    }
}

/// Builds the model `reps` times (each build dropped before the next,
/// so peak memory is one model) and returns the last with the median
/// build time in seconds. A build's time is scaled by the host's speed
/// just before and just after it, like a window's (see
/// [`crate::hostspeed`]).
pub fn build_timed(reps: usize) -> (Model, f64) {
    let mut meter = Meter::start();
    let mut speed = || {
        meter.sample();
        meter.take()
    };
    let mut times = Vec::with_capacity(reps);
    let mut model = None;
    let mut before = speed();
    for _ in 0..reps.max(1) {
        drop(model.take());
        let t0 = Instant::now();
        model = Some(build());
        let wall_s = t0.elapsed().as_secs_f64();
        let after = speed();
        times.push(wall_s * (before + after) / 2.0);
        before = after;
    }
    (model.expect("at least one build"), median(&times))
}
