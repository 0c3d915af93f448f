//! The top-level [`Accelerator`] facade (Fig. 5): quantized weights
//! loaded into the weight memory, inputs streamed through the SA /
//! Softmax / LayerNorm pipeline, outputs plus a cycle-accurate execution
//! report. A checked wrapper over [`PaperBackend`]: it owns the weights,
//! turns bad lengths into errors, lowers the ResBlock once and hands
//! that one program to the backend's interpreter and to the timing walk.

use std::error::Error;
use std::fmt;

use graph::GraphConfig;
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use tensor::Mat;

use crate::area::{estimate_power, AreaModel, PowerEstimate};
use crate::backend::{Backend, PaperBackend};
use crate::config::AccelConfig;
use crate::scheduler::{self, ScheduleReport};

/// Errors of the accelerator facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// A run was requested before weights were loaded.
    WeightsNotLoaded(&'static str),
    /// The input sequence exceeds the array's row count.
    SequenceTooLong {
        /// Requested length.
        s: usize,
        /// Provisioned maximum.
        max: usize,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::WeightsNotLoaded(which) => {
                write!(f, "{which} weights not loaded into the weight memory")
            }
            AccelError::SequenceTooLong { s, max } => {
                write!(f, "sequence length {s} exceeds the array's {max} rows")
            }
        }
    }
}

impl Error for AccelError {}

/// Result of executing one ResBlock on the accelerator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Timing of the run (cycles, µs, utilization, Gantt).
    pub schedule: ScheduleReport,
}

/// The accelerator: configuration + loaded quantized weights.
///
/// A run lowers the configured model's ResBlock graph to its
/// Algorithm-1 command stream and gives that one program both of its
/// meanings: [`PaperBackend`]'s bit-exact interpreter produces the
/// output (exactly what the RTL would) and the timing walk of the same
/// commands produces the report, so the cycle count is that of the
/// program that ran.
#[derive(Debug, Clone)]
pub struct Accelerator {
    backend: PaperBackend,
    mha: Option<QuantMhaResBlock>,
    ffn: Option<QuantFfnResBlock>,
}

impl Accelerator {
    /// Creates an accelerator with empty weight memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AccelConfig) -> Self {
        Self {
            backend: PaperBackend::new(cfg),
            mha: None,
            ffn: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        self.backend.config()
    }

    /// Loads quantized MHA ResBlock weights into the weight memory.
    ///
    /// # Panics
    ///
    /// Panics if the block is not the configured model's shape (the
    /// program a run lowers is the configured model's).
    pub fn load_mha(&mut self, block: QuantMhaResBlock) {
        let model = &self.config().model;
        assert_eq!(
            (block.heads(), block.heads() * block.d_k()),
            (model.h, model.d_model),
            "MHA block (h, d_model) does not match the configured model"
        );
        self.mha = Some(block);
    }

    /// Loads quantized FFN ResBlock weights into the weight memory.
    ///
    /// # Panics
    ///
    /// Panics if the block is not the configured model's shape.
    pub fn load_ffn(&mut self, block: QuantFfnResBlock) {
        let model = &self.config().model;
        let (w1, w2) = block.sublayers();
        assert_eq!(
            (w2.weight_q().cols(), w1.weight_q().cols()),
            (model.d_model, model.d_ff),
            "FFN block (d_model, d_ff) does not match the configured model"
        );
        self.ffn = Some(block);
    }

    /// The loaded MHA block, if any.
    pub fn mha_block(&self) -> Option<&QuantMhaResBlock> {
        self.mha.as_ref()
    }

    /// The loaded FFN block, if any.
    pub fn ffn_block(&self) -> Option<&QuantFfnResBlock> {
        self.ffn.as_ref()
    }

    /// Timing-only schedule of the MHA ResBlock at `s = cfg.s` (no
    /// weights required).
    pub fn schedule_mha(&self) -> ScheduleReport {
        scheduler::schedule_mha(self.config())
    }

    /// Timing-only schedule of the FFN ResBlock at `s = cfg.s`.
    pub fn schedule_ffn(&self) -> ScheduleReport {
        scheduler::schedule_ffn(self.config())
    }

    /// Executes the MHA ResBlock: INT8 inputs in the calibrated input
    /// scales, INT8 output, plus the cycle-accurate report for this
    /// sequence length.
    ///
    /// # Errors
    ///
    /// [`AccelError::WeightsNotLoaded`] without a loaded block;
    /// [`AccelError::SequenceTooLong`] if the input exceeds `cfg.s` rows.
    pub fn run_mha(
        &self,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> Result<(Mat<i8>, RunReport), AccelError> {
        let block = self
            .mha
            .as_ref()
            .ok_or(AccelError::WeightsNotLoaded("MHA"))?;
        self.check_len(xq.rows())?;
        self.check_len(xkv.rows())?;
        let s_kv = xkv.rows();
        let prog = self
            .backend
            .lower_mha(&graph::mha_graph(&self.graph_cfg()), s_kv);
        let out = self.backend.run_mha(&prog, block, xq, xkv, mask);
        let schedule = scheduler::report(self.config(), self.backend.isa(&prog), s_kv);
        Ok((out, RunReport { schedule }))
    }

    /// Executes the FFN ResBlock.
    ///
    /// # Errors
    ///
    /// [`AccelError::WeightsNotLoaded`] without a loaded block;
    /// [`AccelError::SequenceTooLong`] if the input exceeds `cfg.s` rows.
    pub fn run_ffn(&self, x: &Mat<i8>) -> Result<(Mat<i8>, RunReport), AccelError> {
        let block = self
            .ffn
            .as_ref()
            .ok_or(AccelError::WeightsNotLoaded("FFN"))?;
        self.check_len(x.rows())?;
        let prog = self.backend.lower_ffn(&graph::ffn_graph(&self.graph_cfg()));
        let out = self.backend.run_ffn(&prog, block, x);
        let schedule = scheduler::report(self.config(), self.backend.isa(&prog), x.rows());
        Ok((out, RunReport { schedule }))
    }

    fn check_len(&self, s: usize) -> Result<(), AccelError> {
        let max = self.config().s;
        if s == 0 || s > max {
            return Err(AccelError::SequenceTooLong { s, max });
        }
        Ok(())
    }

    fn graph_cfg(&self) -> GraphConfig {
        let model = &self.config().model;
        GraphConfig {
            d_model: model.d_model,
            d_ff: model.d_ff,
            h: model.h,
        }
    }

    /// The calibrated area model for this configuration.
    pub fn area(&self) -> AreaModel {
        AreaModel::new(self.config().clone())
    }

    /// Estimated on-chip power at the configured clock.
    pub fn power(&self) -> PowerEstimate {
        estimate_power(&self.area(), self.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    fn tiny_accel() -> (Accelerator, Vec<Mat<f32>>) {
        let model_cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let mha = MhaResBlock::new(&model_cfg, &mut rng);
        let ffn = FfnResBlock::new(&model_cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, 8, model_cfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let cfg = AccelConfig {
            model: model_cfg,
            s: 16,
            ..AccelConfig::paper_default()
        };
        let mut accel = Accelerator::new(cfg);
        accel.load_mha(qmha);
        accel.load_ffn(qffn);
        (accel, calib)
    }

    #[test]
    fn run_mha_is_bit_identical_to_datapath() {
        let (accel, calib) = tiny_accel();
        let block = accel.mha_block().unwrap();
        let xq = block.quantize_input_q(&calib[0]);
        let (want, _) = block.forward(&xq, &xq, None);
        let (got, report) = accel.run_mha(&xq, &xq, None).unwrap();
        assert_eq!(got, want);
        assert!(report.schedule.cycles.get() > 0);
    }

    #[test]
    fn run_ffn_is_bit_identical_to_datapath() {
        let (accel, calib) = tiny_accel();
        let block = accel.ffn_block().unwrap();
        let x = block.quantize_input(&calib[1]);
        let (want, _) = block.forward(&x);
        let (got, report) = accel.run_ffn(&x).unwrap();
        assert_eq!(got, want);
        assert!(report.schedule.latency_us > 0.0);
    }

    #[test]
    fn missing_weights_error() {
        let accel = Accelerator::new(AccelConfig::paper_default());
        let x = Mat::<i8>::zeros(4, 512);
        match accel.run_ffn(&x) {
            Err(AccelError::WeightsNotLoaded("FFN")) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(accel.run_mha(&x, &x, None).is_err());
    }

    #[test]
    fn oversized_sequence_error() {
        let (accel, _) = tiny_accel();
        let x = Mat::<i8>::zeros(17, accel.config().model.d_model);
        match accel.run_ffn(&x) {
            Err(AccelError::SequenceTooLong { s: 17, max: 16 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "does not match the configured model")]
    fn loading_a_block_of_another_shape_is_rejected() {
        let (tiny, _) = tiny_accel();
        let mut base = Accelerator::new(AccelConfig::paper_default());
        base.load_ffn(tiny.ffn_block().unwrap().clone());
    }

    #[test]
    fn error_messages_are_meaningful() {
        let e = AccelError::SequenceTooLong { s: 100, max: 64 };
        assert!(e.to_string().contains("100"));
        let e = AccelError::WeightsNotLoaded("MHA");
        assert!(e.to_string().contains("MHA"));
    }

    #[test]
    fn paper_schedules_are_available_without_weights() {
        let accel = Accelerator::new(AccelConfig::paper_default());
        assert_eq!(accel.schedule_mha().cycles.get(), 20_998);
        assert_eq!(accel.schedule_ffn().cycles.get(), 35_846);
        let p = accel.power();
        assert!((p.total_w() - 16.7).abs() < 0.1);
    }
}
