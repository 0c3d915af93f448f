//! The array executor: the one interpreter of Algorithm 1's command
//! stream, running every GEMM command as passes through the `s × 64`
//! systolic array.
//!
//! [`ArrayEngine::run_mha`] / [`ArrayEngine::run_ffn`] step through a
//! program lowered by [`crate::exec`] ([`crate::isa::mha_program`] /
//! [`crate::isa::ffn_program`]) command by command: every projection,
//! `W_G`, `W_1` and `W_2` panel streams through the array in ≤ 64-column
//! passes (Fig. 4) with bias and requantization on the drain path, each
//! score tile is one pass against its zero-padded 64-row `K_i` tile
//! ([`qk_plan`]), the softmax module runs between the score and context
//! passes, and the LayerNorm module at the end. [`crate::PaperBackend`]
//! and [`crate::TiledBackend`] both execute their command streams here.
//! Outputs are bit-identical to [`quantized::QuantMhaResBlock::forward`]
//! / [`quantized::QuantFfnResBlock::forward`] (asserted by tests): *the
//! paper's dataflow, executed on the paper's array, computes the paper's
//! datapath.*
//!
//! A pass runs on the analytic model or the register-true PE grid
//! ([`Fidelity`]), optionally under a fault plan and an ABFT / golden
//! checker ([`CheckMode`]). With neither, a weight panel runs on the
//! sublayer's resident prepacked weights with the drain fused
//! ([`QLinear::forward_cols`]) and its passes are booked in closed form.

use faults::{abft, FaultPlan, Injector};
use hwsim::cycles::Cycle;
use quantized::layernorm::HwLayerNorm;
use quantized::softmax::scaled_masked_softmax;
use quantized::{QLinear, QuantFfnResBlock, QuantMhaResBlock};
use tensor::{gemm, Mat};

use crate::isa::Command;
use crate::partition::{qk_plan, PANEL_COLS};
use crate::systolic::SystolicArray;

/// How the engine models each GEMM pass through the array.
///
/// Both modes produce **bit-identical** [`EngineRun`]s — same output
/// codes, same [`EngineStats`], same cycle counts (asserted by tests) —
/// because the PE grid is exact integer arithmetic and the wavefront
/// timing is a closed form of the operand shape alone. They differ only
/// in simulation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Fidelity {
    /// Cycle-by-cycle register-true PE-grid simulation
    /// ([`SystolicArray::simulate`]): `O(cycles · PEs)` per pass. Use
    /// when validating the dataflow itself.
    RegisterTrue,
    /// Fast analytic model ([`SystolicArray::simulate_analytic`]): the
    /// blocked/parallel `tensor::gemm::matmul_i8` kernel for the product
    /// plus closed-form cycles (`compute = k + m + n − 2`, `drain = n`).
    /// The default — orders of magnitude faster at paper shapes.
    #[default]
    Analytic,
}

/// How the engine checks each GEMM pass for datapath corruption.
///
/// Any mode other than [`CheckMode::Off`] leaves outputs untouched —
/// checkers only *observe* — so a fault-free run is bit-identical in
/// every mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// No checking (the production fast path).
    #[default]
    Off,
    /// ABFT row/column checksums latched at tile load, verified at
    /// drain ([`faults::abft`]). Covers weight-SRAM and accumulator
    /// faults; blind to softmax/LayerNorm datapath faults.
    Abft,
    /// ABFT plus a golden-model cross-check: every pass is recomputed
    /// against the pristine operands and the final block output against
    /// the reference datapath. Catches everything ABFT can't (at golden
    /// simulation cost); faults the golden model sees but ABFT missed
    /// are tallied as *escapes*.
    AbftGolden,
}

tensor::counters! {
    /// Execution statistics of one engine run. [`EngineStats::merge`]
    /// rolls a batch of per-block [`EngineRun`]s (e.g. every ResBlock of
    /// one continuous-batching decode step) up into one figure.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineStats {
        /// Number of systolic-array GEMM passes executed.
        pub gemm_passes: usize => sum,
        /// Total multiply-accumulates performed by the PE grid.
        pub macs: u64 => sum,
        /// Sum of isolated per-pass array cycles (compute + drain). This is
        /// the *unpipelined* cost; the scheduler's makespan is lower because
        /// consecutive passes overlap through the wavefront skew.
        pub isolated_cycles: Cycle => sum,
        /// ABFT tile verifications performed.
        pub abft_checked: usize => sum,
        /// Faults the injector actually landed (in-range plan events).
        pub faults_injected: usize => sum,
        /// Corruptions detected (ABFT mismatch, golden-model divergence, or
        /// program-store validation failure).
        pub faults_detected: usize => sum,
        /// Corruptions the golden model saw but the ABFT checksums missed —
        /// the checker's measured escape rate.
        pub faults_escaped: usize => sum,
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> Self {
        iter.fold(EngineStats::default(), |mut acc, s| {
            acc.merge(&s);
            acc
        })
    }
}

/// Result of executing a ResBlock on the array.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The block's INT8 output codes.
    pub out: Mat<i8>,
    /// Execution statistics.
    pub stats: EngineStats,
}

/// The execution engine: a systolic array plus pass bookkeeping, an
/// optional per-instance fault [`Injector`], and an ABFT/golden checker.
#[derive(Debug, Clone)]
pub struct ArrayEngine {
    sa: SystolicArray,
    stats: EngineStats,
    fidelity: Fidelity,
    injector: Option<Injector>,
    check: CheckMode,
}

impl ArrayEngine {
    /// Creates an engine around an `s_max × 64` array using the default
    /// [`Fidelity::Analytic`] model.
    pub fn new(s_max: usize) -> Self {
        Self::with_fidelity(s_max, Fidelity::default())
    }

    /// Creates an engine around an `s_max × 64` array with an explicit
    /// fidelity mode.
    pub(crate) fn with_fidelity(s_max: usize, fidelity: Fidelity) -> Self {
        Self {
            sa: SystolicArray::paper(s_max),
            stats: EngineStats::default(),
            fidelity,
            injector: None,
            check: CheckMode::default(),
        }
    }

    /// Installs a fault plan on this engine (fresh injector counters).
    /// Builder-style; pair with [`ArrayEngine::with_check_mode`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(Injector::new(plan));
        self
    }

    /// Selects the per-pass checker mode.
    pub fn with_check_mode(mut self, check: CheckMode) -> Self {
        self.check = check;
        self
    }

    /// Creates a register-true engine (cycle-by-cycle PE simulation).
    pub fn register_true(s_max: usize) -> Self {
        Self::with_fidelity(s_max, Fidelity::RegisterTrue)
    }

    /// One GEMM pass through the array, with bookkeeping: latch ABFT
    /// checksums from the pristine operands, corrupt the resident weight
    /// tile and drained accumulators per the fault plan, verify at
    /// drain. With no plan and the checker off, every hook is a skipped
    /// `None`.
    fn pass(&mut self, a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
        // Checksums latch at tile *load*, before any fault can strike.
        let sums = (self.check != CheckMode::Off).then(|| abft::tile_checksums(a, b));
        let pass_idx = self.injector.as_mut().map(Injector::begin_pass);
        // Weight-SRAM faults corrupt the resident tile the array streams.
        let mut resident: Option<Mat<i8>> = None;
        if let (Some(inj), Some(pass)) = (self.injector.as_mut(), pass_idx) {
            if !inj.weight_events(pass).is_empty() {
                let mut tile = b.clone();
                let hit = inj.corrupt_weights(pass, &mut tile);
                if hit > 0 {
                    resident = Some(tile);
                }
                self.stats.faults_injected += hit;
            }
        }
        let b_used = resident.as_ref().unwrap_or(b);
        let sim = match self.fidelity {
            Fidelity::RegisterTrue => self.sa.simulate(a, b_used),
            Fidelity::Analytic => self.sa.simulate_analytic(a, b_used),
        };
        let mut out = sim.out;
        // Accumulator faults strike the drained registers.
        if let (Some(inj), Some(pass)) = (self.injector.as_mut(), pass_idx) {
            self.stats.faults_injected += inj.corrupt_acc(pass, &mut out);
        }
        if let Some(sums) = &sums {
            self.stats.abft_checked += 1;
            // The column check reads the *resident* (possibly corrupted)
            // tile, as a hardware checker sharing the SRAM port would.
            let mut detected = !abft::verify(a, b_used, &out, sums).ok();
            if self.check == CheckMode::AbftGolden {
                let golden = gemm::matmul_i8(a, b).expect("pass shapes");
                if golden != out && !detected {
                    self.stats.faults_escaped += 1;
                    detected = true;
                }
            }
            if detected {
                self.stats.faults_detected += 1;
            }
        }
        self.book(a.rows(), a.cols(), b.cols(), sim.total);
        out
    }

    /// Whether nothing observes this engine's passes: no fault plan, the
    /// checker off and the analytic model — the case where a pass may
    /// skip the operand copies a checker or the PE grid needs.
    fn unobserved(&self) -> bool {
        self.injector.is_none()
            && self.check == CheckMode::Off
            && self.fidelity == Fidelity::Analytic
    }

    /// One pass whose `B` operand arrives transposed (`bt` is `n × k`),
    /// as a score tile's `K_i` rows do: an unobserved pass multiplies
    /// against the rows directly, any other transposes them into the
    /// array's `k × n` operand.
    fn pass_nt(&mut self, a: &Mat<i8>, bt: &Mat<i8>) -> Mat<i32> {
        if !self.unobserved() {
            return self.pass(a, &bt.transposed());
        }
        let (m, k, n) = (a.rows(), a.cols(), bt.rows());
        let (compute, drain) = self.sa.pass_timing(m, k, n);
        self.book(m, k, n, compute + drain);
        gemm::matmul_i8_nt(a, bt).expect("reduction depths match")
    }

    /// Books one `m × k × n` pass of `cycles` isolated cycles.
    fn book(&mut self, m: usize, k: usize, n: usize, cycles: Cycle) {
        self.stats.gemm_passes += 1;
        self.stats.macs += (m * k * n) as u64;
        self.stats.isolated_cycles += cycles;
    }

    /// `a · b` streamed through the array one ≤ 64-column panel of `b`
    /// per pass.
    fn stream(&mut self, a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
        if b.cols() <= PANEL_COLS {
            return self.pass(a, b);
        }
        let outs: Vec<Mat<i32>> = b
            .col_panels(PANEL_COLS)
            .iter()
            .map(|panel| self.pass(a, panel))
            .collect();
        Mat::hconcat(&outs).expect("panels share rows")
    }

    /// Output columns `c0 .. c0 + width` of a linear sublayer — the one
    /// executor of every `Project*`, `OutputPanel`, `FfnHidden` and
    /// `FfnOutput` command: the weight panel streams through the array
    /// and bias and requantization run on the drain path.
    fn panel(&mut self, lin: &QLinear, x: &Mat<i8>, c0: usize, width: usize) -> Mat<i8> {
        if self.unobserved() {
            // The resident prepacked weights with the fused drain, and
            // the same ≤ 64-column passes booked in closed form.
            let (m, k) = x.shape();
            for w0 in (0..width).step_by(PANEL_COLS) {
                let n = PANEL_COLS.min(width - w0);
                let (compute, drain) = self.sa.pass_timing(m, k, n);
                self.book(m, k, n, compute + drain);
            }
            return lin.forward_cols(x, c0, width);
        }
        let w = lin.weight_q();
        let w = w.submatrix(0, c0, w.rows(), width).expect("panel in range");
        let acc = self.stream(x, &w);
        let bias = &lin.bias_q()[c0..c0 + width];
        Mat::from_fn(acc.rows(), width, |r, c| {
            lin.requantize_col(c0 + c, acc[(r, c)] + bias[c])
        })
    }

    /// The LayerNorm module over the residual sums `g`, where the
    /// LayerNorm fault site fires.
    fn layernorm(&mut self, ln: &HwLayerNorm, mut g: Mat<i32>) -> Mat<i8> {
        if let Some(inj) = self.injector.as_mut() {
            self.stats.faults_injected += inj.corrupt_layernorm(&mut g);
        }
        ln.forward(&g)
    }

    /// Closes a run: under [`CheckMode::AbftGolden`] the block output is
    /// compared with the reference datapath on the same inputs — the
    /// only checker that sees softmax/LayerNorm datapath faults, which
    /// carry no checksum.
    fn finish(&mut self, out: Option<Mat<i8>>, reference: impl FnOnce() -> Mat<i8>) -> EngineRun {
        let out = out.expect("program must end with LayerNorm");
        if self.check == CheckMode::AbftGolden && reference() != out {
            self.stats.faults_detected += 1;
        }
        EngineRun {
            out,
            stats: self.stats,
        }
    }

    /// Executes an MHA program ([`crate::isa::mha_program`], Algorithm 1
    /// lines 1–13) against a quantized block, command by command.
    ///
    /// # Panics
    ///
    /// Panics if `xq` or `xkv` has no rows or more rows than the array,
    /// or on a malformed program (commands out of Algorithm-1 order, or
    /// not MHA commands).
    pub fn run_mha(
        &mut self,
        program: &[Command],
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> EngineRun {
        self.stats = EngineStats::default();
        let d_k = block.d_k();
        let h = block.heads();
        let s_kv = xkv.rows();
        let (wq, wk, wv, wo) = block.projections();
        let plan = qk_plan(s_kv);
        let mut q: Vec<Option<Mat<i8>>> = vec![None; h];
        let mut k: Vec<Option<Mat<i8>>> = vec![None; h];
        let mut v: Vec<Option<Mat<i8>>> = vec![None; h];
        let mut scores: Vec<Option<Mat<i32>>> = vec![None; h];
        let mut probs: Vec<Option<Mat<i8>>> = vec![None; h];
        // P is assembled in place as each head's Context lands; every
        // OutputPanel then streams the one shared matrix.
        let mut p = Mat::<i8>::zeros(xq.rows(), h * d_k);
        let mut ctx_done = vec![false; h];
        let mut g = Mat::<i32>::zeros(xq.rows(), h * d_k);
        let mut out = None;

        for cmd in program {
            match *cmd {
                Command::ProjectQ { head } => {
                    q[head] = Some(self.panel(wq, xq, head * d_k, d_k));
                }
                Command::ProjectK { head } => {
                    k[head] = Some(self.panel(wk, xkv, head * d_k, d_k));
                }
                Command::ProjectV { head } => {
                    v[head] = Some(self.panel(wv, xkv, head * d_k, d_k));
                }
                Command::ScoreTile { head, tile } => {
                    assert!(tile < plan.tiles, "tile out of plan");
                    let qi = q[head].as_ref().expect("ProjectQ before ScoreTile");
                    let ki = k[head].as_ref().expect("ProjectK before ScoreTile");
                    // Rows `r0..` of K_i, zero-padded to the plan's rows,
                    // are this tile's B, transposed.
                    let r0 = tile * PANEL_COLS;
                    let n = PANEL_COLS.min(plan.padded_k_rows - r0);
                    let kept = n.min(s_kv - r0);
                    let mut k_tile = ki.submatrix(r0, 0, kept, d_k).expect("tile in plan");
                    if kept < n {
                        k_tile = k_tile.padded(n, d_k);
                    }
                    let acc = self.pass_nt(qi, &k_tile);
                    // Padding columns are zero products, cropped here.
                    let d = scores[head].get_or_insert_with(|| Mat::zeros(qi.rows(), s_kv));
                    for r in 0..acc.rows() {
                        d.row_mut(r)[r0..r0 + kept].copy_from_slice(&acc.row(r)[..kept]);
                    }
                }
                Command::Softmax { head } => {
                    let d = scores[head].as_ref().expect("ScoreTile before Softmax");
                    let mut pr =
                        scaled_masked_softmax(d, block.d_scale(), d_k, mask, block.softmax_mode());
                    if let Some(inj) = self.injector.as_mut() {
                        self.stats.faults_injected += inj.corrupt_softmax(&mut pr);
                    }
                    probs[head] = Some(pr);
                }
                Command::Context { head } => {
                    let pr = probs[head].as_ref().expect("Softmax before Context");
                    let vi = v[head].as_ref().expect("ProjectV before Context");
                    let acc = self.stream(pr, vi);
                    for r in 0..p.rows() {
                        let dst = &mut p.row_mut(r)[head * d_k..(head + 1) * d_k];
                        block.requantize_p_into(acc.row(r), dst);
                    }
                    ctx_done[head] = true;
                }
                Command::OutputPanel { panel } => {
                    assert!(
                        ctx_done.iter().all(|&done| done),
                        "all Contexts before OutputPanel"
                    );
                    let c0 = panel * d_k;
                    let g_cols = self.panel(wo, &p, c0, d_k);
                    for r in 0..g.rows() {
                        for c in 0..d_k {
                            g[(r, c0 + c)] = g_cols[(r, c)] as i32 + xq[(r, c0 + c)] as i32;
                        }
                    }
                }
                Command::LayerNorm => {
                    out = Some(self.layernorm(block.layernorm(), std::mem::take(&mut g)));
                }
                other => panic!("command {other:?} is not part of an MHA program"),
            }
        }
        self.finish(out, || block.forward(xq, xkv, mask).0)
    }

    /// Executes an FFN program ([`crate::isa::ffn_program`], Algorithm 1
    /// lines 14–22) against a quantized block, command by command.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no rows or more rows than the array, or on a
    /// malformed program (one with more panels than the block's shape).
    pub fn run_ffn(
        &mut self,
        program: &[Command],
        block: &QuantFfnResBlock,
        x: &Mat<i8>,
    ) -> EngineRun {
        self.stats = EngineStats::default();
        let (w1, w2) = block.sublayers();
        let d_ff = w1.weight_q().cols();
        let d_model = w2.weight_q().cols();
        let mut hidden = Mat::<i8>::zeros(x.rows(), d_ff);
        let mut g = Mat::<i32>::zeros(x.rows(), d_model);
        let mut out = None;
        for cmd in program {
            match *cmd {
                Command::FfnHidden { panel } => {
                    let c0 = panel * PANEL_COLS;
                    assert!(c0 < d_ff, "FFN program does not match the block's shape");
                    let width = PANEL_COLS.min(d_ff - c0);
                    let cols = self.panel(w1, x, c0, width);
                    for r in 0..hidden.rows() {
                        for c in 0..width {
                            hidden[(r, c0 + c)] = cols[(r, c)].max(0); // fused ReLU
                        }
                    }
                }
                Command::FfnOutput { panel } => {
                    let c0 = panel * PANEL_COLS;
                    assert!(c0 < d_model, "FFN program does not match the block's shape");
                    let width = PANEL_COLS.min(d_model - c0);
                    let cols = self.panel(w2, &hidden, c0, width);
                    for r in 0..g.rows() {
                        for c in 0..width {
                            g[(r, c0 + c)] = cols[(r, c)] as i32 + x[(r, c0 + c)] as i32;
                        }
                    }
                }
                Command::LayerNorm => {
                    out = Some(self.layernorm(block.layernorm(), std::mem::take(&mut g)));
                }
                other => panic!("command {other:?} is not part of an FFN program"),
            }
        }
        self.finish(out, || block.forward(x).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ffn_program, mha_program};
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    fn setup(s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, Vec<Mat<i8>>) {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(77);
        let mha = MhaResBlock::new(&cfg, &mut rng);
        let ffn = FfnResBlock::new(&cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let codes = calib.iter().map(|x| qmha.quantize_input_q(x)).collect();
        (qmha, qffn, codes)
    }

    /// Runs the MHA program at `xkv`'s length.
    fn mha(
        engine: &mut ArrayEngine,
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> EngineRun {
        let program = mha_program(block.heads(), xkv.rows());
        engine.run_mha(&program, block, xq, xkv, mask)
    }

    /// Runs the FFN program of the block's shape.
    fn ffn(engine: &mut ArrayEngine, block: &QuantFfnResBlock, x: &Mat<i8>) -> EngineRun {
        let (w1, w2) = block.sublayers();
        let program = ffn_program(w2.weight_q().cols(), w1.weight_q().cols());
        engine.run_ffn(&program, block, x)
    }

    #[test]
    fn mha_execution_is_bit_identical_to_datapath() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        for xq in &codes {
            let (want, _) = qmha.forward(xq, xq, None);
            let run = mha(&mut engine, &qmha, xq, xq, None);
            assert_eq!(run.out, want);
        }
    }

    #[test]
    fn masked_mha_execution_is_bit_identical() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let mask = tensor::ops::causal_mask(8);
        let (want, _) = qmha.forward(&codes[0], &codes[0], Some(&mask));
        let run = mha(&mut engine, &qmha, &codes[0], &codes[0], Some(&mask));
        assert_eq!(run.out, want);
    }

    #[test]
    fn ffn_execution_is_bit_identical_to_datapath() {
        let cfg = ModelConfig::tiny_for_tests();
        let (_, qffn, _) = setup(8);
        let mut rng = StdRng::seed_from_u64(78);
        let mut engine = ArrayEngine::new(8);
        for _ in 0..3 {
            let x = tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0);
            let xq = qffn.quantize_input(&x);
            let (want, _) = qffn.forward(&xq);
            let run = ffn(&mut engine, &qffn, &xq);
            assert_eq!(run.out, want);
        }
    }

    #[test]
    fn mha_pass_count_matches_algorithm1() {
        // tiny config: h = 4 heads, d_k = 8 -> per head one d_k-wide
        // panel each of W_Q, W_K, W_V and W_G, one QK^T tile and one PV
        // pass. passes = h * (3 + 1 + 1 + 1) = 24.
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let run = mha(&mut engine, &qmha, &codes[0], &codes[0], None);
        assert_eq!(run.stats.gemm_passes, 4 * 6);
        assert!(run.stats.macs > 0);
        assert!(run.stats.isolated_cycles.get() > 0);
    }

    #[test]
    fn ffn_pass_count_matches_algorithm1() {
        // d_ff = 64 -> 1 W1 panel; d_model = 32 -> 1 W2 panel.
        let (_, qffn, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let run = ffn(&mut engine, &qffn, &codes[0]);
        assert_eq!(run.stats.gemm_passes, 2);
    }

    #[test]
    fn cross_attention_execution_matches() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let xq = codes[0].submatrix(0, 0, 3, codes[0].cols()).unwrap();
        let (want, _) = qmha.forward(&xq, &codes[1], None);
        let run = mha(&mut engine, &qmha, &xq, &codes[1], None);
        assert_eq!(run.out, want);
    }

    #[test]
    fn fidelity_modes_are_bit_identical_for_mha() {
        // Analytic and register-true engines must agree on outputs AND
        // stats (pass counts, MACs, isolated cycles) across randomized
        // inputs and sequence lengths, masked and unmasked.
        for s in [3usize, 5, 8] {
            let (qmha, _, codes) = setup(s);
            let mut fast = ArrayEngine::new(8);
            let mut slow = ArrayEngine::register_true(8);
            assert_eq!(fast.fidelity, Fidelity::Analytic);
            assert_eq!(slow.fidelity, Fidelity::RegisterTrue);
            let mask = tensor::ops::causal_mask(s);
            for xq in &codes {
                let x = xq.submatrix(0, 0, s, xq.cols()).unwrap();
                for mask in [None, Some(&mask)] {
                    let a = mha(&mut fast, &qmha, &x, &x, mask);
                    let b = mha(&mut slow, &qmha, &x, &x, mask);
                    assert_eq!(a.out, b.out, "s={s}");
                    assert_eq!(a.stats, b.stats, "s={s}");
                }
            }
        }
    }

    #[test]
    fn fidelity_modes_are_bit_identical_for_ffn() {
        for s in [2usize, 7, 8] {
            let (_, qffn, codes) = setup(s);
            let mut fast = ArrayEngine::with_fidelity(8, Fidelity::Analytic);
            let mut slow = ArrayEngine::with_fidelity(8, Fidelity::RegisterTrue);
            for xq in &codes {
                let x = xq.submatrix(0, 0, s, xq.cols()).unwrap();
                let a = ffn(&mut fast, &qffn, &x);
                let b = ffn(&mut slow, &qffn, &x);
                assert_eq!(a.out, b.out, "s={s}");
                assert_eq!(a.stats, b.stats, "s={s}");
            }
        }
    }

    #[test]
    fn stats_merge_and_sum_aggregate_batches() {
        let (qmha, qffn, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let a = mha(&mut engine, &qmha, &codes[0], &codes[0], None).stats;
        let b = ffn(&mut engine, &qffn, &codes[1]).stats;
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.gemm_passes, a.gemm_passes + b.gemm_passes);
        assert_eq!(merged.macs, a.macs + b.macs);
        assert_eq!(
            merged.isolated_cycles,
            a.isolated_cycles + b.isolated_cycles
        );
        let summed: EngineStats = [a, b].into_iter().sum();
        assert_eq!(summed, merged);
    }

    #[test]
    fn empty_plan_and_checker_change_no_output_bits() {
        // Hooks armed (empty plan) + ABFT checker on must be
        // bit-identical to the bare engine, with zero detections.
        let (qmha, qffn, codes) = setup(8);
        let mut plain = ArrayEngine::new(8);
        let mut checked = ArrayEngine::new(8)
            .with_fault_plan(faults::FaultPlan::empty())
            .with_check_mode(CheckMode::AbftGolden);
        for xq in &codes {
            let a = mha(&mut plain, &qmha, xq, xq, None);
            let b = mha(&mut checked, &qmha, xq, xq, None);
            assert_eq!(a.out, b.out);
            assert_eq!(a.stats.gemm_passes, b.stats.gemm_passes);
            assert_eq!(a.stats.macs, b.stats.macs);
            assert_eq!(a.stats.isolated_cycles, b.stats.isolated_cycles);
            assert_eq!(b.stats.abft_checked, b.stats.gemm_passes);
            assert_eq!(b.stats.faults_injected, 0);
            assert_eq!(b.stats.faults_detected, 0);
            assert_eq!(b.stats.faults_escaped, 0);
            let f = ffn(&mut plain, &qffn, xq);
            let g = ffn(&mut checked, &qffn, xq);
            assert_eq!(f.out, g.out);
            assert_eq!(g.stats.faults_detected, 0);
        }
    }

    #[test]
    fn weight_sram_flip_is_detected_by_abft() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let (qmha, _, codes) = setup(8);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::WeightSram {
                pass: 0,
                row: 3,
                col: 5,
            },
            kind: FaultKind::BitFlip { bit: 6 },
        }]);
        let mut pristine = ArrayEngine::new(8);
        let want = mha(&mut pristine, &qmha, &codes[0], &codes[0], None);
        let mut faulty = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::Abft);
        let run = mha(&mut faulty, &qmha, &codes[0], &codes[0], None);
        assert_eq!(run.stats.faults_injected, 1);
        assert!(run.stats.faults_detected >= 1, "ABFT must flag the tile");
        assert_eq!(run.stats.faults_escaped, 0);
        assert_ne!(run.out, want.out, "the flip corrupts the block output");
        // The next run re-uses the engine: pass indices have advanced
        // past the plan, so the fault never refires (one-shot SEU).
        let clean = mha(&mut faulty, &qmha, &codes[0], &codes[0], None);
        assert_eq!(clean.out, want.out);
        assert_eq!(clean.stats.faults_detected, 0);
    }

    #[test]
    fn accumulator_flip_is_detected_by_abft() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let (_, qffn, codes) = setup(8);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::Accumulator {
                pass: 1,
                row: 2,
                col: 7,
            },
            kind: FaultKind::BitFlip { bit: 20 },
        }]);
        let mut pristine = ArrayEngine::new(8);
        let want = ffn(&mut pristine, &qffn, &codes[0]);
        let mut faulty = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::Abft);
        let run = ffn(&mut faulty, &qffn, &codes[0]);
        assert_eq!(run.stats.faults_injected, 1);
        assert!(run.stats.faults_detected >= 1);
        assert_ne!(run.out, want.out);
    }

    #[test]
    fn softmax_fault_escapes_abft_but_golden_model_catches_it() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let (qmha, _, codes) = setup(8);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::SoftmaxValue {
                call: 0,
                row: 1,
                col: 2,
            },
            kind: FaultKind::BitFlip { bit: 6 },
        }]);
        let mut pristine = ArrayEngine::new(8);
        let want = mha(&mut pristine, &qmha, &codes[0], &codes[0], None);
        // ABFT alone: the corrupted probabilities *are* the stream the
        // checksums latch from, so the context pass verifies clean.
        let mut abft_only = ArrayEngine::new(8)
            .with_fault_plan(plan.clone())
            .with_check_mode(CheckMode::Abft);
        let run = mha(&mut abft_only, &qmha, &codes[0], &codes[0], None);
        assert_eq!(run.stats.faults_injected, 1);
        assert_eq!(
            run.stats.faults_detected, 0,
            "softmax faults are ABFT-blind"
        );
        assert_ne!(run.out, want.out);
        // Golden cross-check compares the block output to the reference
        // datapath and sees it.
        let mut golden = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::AbftGolden);
        let run = mha(&mut golden, &qmha, &codes[0], &codes[0], None);
        assert!(run.stats.faults_detected >= 1);
    }

    #[test]
    fn layernorm_fault_is_caught_by_golden_model() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let (_, qffn, codes) = setup(8);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::LayerNormValue {
                call: 0,
                row: 0,
                col: 3,
            },
            kind: FaultKind::BitFlip { bit: 13 },
        }]);
        let mut engine = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::AbftGolden);
        let run = ffn(&mut engine, &qffn, &codes[0]);
        assert_eq!(run.stats.faults_injected, 1);
        assert!(run.stats.faults_detected >= 1);
    }

    #[test]
    fn fidelity_modes_agree_under_faults() {
        // Pass numbering is identical in both fidelities, so the same
        // plan corrupts the same bits and both engines stay bit-equal.
        use faults::{FaultPlan, FaultSpace, SiteClass};
        let (qmha, _, codes) = setup(8);
        let space = FaultSpace {
            index_lo: 0,
            index_hi: 24,
            rows: 8,
            cols: 8,
            classes: vec![
                SiteClass::WeightSram,
                SiteClass::Accumulator,
                SiteClass::SoftmaxValue,
            ],
        };
        let plan = FaultPlan::seeded(0xBADC0DE, 4, &space);
        let mut fast = ArrayEngine::with_fidelity(8, Fidelity::Analytic)
            .with_fault_plan(plan.clone())
            .with_check_mode(CheckMode::Abft);
        let mut slow = ArrayEngine::with_fidelity(8, Fidelity::RegisterTrue)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::Abft);
        let a = mha(&mut fast, &qmha, &codes[0], &codes[0], None);
        let b = mha(&mut slow, &qmha, &codes[0], &codes[0], None);
        assert_eq!(a.out, b.out);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn stats_reset_between_runs() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let a = mha(&mut engine, &qmha, &codes[0], &codes[0], None);
        let b = mha(&mut engine, &qmha, &codes[1], &codes[1], None);
        assert_eq!(a.stats.gemm_passes, b.stats.gemm_passes);
        assert_eq!(a.stats.macs, b.stats.macs);
    }
}
