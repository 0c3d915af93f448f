//! Array-level execution engine: Algorithm 1 executed *literally* on
//! the register-true systolic array.
//!
//! Where [`crate::top::Accelerator`] delegates numerics to the
//! `quantized` crate wholesale, this engine drives the hardware the way
//! the RTL does — GEMM pass by GEMM pass, one 64-column weight panel at
//! a time (Fig. 4), each pass clocked through the
//! [`crate::systolic::SystolicArray`] PE grid, with bias/requantization
//! on the drain path, the softmax module between the score and context
//! passes, and the LayerNorm module at the end. Its outputs are
//! bit-identical to [`quantized::QuantMhaResBlock::forward`] /
//! [`quantized::QuantFfnResBlock::forward`] (asserted by tests), which
//! closes the loop: *the paper's dataflow, executed on the paper's
//! array, computes the paper's datapath.*

use faults::{abft, FaultPlan, Injector};
use hwsim::cycles::Cycle;
use quantized::softmax::scaled_masked_softmax;
use quantized::{QLinear, QuantFfnResBlock, QuantMhaResBlock};
use tensor::Mat;

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
pub enum Fidelity {
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
        /// MAC capacity of the PE grids these passes occupied: Σ over passes
        /// of `pass_cycles × rows × cols` *of the grid that ran the pass*.
        /// Recorded by [`ArrayEngine`]; zero for hand-modeled stats. This is
        /// what makes [`EngineStats::array_utilization`] correct for
        /// rectangular (non-`64×64`) arrays and for stats merged across
        /// engines of different geometry, where no single `pe_count` exists.
        pub pe_cycles: u64 => sum,
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

impl EngineStats {
    /// Fraction of the array's multiply-accumulate capacity these passes
    /// actually used. When the engine recorded per-pass capacity
    /// ([`EngineStats::pe_cycles`] > 0) this is `macs / pe_cycles`, which
    /// is exact for rectangular grids and for stats merged across arrays
    /// of different geometry; `pe_count` is then ignored. For
    /// hand-modeled stats with no recorded capacity it falls back to the
    /// historical `macs / (isolated_cycles · pe_count)`, which is only
    /// meaningful if every pass ran on the same `pe_count`-PE grid.
    /// Zero when no cycles were recorded.
    pub fn array_utilization(&self, pe_count: u64) -> f64 {
        if self.pe_cycles > 0 {
            return self.macs as f64 / self.pe_cycles as f64;
        }
        let cycles = self.isolated_cycles.get();
        if cycles == 0 || pe_count == 0 {
            return 0.0;
        }
        self.macs as f64 / (cycles as f64 * pe_count as f64)
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
#[derive(Debug, Clone)]
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
    pub fn with_fidelity(s_max: usize, fidelity: Fidelity) -> Self {
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

    /// Installs or removes the fault plan in place.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.injector = plan.map(Injector::new);
    }

    /// Sets the per-pass checker mode in place.
    pub fn set_check_mode(&mut self, check: CheckMode) {
        self.check = check;
    }

    /// The active checker mode.
    pub fn check_mode(&self) -> CheckMode {
        self.check
    }

    /// Faults the injector has landed so far (across runs).
    pub fn injected_faults(&self) -> u64 {
        self.injector.as_ref().map_or(0, Injector::injected)
    }

    /// Creates a register-true engine (cycle-by-cycle PE simulation).
    pub fn register_true(s_max: usize) -> Self {
        Self::with_fidelity(s_max, Fidelity::RegisterTrue)
    }

    /// The underlying array geometry.
    pub fn array(&self) -> &SystolicArray {
        &self.sa
    }

    /// The engine's fidelity mode.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// One GEMM pass through the PE grid, with bookkeeping. The fault
    /// hooks are zero-cost when off: a fault-free engine takes the
    /// first branch, which is byte-for-byte the pre-instrumentation
    /// path.
    fn pass(&mut self, a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
        if self.injector.is_none() && self.check == CheckMode::Off {
            let sim = match self.fidelity {
                Fidelity::RegisterTrue => self.sa.simulate(a, b),
                Fidelity::Analytic => self.sa.simulate_analytic(a, b),
            };
            self.stats.gemm_passes += 1;
            self.stats.macs += (a.rows() * a.cols() * b.cols()) as u64;
            self.stats.isolated_cycles += sim.total;
            self.stats.pe_cycles += sim.total.get() * self.sa.pe_count() as u64;
            return sim.out;
        }
        self.checked_pass(a, b)
    }

    /// The instrumented pass: latch ABFT checksums from the pristine
    /// operands, corrupt the resident weight tile and drained
    /// accumulators per the fault plan, verify at drain.
    fn checked_pass(&mut self, a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
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
                let golden = tensor::gemm::matmul_i8(a, b).expect("pass shapes");
                if golden != out && !detected {
                    self.stats.faults_escaped += 1;
                    detected = true;
                }
            }
            if detected {
                self.stats.faults_detected += 1;
            }
        }
        self.stats.gemm_passes += 1;
        self.stats.macs += (a.rows() * a.cols() * b.cols()) as u64;
        self.stats.isolated_cycles += sim.total;
        self.stats.pe_cycles += sim.total.get() * self.sa.pe_count() as u64;
        out
    }

    /// A full linear sublayer: every 64-column weight panel streamed
    /// through the array, bias added and requantized on the drain path.
    fn linear(&mut self, lin: &QLinear, x: &Mat<i8>) -> Mat<i8> {
        let acc = self.linear_acc(lin, x);
        Mat::from_fn(acc.rows(), acc.cols(), |r, c| {
            lin.requantize_col(c, acc[(r, c)])
        })
    }

    /// Like [`ArrayEngine::linear`] but the raw accumulators (+bias) are
    /// returned for a caller-owned drain transform (ReLU, residual...).
    fn linear_acc(&mut self, lin: &QLinear, x: &Mat<i8>) -> Mat<i32> {
        let panels = lin.weight_q().col_panels(PANEL_COLS);
        let mut outs = Vec::with_capacity(panels.len());
        let mut c0 = 0usize;
        for panel in &panels {
            let acc = self.pass(x, panel);
            let bias = &lin.bias_q()[c0..c0 + panel.cols()];
            outs.push(Mat::from_fn(acc.rows(), acc.cols(), |r, c| {
                acc[(r, c)] + bias[c]
            }));
            c0 += panel.cols();
        }
        Mat::hconcat(&outs).expect("panels share rows")
    }

    /// `Q_i K_i^T` through the array, following the Section-III
    /// padding/tiling plan.
    fn qk(&mut self, qi: &Mat<i8>, ki: &Mat<i8>) -> Mat<i32> {
        let s = ki.rows();
        let plan = qk_plan(s);
        let k_padded = if plan.padded_k_rows > s {
            ki.padded(plan.padded_k_rows, ki.cols())
        } else {
            ki.clone()
        };
        let mut tiles = Vec::with_capacity(plan.tiles);
        for t in 0..plan.tiles {
            let r0 = t * PANEL_COLS;
            let rows = PANEL_COLS.min(k_padded.rows() - r0);
            let k_tile = k_padded
                .submatrix(r0, 0, rows, k_padded.cols())
                .expect("tile in range");
            tiles.push(self.pass(qi, &k_tile.transposed()));
        }
        Mat::hconcat(&tiles)
            .expect("tiles share rows")
            .submatrix(0, 0, qi.rows(), s)
            .expect("crop padding")
    }

    /// Executes the MHA ResBlock (Algorithm 1 lines 1–13) on the array.
    ///
    /// # Panics
    ///
    /// Panics if the inputs exceed the array's rows.
    pub fn execute_mha(
        &mut self,
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> EngineRun {
        self.stats = EngineStats::default();
        let (wq, wk, wv, wo) = block.projections();
        let d_k = block.d_k();
        // Lines 3-4 + line 6: the three projections (panel per head).
        let q = self.linear(wq, xq);
        let k = self.linear(wk, xkv);
        let v = self.linear(wv, xkv);
        // Lines 5-7, per head: scores -> softmax module -> context.
        let mut p_panels = Vec::with_capacity(block.heads());
        for i in 0..block.heads() {
            let c0 = i * d_k;
            let qi = q.submatrix(0, c0, q.rows(), d_k).expect("panel");
            let ki = k.submatrix(0, c0, k.rows(), d_k).expect("panel");
            let vi = v.submatrix(0, c0, v.rows(), d_k).expect("panel");
            let d = self.qk(&qi, &ki);
            let mut probs =
                scaled_masked_softmax(&d, block.d_scale(), d_k, mask, block.softmax_mode());
            if let Some(inj) = self.injector.as_mut() {
                self.stats.faults_injected += inj.corrupt_softmax(&mut probs);
            }
            let p_acc = self.pass(&probs, &vi);
            p_panels.push(block.requantize_p_panel(&p_acc));
        }
        let p = Mat::hconcat(&p_panels).expect("heads share rows");
        // Lines 9-11: G = P·W_G + bias (+ residual), panel per head.
        let g_codes = self.linear(wo, &p);
        let mut g = Mat::from_fn(g_codes.rows(), g_codes.cols(), |r, c| {
            g_codes[(r, c)] as i32 + xq[(r, c)] as i32
        });
        if let Some(inj) = self.injector.as_mut() {
            self.stats.faults_injected += inj.corrupt_layernorm(&mut g);
        }
        // Line 12: the LayerNorm module.
        let out = block.layernorm().forward(&g);
        // The golden cross-check re-runs the reference datapath on the
        // same inputs — the only checker that sees softmax/LayerNorm
        // datapath faults, which carry no checksum.
        if self.check == CheckMode::AbftGolden {
            let (want, _) = block.forward(xq, xkv, mask);
            if want != out {
                self.stats.faults_detected += 1;
            }
        }
        EngineRun {
            out,
            stats: self.stats,
        }
    }

    /// Executes the FFN ResBlock (Algorithm 1 lines 14–22) on the array.
    ///
    /// # Panics
    ///
    /// Panics if the input exceeds the array's rows.
    pub fn execute_ffn(&mut self, block: &QuantFfnResBlock, x: &Mat<i8>) -> EngineRun {
        self.stats = EngineStats::default();
        let (w1, w2) = block.sublayers();
        // Lines 15-17: P_i = ReLU(X W_1i + b_1i), ReLU fused on drain.
        let hidden_acc = self.linear_acc(w1, x);
        let hidden = Mat::from_fn(hidden_acc.rows(), hidden_acc.cols(), |r, c| {
            w1.requantize_col(c, hidden_acc[(r, c)]).max(0)
        });
        // Lines 18-20: G_i = P W_2i + b_2i + X_i.
        let g_codes = self.linear(w2, &hidden);
        let mut g = Mat::from_fn(g_codes.rows(), g_codes.cols(), |r, c| {
            g_codes[(r, c)] as i32 + x[(r, c)] as i32
        });
        if let Some(inj) = self.injector.as_mut() {
            self.stats.faults_injected += inj.corrupt_layernorm(&mut g);
        }
        // Line 21.
        let out = block.layernorm().forward(&g);
        if self.check == CheckMode::AbftGolden {
            let (want, _) = block.forward(x);
            if want != out {
                self.stats.faults_detected += 1;
            }
        }
        EngineRun {
            out,
            stats: self.stats,
        }
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

    #[test]
    fn mha_execution_is_bit_identical_to_datapath() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        for xq in &codes {
            let (want, _) = qmha.forward(xq, xq, None);
            let run = engine.execute_mha(&qmha, xq, xq, None);
            assert_eq!(run.out, want);
        }
    }

    #[test]
    fn masked_mha_execution_is_bit_identical() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let mask = tensor::ops::causal_mask(8);
        let (want, _) = qmha.forward(&codes[0], &codes[0], Some(&mask));
        let run = engine.execute_mha(&qmha, &codes[0], &codes[0], Some(&mask));
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
            let run = engine.execute_ffn(&qffn, &xq);
            assert_eq!(run.out, want);
        }
    }

    #[test]
    fn mha_pass_count_matches_algorithm1() {
        // tiny config: h = 4 heads, d_model = 32 -> each projection has
        // ceil(32/64) = 1 panel; per head: QK^T 1 tile + PV 1; W_G 1
        // panel. passes = 3 proj + h*(1+1) + 1 = 12.
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let run = engine.execute_mha(&qmha, &codes[0], &codes[0], None);
        assert_eq!(run.stats.gemm_passes, 3 + 4 * 2 + 1);
        assert!(run.stats.macs > 0);
        assert!(run.stats.isolated_cycles.get() > 0);
    }

    #[test]
    fn ffn_pass_count_matches_algorithm1() {
        // d_ff = 64 -> 1 W1 panel; d_model = 32 -> 1 W2 panel.
        let (_, qffn, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let run = engine.execute_ffn(&qffn, &codes[0]);
        assert_eq!(run.stats.gemm_passes, 2);
    }

    #[test]
    fn cross_attention_execution_matches() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let xq = codes[0].submatrix(0, 0, 3, codes[0].cols()).unwrap();
        let (want, _) = qmha.forward(&xq, &codes[1], None);
        let run = engine.execute_mha(&qmha, &xq, &codes[1], None);
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
            assert_eq!(fast.fidelity(), Fidelity::Analytic);
            assert_eq!(slow.fidelity(), Fidelity::RegisterTrue);
            let mask = tensor::ops::causal_mask(s);
            for xq in &codes {
                let x = xq.submatrix(0, 0, s, xq.cols()).unwrap();
                for mask in [None, Some(&mask)] {
                    let a = fast.execute_mha(&qmha, &x, &x, mask);
                    let b = slow.execute_mha(&qmha, &x, &x, mask);
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
                let a = fast.execute_ffn(&qffn, &x);
                let b = slow.execute_ffn(&qffn, &x);
                assert_eq!(a.out, b.out, "s={s}");
                assert_eq!(a.stats, b.stats, "s={s}");
            }
        }
    }

    #[test]
    fn stats_merge_and_sum_aggregate_batches() {
        let (qmha, qffn, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let a = engine.execute_mha(&qmha, &codes[0], &codes[0], None).stats;
        let b = engine.execute_ffn(&qffn, &codes[1]).stats;
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
        let util = merged.array_utilization(8 * 64);
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        assert_eq!(EngineStats::default().array_utilization(64), 0.0);
    }

    #[test]
    fn utilization_is_correct_for_rectangular_and_mixed_geometries() {
        let (qmha, _, codes) = setup(8);
        // A non-square 8×64 grid: capacity is tracked per pass, so the
        // pe_count argument is ignored and the figure is exact.
        let mut small = ArrayEngine::new(8);
        let a = small.execute_mha(&qmha, &codes[0], &codes[0], None).stats;
        assert_eq!(
            a.pe_cycles,
            a.isolated_cycles.get() * (8 * 64),
            "every pass ran on the 8×64 grid"
        );
        let exact = a.macs as f64 / a.pe_cycles as f64;
        assert!((a.array_utilization(8 * 64) - exact).abs() < 1e-12);
        assert!((a.array_utilization(12_345) - exact).abs() < 1e-12);

        // Stats merged across two different grid heights: the correct
        // utilization is the capacity-weighted one; dividing by either
        // single grid's pe_count would over- or under-count.
        let mut tall = ArrayEngine::new(16);
        let xs = codes[1].submatrix(0, 0, 8, codes[1].cols()).unwrap();
        let b = tall.execute_mha(&qmha, &xs, &xs, None).stats;
        assert_eq!(b.pe_cycles, b.isolated_cycles.get() * (16 * 64));
        let mut merged = a;
        merged.merge(&b);
        let want = (a.macs + b.macs) as f64 / (a.pe_cycles + b.pe_cycles) as f64;
        let got = merged.array_utilization(0);
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        assert!(got > 0.0 && got <= 1.0);
        let naive_small = merged.macs as f64 / (merged.isolated_cycles.get() as f64 * (8.0 * 64.0));
        assert!(
            (got - naive_small).abs() > 1e-9,
            "single-geometry formula cannot express the mixed-grid figure"
        );

        // Hand-modeled stats (no recorded capacity) keep the historical
        // cycles × pe_count fallback.
        let hand = EngineStats {
            macs: 64,
            isolated_cycles: Cycle(2),
            ..EngineStats::default()
        };
        assert!((hand.array_utilization(64) - 0.5).abs() < 1e-12);
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
            let a = plain.execute_mha(&qmha, xq, xq, None);
            let b = checked.execute_mha(&qmha, xq, xq, None);
            assert_eq!(a.out, b.out);
            assert_eq!(a.stats.gemm_passes, b.stats.gemm_passes);
            assert_eq!(a.stats.macs, b.stats.macs);
            assert_eq!(a.stats.isolated_cycles, b.stats.isolated_cycles);
            assert_eq!(b.stats.abft_checked, b.stats.gemm_passes);
            assert_eq!(b.stats.faults_injected, 0);
            assert_eq!(b.stats.faults_detected, 0);
            assert_eq!(b.stats.faults_escaped, 0);
            let f = plain.execute_ffn(&qffn, xq);
            let g = checked.execute_ffn(&qffn, xq);
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
        let want = pristine.execute_mha(&qmha, &codes[0], &codes[0], None);
        let mut faulty = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::Abft);
        let run = faulty.execute_mha(&qmha, &codes[0], &codes[0], None);
        assert_eq!(run.stats.faults_injected, 1);
        assert!(run.stats.faults_detected >= 1, "ABFT must flag the tile");
        assert_eq!(run.stats.faults_escaped, 0);
        assert_ne!(run.out, want.out, "the flip corrupts the block output");
        // The next run re-uses the engine: pass indices have advanced
        // past the plan, so the fault never refires (one-shot SEU).
        let clean = faulty.execute_mha(&qmha, &codes[0], &codes[0], None);
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
        let want = pristine.execute_ffn(&qffn, &codes[0]);
        let mut faulty = ArrayEngine::new(8)
            .with_fault_plan(plan)
            .with_check_mode(CheckMode::Abft);
        let run = faulty.execute_ffn(&qffn, &codes[0]);
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
        let want = pristine.execute_mha(&qmha, &codes[0], &codes[0], None);
        // ABFT alone: the corrupted probabilities *are* the stream the
        // checksums latch from, so the context pass verifies clean.
        let mut abft_only = ArrayEngine::new(8)
            .with_fault_plan(plan.clone())
            .with_check_mode(CheckMode::Abft);
        let run = abft_only.execute_mha(&qmha, &codes[0], &codes[0], None);
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
        let run = golden.execute_mha(&qmha, &codes[0], &codes[0], None);
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
        let run = engine.execute_ffn(&qffn, &codes[0]);
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
            index_hi: 12,
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
        let a = fast.execute_mha(&qmha, &codes[0], &codes[0], None);
        let b = slow.execute_mha(&qmha, &codes[0], &codes[0], None);
        assert_eq!(a.out, b.out);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn stats_reset_between_runs() {
        let (qmha, _, codes) = setup(8);
        let mut engine = ArrayEngine::new(8);
        let a = engine.execute_mha(&qmha, &codes[0], &codes[0], None);
        let b = engine.execute_mha(&qmha, &codes[1], &codes[1], None);
        assert_eq!(a.stats.gemm_passes, b.stats.gemm_passes);
        assert_eq!(a.stats.macs, b.stats.macs);
    }
}
