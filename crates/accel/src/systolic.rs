//! The `s × 64` INT8 systolic array (Fig. 5's "SA Module").
//!
//! Output-stationary dataflow: matrix `A` (`s × k`) streams in from the
//! west with one-cycle skew per row, matrix `B` (`k × 64`) from the
//! north with one-cycle skew per column; every PE multiply-accumulates
//! the operand pair passing through it, so after the `k`-deep stream
//! (plus the wavefront skew) PE `(r, c)` holds `Σ_t A[r,t]·B[t,c]`. The
//! product then drains column by column ("it is designed to output the
//! product matrix column by column, so each column has `s` elements"),
//! through the `s` bias adders.
//!
//! [`SystolicArray::simulate`] is a register-true, cycle-by-cycle PE
//! grid simulation, used by tests to prove the dataflow computes the
//! exact INT8 GEMM and to validate the closed-form timing of
//! [`SystolicArray::simulate_analytic`].

use hwsim::cycles::Cycle;
use tensor::{gemm, Mat};

/// Geometry and timing of the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

/// Result of a register-true array simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The exact product accumulators.
    pub out: Mat<i32>,
    /// Cycles until the last PE finished accumulating
    /// (`k + rows_a + cols_b − 2`).
    pub compute: Cycle,
    /// Column-serial drain cycles (`cols_b`).
    pub drain: Cycle,
    /// End-to-end cycles for this isolated GEMM.
    pub total: Cycle,
}

impl SystolicArray {
    /// Creates an array of `rows × cols` PEs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        Self { rows, cols }
    }

    /// The paper's array for max sequence length `s`: `s × 64`.
    pub fn paper(s: usize) -> Self {
        Self::new(s, crate::partition::PANEL_COLS)
    }

    /// Register-true simulation of one GEMM `a · b`.
    ///
    /// `a: [rows_a, k]` with `rows_a <= self.rows()`; `b: [k, cols_b]`
    /// with `cols_b <= self.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if the operands exceed the array or widths mismatch.
    pub fn simulate(&self, a: &Mat<i8>, b: &Mat<i8>) -> SimResult {
        let (rows_a, k) = a.shape();
        let (kb, cols_b) = b.shape();
        assert_eq!(k, kb, "reduction depth mismatch: {k} vs {kb}");
        assert!(rows_a <= self.rows, "A has more rows than the array");
        assert!(cols_b <= self.cols, "B has more columns than the array");
        assert!(k > 0 && rows_a > 0 && cols_b > 0, "empty operands");

        // Per-PE operand registers (west-moving A, south-moving B) and
        // accumulators.
        let mut a_reg = vec![vec![(0i8, false); cols_b]; rows_a];
        let mut b_reg = vec![vec![(0i8, false); cols_b]; rows_a];
        let mut acc = Mat::<i32>::zeros(rows_a, cols_b);

        let compute_cycles = k + rows_a + cols_b - 2;
        for t in 0..compute_cycles {
            // Sweep from the south-east corner so each PE reads its
            // neighbour's *previous-cycle* register.
            for r in (0..rows_a).rev() {
                for c in (0..cols_b).rev() {
                    let a_in = if c == 0 {
                        // west edge: row r injects A[r][t - r] (skewed)
                        let idx = t as i64 - r as i64;
                        if (0..k as i64).contains(&idx) {
                            (a[(r, idx as usize)], true)
                        } else {
                            (0, false)
                        }
                    } else {
                        a_reg[r][c - 1]
                    };
                    let b_in = if r == 0 {
                        // north edge: column c injects B[t - c][c] (skewed)
                        let idx = t as i64 - c as i64;
                        if (0..k as i64).contains(&idx) {
                            (b[(idx as usize, c)], true)
                        } else {
                            (0, false)
                        }
                    } else {
                        b_reg[r - 1][c]
                    };
                    if a_in.1 && b_in.1 {
                        acc[(r, c)] += a_in.0 as i32 * b_in.0 as i32;
                    }
                    a_reg[r][c] = a_in;
                    b_reg[r][c] = b_in;
                }
            }
        }
        let compute = Cycle(compute_cycles as u64);
        let drain = Cycle(cols_b as u64);
        SimResult {
            out: acc,
            compute,
            drain,
            total: compute + drain,
        }
    }

    /// Closed-form `(compute, drain)` cycles of one `rows_a × k × cols_b`
    /// pass (`compute = k + rows_a + cols_b − 2`, `drain = cols_b`), with
    /// [`SystolicArray::simulate`]'s operand-size validation.
    ///
    /// # Panics
    ///
    /// Panics if the operands exceed the array or are empty.
    pub(crate) fn pass_timing(&self, rows_a: usize, k: usize, cols_b: usize) -> (Cycle, Cycle) {
        assert!(rows_a <= self.rows, "A has more rows than the array");
        assert!(cols_b <= self.cols, "B has more columns than the array");
        assert!(k > 0 && rows_a > 0 && cols_b > 0, "empty operands");
        (
            Cycle((k + rows_a + cols_b - 2) as u64),
            Cycle(cols_b as u64),
        )
    }

    /// Analytic model of one GEMM `a · b`: the product from the fast
    /// blocked [`tensor::gemm::matmul_i8`] kernel plus the closed-form
    /// cycle counts (`compute = k + rows_a + cols_b − 2`,
    /// `drain = cols_b`).
    ///
    /// The PE grid is output-stationary and exact, and the wavefront
    /// timing depends only on the operand shape, so this is
    /// **bit-identical** to [`SystolicArray::simulate`] in both outputs
    /// and cycles (asserted by tests) — at GEMM cost instead of
    /// `O(cycles · PEs)` register stepping. Operand validation matches
    /// `simulate` panic for panic.
    ///
    /// # Panics
    ///
    /// Panics if the operands exceed the array or widths mismatch.
    pub(crate) fn simulate_analytic(&self, a: &Mat<i8>, b: &Mat<i8>) -> SimResult {
        let (rows_a, k) = a.shape();
        let (kb, cols_b) = b.shape();
        assert_eq!(k, kb, "reduction depth mismatch: {k} vs {kb}");
        let (compute, drain) = self.pass_timing(rows_a, k, cols_b);
        let out = gemm::matmul_i8(a, b).expect("widths checked above");
        SimResult {
            out,
            compute,
            drain,
            total: compute + drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::gemm;

    #[test]
    fn simulation_computes_exact_gemm() {
        let mut rng = StdRng::seed_from_u64(1);
        let sa = SystolicArray::new(8, 8);
        for &(m, k, n) in &[(8usize, 12usize, 8usize), (3, 5, 7), (1, 1, 1), (8, 64, 8)] {
            let a = tensor::init::uniform_i8(&mut rng, m, k);
            let b = tensor::init::uniform_i8(&mut rng, k, n);
            let sim = sa.simulate(&a, &b);
            let want = gemm::matmul_i8(&a, &b).unwrap();
            assert_eq!(sim.out, want, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn paper_array_simulates_one_projection_panel() {
        // Q (64x512) x W_Q1 (512x64): one Algorithm-1 line-3 GEMM. Use a
        // reduced depth to keep the test quick but the geometry real.
        let mut rng = StdRng::seed_from_u64(2);
        let sa = SystolicArray::paper(64);
        let a = tensor::init::uniform_i8(&mut rng, 64, 96);
        let b = tensor::init::uniform_i8(&mut rng, 96, 64);
        let sim = sa.simulate(&a, &b);
        assert_eq!(sim.out, gemm::matmul_i8(&a, &b).unwrap());
        // compute = k + rows + cols - 2
        assert_eq!(sim.compute, Cycle(96 + 64 + 64 - 2));
        assert_eq!(sim.drain, Cycle(64));
    }

    #[test]
    fn timing_formula_matches_simulation() {
        let sa = SystolicArray::new(16, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let a = tensor::init::uniform_i8(&mut rng, 16, 40);
        let b = tensor::init::uniform_i8(&mut rng, 40, 16);
        let sim = sa.simulate(&a, &b);
        assert_eq!(sim.compute, Cycle(40 + 16 + 16 - 2));
        assert_eq!(sim.total, Cycle(40 + 16 + 16 - 2 + 16));
    }

    #[test]
    fn analytic_matches_register_true_bit_for_bit() {
        // Randomized shapes: outputs AND all three cycle counts must be
        // identical between the two fidelity paths.
        let mut rng = StdRng::seed_from_u64(29);
        let sa = SystolicArray::new(16, 16);
        for case in 0..25 {
            let m = 1 + (case * 7) % 16;
            let n = 1 + (case * 11) % 16;
            let k = 1 + (case * 13) % 80;
            let a = tensor::init::uniform_i8(&mut rng, m, k);
            let b = tensor::init::uniform_i8(&mut rng, k, n);
            let slow = sa.simulate(&a, &b);
            let fast = sa.simulate_analytic(&a, &b);
            assert_eq!(fast.out, slow.out, "({m},{k},{n})");
            assert_eq!(fast.compute, slow.compute, "({m},{k},{n})");
            assert_eq!(fast.drain, slow.drain, "({m},{k},{n})");
            assert_eq!(fast.total, slow.total, "({m},{k},{n})");
        }
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn analytic_keeps_simulate_validation() {
        let sa = SystolicArray::new(4, 4);
        let a = Mat::<i8>::zeros(4, 3);
        let b = Mat::<i8>::zeros(4, 4);
        let _ = sa.simulate_analytic(&a, &b);
    }

    #[test]
    fn pe_count_and_geometry() {
        let sa = SystolicArray::paper(64);
        assert_eq!(sa.rows * sa.cols, 4096);
        assert_eq!(sa.rows, 64);
        assert_eq!(sa.cols, 64);
    }

    #[test]
    fn partial_occupancy_supported() {
        // s = 5 sequence on a 64-row array
        let mut rng = StdRng::seed_from_u64(4);
        let sa = SystolicArray::paper(64);
        let a = tensor::init::uniform_i8(&mut rng, 5, 32);
        let b = tensor::init::uniform_i8(&mut rng, 32, 64);
        let sim = sa.simulate(&a, &b);
        assert_eq!(sim.out, gemm::matmul_i8(&a, &b).unwrap());
    }

    #[test]
    #[should_panic(expected = "more rows")]
    fn oversize_operand_rejected() {
        let sa = SystolicArray::new(4, 4);
        let a = Mat::<i8>::zeros(5, 4);
        let b = Mat::<i8>::zeros(4, 4);
        let _ = sa.simulate(&a, &b);
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn depth_mismatch_rejected() {
        let sa = SystolicArray::new(4, 4);
        let a = Mat::<i8>::zeros(4, 3);
        let b = Mat::<i8>::zeros(4, 4);
        let _ = sa.simulate(&a, &b);
    }
}
