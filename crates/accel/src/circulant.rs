//! FTRANS-style block-circulant FFN backend: circulant weight blocks
//! executed via the FFT trick in a small fixed-point FFT unit.
//!
//! FTRANS (arXiv 2007.08563) compresses Transformer weights by
//! constraining every `b × b` block of a weight matrix to be circulant —
//! the block is then defined by a single length-`b` kernel, a `b×`
//! parameter reduction — and computes each block's matvec as a circular
//! convolution: `y_J = Σ_I IFFT(FFT(x_I) ∘ FFT(c_{I,J}))`. The FFT of
//! every kernel is precomputed at compile time, so the runtime datapath
//! is: FFT each input block once, multiply-accumulate in the frequency
//! domain across input blocks, one IFFT per output block.
//!
//! ## Weight-stationary runs
//!
//! "Compile time" here is the first run against a sublayer: the backend
//! derives that sublayer's kernel spectra and float bias once and keeps
//! them resident, the way the unit's kernel store holds them beside the
//! MAC lanes, so later runs stream only activations. The resident state
//! is a memo inside the backend, invisible from outside:
//!
//! * **Key.** An entry stores the exact inputs it was derived from — the
//!   INT8 weight codes, every column's weight scale, the input scale and
//!   the accumulator-domain bias — and a lookup compares all of them for
//!   equality. There is no hash and no identity shortcut, so an entry can
//!   be neither stale (a changed weight code misses) nor a collision.
//! * **Bound.** At most four sublayers stay resident (two FFN blocks'
//!   worth, ≈ 1.6 MiB each at 512 × 2048); the least recently used is
//!   evicted.
//! * **Clone.** A cloned backend starts with an empty memo, like
//!   `transformer::Linear`'s packed-weight cache: derived state is
//!   rebuilt on demand, never copied.
//!
//! Spectra are stored planar — separate `re`/`im` arrays indexed
//! `[in_block][bin][out_block]` — so the spectral MAC of one input bin
//! against every output block is a unit-stride loop the compiler
//! vectorises. It accumulates into `[bin][out_block]` registers with the
//! same per-product rounding shift as [`Cpx::mul`]; integer adds after
//! that rounding are exact in any order, so outputs, check reports and
//! fault behaviour equal the block-at-a-time formulation bit for bit
//! (pinned against a frozen copy of it in this module's tests). The
//! same `[k][lane]` layout is what [`fft::fft_planes`] transforms, so a
//! row costs one batched FFT over its input blocks and one batched IFFT
//! over its output blocks.
//!
//! ## Real-input symmetry
//!
//! Activations and circulant kernels are real, so the unit stores and
//! multiplies only bins `0 ..= b/2`; the drain rebuilds bins above `b/2`
//! as conjugates before the checksum register is latched, a fault is
//! injected or the IFFT runs. In this fixed-point datapath that is exact,
//! not approximate:
//!
//! 1. [`rounding_shr`] rounds ties away from zero, so it is odd,
//!    `R(−v) = −R(v)`, and [`Cpx::mul`] commutes with conjugation:
//!    `conj(a)·conj(b) = conj(a·b)` and `conj(a)·(−conj(w)) = −conj(a·w)`,
//!    rounding included.
//! 2. The twiddle ROM is mirror-symmetric, `tw[n/2 − k] = −conj(tw[k])`,
//!    with `tw[0]` real. By induction over the radix-2 DIT stages
//!    (`X[k] = E[k] + tw[k]·O[k]`, `X[k + n/2] = E[k] − tw[k]·O[k]`, the
//!    half-length spectra `E`, `O` of real signals symmetric by
//!    hypothesis), a real signal's spectrum has `X[n − k] = conj(X[k])`
//!    and `Im X[0] = Im X[n/2] = 0`, bit for bit.
//! 3. Products of two such spectra are symmetric by 1, and integer sums
//!    of symmetric spectra are symmetric; in bins `0` and `b/2` both
//!    factors are real, so the product is one real multiply.
//!
//! Each assumption is checked where it is made: the ROM's symmetry by an
//! `assert!` in [`CirculantBackend::new`], every kernel spectrum by an
//! `assert!` when a sublayer's store is built (before the mirrored bins
//! are dropped), each row's input spectra by a `debug_assert!`;
//! `fixedmath::fft`'s tests show the property failing under a
//! round-half-up shift.
//!
//! This backend implements that unit for the **FFN ResBlock only**
//! (`caps().supports_ffn`); attention stays on a systolic backend, which
//! mirrors FTRANS itself (its block-circulant gains concentrate in the
//! large FFN/embedding matrices). Lowering consumes the *same*
//! [`graph::ffn_graph`] the other backends lower — the walk in
//! [`CirculantBackend::lower_ffn`] mirrors [`crate::exec::lower_ffn`]
//! node for node, emitting [`CircOp`]s instead of panel commands.
//!
//! ## Numerics and accuracy
//!
//! The unit runs on Q19.12 fixed point ([`fixedmath::fft`]). Activations
//! enter by dequantizing the block's INT8 codes, leave by requantizing
//! with the layer's calibrated output scale, and the residual-add +
//! LayerNorm tail reuses the reference integer LayerNorm — so outputs
//! live in exactly the reference code space and plug into the existing
//! SQNR/BLEU harness.
//!
//! On weights that *are* block-circulant (the FTRANS training regime,
//! reproduced in tests with [`circulantize_ffn`]) the only error sources
//! are FFT rounding and the ±1-code requantization skew, and end-to-end
//! SQNR against the bit-exact reference must stay above
//! [`CIRC_SQNR_FLOOR_DB`] — asserted here and in
//! `tests/backend_identity.rs`. On unconstrained weights the circulant
//! *projection* (each block replaced by its nearest circulant, wrapped
//! diagonal means) dominates the error; the explorer reports that SQNR,
//! it is not asserted.
//!
//! ## Fault checking (ABFT for the FFT path)
//!
//! The serving layer's ABFT checksums guard GEMMs; a frequency-domain
//! datapath needs its own invariants. This backend keeps two per output
//! block, both byproducts the hardware gets nearly for free:
//!
//! 1. **Accumulation checksum.** A separate register accumulates
//!    `S = Σ_k Y_k` from the *products* as they are written to the
//!    spectral SRAM (an adder tree beside the MAC lanes; never re-read
//!    from the store once it can have been corrupted — the model reads
//!    the register as `Σ_k` of the accumulators *before* the
//!    fault-injection point, the same integer as the running sum of the
//!    products). Since `y₀ = (1/b)·Σ_k Y_k`, the IFFT output must
//!    satisfy `b·y₀ = S`. Every bin contributes to `y₀`, so a bit flip
//!    in **any** bin of the stored spectrum — DC included — diverges
//!    from the independently-kept register.
//! 2. **IFFT self-consistency.** For an exact IFFT, `Σ_t y_t = Y[0]`:
//!    the sum of each output block must equal its DC bin (within a
//!    rounding tolerance). This covers the IFFT datapath itself.
//!
//! [`CirculantBackend::run_ffn_checked`] flags violations of either;
//! injection is exercised in this module's tests and the
//! fault-injection campaign's circulant smoke test.

use std::sync::{Arc, Mutex};

use fixedmath::fft::{self, Cpx};
use fixedmath::fx::{self, FRAC};
use fixedmath::sat::rounding_shr;
use graph::{Graph, GraphKind, Op, WeightId};
use hwsim::memory::MemorySpec;
use hwsim::resources::Resources;
use quantized::{QLinear, QuantFfnResBlock, QuantMhaResBlock};
use serde::Serialize;
use tensor::Mat;
use transformer::ffn::FfnResBlock;
use transformer::opt::HasParams;

use crate::area;
use crate::backend::{Backend, BackendCaps, BackendProgram};
use crate::config::AccelConfig;
use crate::layernorm_module;

/// Documented end-to-end SQNR floor (dB) of the circulant path against
/// the bit-exact reference, on block-circulant weights. See the module
/// docs for what contributes the noise.
pub const CIRC_SQNR_FLOOR_DB: f64 = 20.0;

/// Absolute fixed-point tolerance of the ABFT checks per output block:
/// IFFT rounding contributes ~`(log₂ b + 1)/2` LSB per sample, summed
/// over `b` samples; 32 LSB per sample is a ×8 guard band. The
/// accumulation-checksum check (`b·y₀` vs `S`) scales this by another
/// factor of `b` for the `×b` amplification of `y₀`'s rounding error.
pub fn dc_check_tolerance(b: usize) -> i64 {
    32 * b as i64
}

/// Circulant-backend configuration.
#[derive(Debug, Clone, Serialize)]
pub struct CirculantConfig {
    /// Model dimensions, clock and LayerNorm policy (`base.s` is the
    /// workload row count).
    pub base: AccelConfig,
    /// Circulant block size `b` (power of two; must divide `d_model`
    /// and `d_ff`). FTRANS evaluates 4–16; 8 is its sweet spot.
    pub block: usize,
    /// Parallel butterfly/MAC lanes of the FFT unit.
    pub lanes: usize,
}

impl CirculantConfig {
    /// The FTRANS-style default: paper model, `b = 8`, 16 lanes.
    pub fn ftrans_default() -> Self {
        Self {
            base: AccelConfig::paper_default(),
            block: 8,
            lanes: 16,
        }
    }

    /// Validates geometry.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two ≥ 2, does not divide
    /// `d_model`/`d_ff`, or `lanes == 0`.
    pub fn validate(&self) {
        self.base.validate();
        assert!(
            self.block.is_power_of_two() && self.block >= 2,
            "circulant block size must be a power of two >= 2"
        );
        assert_eq!(
            self.base.model.d_model % self.block,
            0,
            "block must divide d_model"
        );
        assert_eq!(
            self.base.model.d_ff % self.block,
            0,
            "block must divide d_ff"
        );
        assert!(self.lanes > 0, "FFT unit needs at least one lane");
    }
}

/// One operation of the FFT unit's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CircOp {
    /// FFT every length-`b` input block of the layer's activations
    /// (once per row; spectra are then reused by every `Accumulate`).
    Transform {
        /// FFN sublayer (1 or 2).
        layer: u8,
    },
    /// Frequency-domain MAC across all input blocks for one output
    /// block, followed by its IFFT, bias add (+ ReLU on layer 1) and
    /// requantization.
    Accumulate {
        /// FFN sublayer (1 or 2).
        layer: u8,
        /// Output-block index (`0 .. d_out / b`).
        block: usize,
    },
    /// Residual add + integer LayerNorm tail (shared with the other
    /// backends' reference implementation).
    LayerNorm,
}

/// A lowered FFT-unit program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct CircProgram {
    /// Operations in issue order.
    pub ops: Vec<CircOp>,
}

/// Outcome of the spectral ABFT checks over one `run_ffn_checked` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CircCheckReport {
    /// Output blocks checked (rows × output blocks, both layers).
    pub blocks_checked: u64,
    /// Blocks where the accumulation checksum or the IFFT DC identity
    /// failed.
    pub violations: u64,
}

/// A fault to inject into the accumulated spectrum of one output block
/// (before its IFFT) — models an SEU in the frequency-domain
/// accumulator SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircFault {
    /// FFN sublayer (1 or 2).
    pub layer: u8,
    /// Activation row.
    pub row: usize,
    /// Output-block index.
    pub out_block: usize,
    /// Spectrum bin to corrupt.
    pub bin: usize,
    /// Bit to flip in the bin's real part.
    pub bit: u32,
}

/// Projects one `b × b` block of `w` (top-left corner `(r0, c0)`) onto
/// its nearest circulant in the Frobenius sense: kernel
/// `c[d] = mean_t w[r0+t][c0+(t+d) mod b]` (the mean of each wrapped
/// diagonal), so that `(x · W_block)_j ≈ (x ⊛ c)_j`.
pub fn project_block(w: &Mat<f32>, r0: usize, c0: usize, b: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; b];
    project_block_into(|r, c| w[(r, c)], r0, c0, &mut c);
    c
}

/// [`project_block`] over any element accessor, into a caller-owned
/// kernel of length `b`.
fn project_block_into(w: impl Fn(usize, usize) -> f32, r0: usize, c0: usize, kernel: &mut [f32]) {
    let b = kernel.len();
    for (d, out) in kernel.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for t in 0..b {
            acc += w(r0 + t, c0 + (t + d) % b);
        }
        *out = acc / b as f32;
    }
}

/// Rebuilds the full block-circulant approximation of `w` (every `b × b`
/// block replaced by its [`project_block`] circulant).
///
/// # Panics
///
/// Panics if `b` does not divide both dimensions of `w`.
pub fn project_circulant(w: &Mat<f32>, b: usize) -> Mat<f32> {
    assert_eq!(w.rows() % b, 0, "b must divide rows");
    assert_eq!(w.cols() % b, 0, "b must divide cols");
    let mut out = Mat::zeros(w.rows(), w.cols());
    for bi in 0..w.rows() / b {
        for bj in 0..w.cols() / b {
            let c = project_block(w, bi * b, bj * b, b);
            for t in 0..b {
                for j in 0..b {
                    out[(bi * b + t, bj * b + j)] = c[(j + b - t % b) % b];
                }
            }
        }
    }
    out
}

/// Replaces both FFN weight matrices of `block` with their
/// block-circulant projections in place — the repo's stand-in for
/// FTRANS's circulant-constrained training. Biases and LayerNorm
/// parameters are untouched.
///
/// # Panics
///
/// Panics if `b` does not divide `d_model` and `d_ff`.
pub fn circulantize_ffn(block: &mut FfnResBlock, b: usize) {
    let cfg = block.graph_config();
    let shapes = [
        (".lin1.w", cfg.d_model, cfg.d_ff),
        (".lin2.w", cfg.d_ff, cfg.d_model),
    ];
    block.visit_params(&mut |name, w, _| {
        for (suffix, rows, cols) in shapes {
            if name.ends_with(suffix) {
                let m = Mat::from_fn(rows, cols, |r, c| w[r * cols + c]);
                let proj = project_circulant(&m, b);
                w.copy_from_slice(proj.as_slice());
            }
        }
    });
}

/// Sublayers whose compile-time state stays resident in one backend
/// before the least recently used is evicted: both sublayers of two FFN
/// blocks. Each 512 × 2048 entry holds ≈ 0.6 MiB of half-spectra and
/// ≈ 1 MiB of key.
const SPECTRA_MEMO_CAP: usize = 4;

/// One sublayer's compile-time state — the kernel store's contents —
/// together with the exact inputs it was derived from.
struct KernelSpectra {
    // Key: everything the derived state below is a function of (beside
    // the backend's fixed block size).
    w_q: Mat<i8>,
    w_scales: Vec<f32>,
    in_scale: f32,
    bias_q: Vec<i32>,
    /// Real parts of the kernel half-spectra, `[in_block][bin][out_block]`
    /// over bins `0 ..= b/2`: the spectrum of the circulant kernel of
    /// input block `i` / output block `j`, built from the *dequantized*
    /// INT8 weights (the same effective weights the reference datapath
    /// multiplies by). Bins above `b/2` are the conjugates of the stored
    /// ones and are never stored.
    re: Vec<i32>,
    /// Imaginary parts, same layout (all zero in bins `0` and `b/2`).
    im: Vec<i32>,
    /// Bias per output column, dequantized from the accumulator domain.
    bias_f: Vec<f32>,
}

impl KernelSpectra {
    /// The compile-time weight transform: project every `b × b` block of
    /// the dequantized weights onto its circulant kernel, FFT all of
    /// them as one planar batch, and keep the non-redundant half.
    ///
    /// # Panics
    ///
    /// Panics if a kernel's spectrum is not exactly conjugate-symmetric
    /// (see the module docs, "Real-input symmetry").
    fn build(lin: &QLinear, b: usize, tw: &[Cpx]) -> Self {
        let wq = lin.weight_q();
        let (nb_in, nb_out) = (wq.rows() / b, wq.cols() / b);
        let w_scales: Vec<f32> = (0..wq.cols()).map(|c| lin.w_scale_of(c).scale()).collect();
        let in_scale = lin.in_scale().scale();
        // Time-domain kernels as `[t][in_block · nb_out + out_block]`
        // planes: one transform lane per weight block.
        let lanes = nb_in * nb_out;
        let mut k_re = vec![0i32; b * lanes];
        let mut k_im = vec![0i32; b * lanes];
        let mut kernel = vec![0.0f32; b];
        for i in 0..nb_in {
            for j in 0..nb_out {
                project_block_into(
                    |r, c| wq[(r, c)] as f32 * w_scales[c],
                    i * b,
                    j * b,
                    &mut kernel,
                );
                for (t, &c) in kernel.iter().enumerate() {
                    k_re[t * lanes + i * nb_out + j] = fx::to_fx(c, FRAC);
                }
            }
        }
        fft::fft_planes(&mut k_re, &mut k_im, lanes, tw, FRAC);
        assert!(
            is_hermitian(&k_re, &k_im, lanes),
            "kernel spectra of real kernels must be conjugate-symmetric"
        );
        let half_store = |planes: &[i32]| {
            let mut store = Vec::with_capacity(nb_in * (b / 2 + 1) * nb_out);
            for i in 0..nb_in {
                for k in 0..=b / 2 {
                    store.extend_from_slice(&planes[k * lanes + i * nb_out..][..nb_out]);
                }
            }
            store
        };
        let (re, im) = (half_store(&k_re), half_store(&k_im));
        let bias_f = lin
            .bias_q()
            .iter()
            .zip(&w_scales)
            .map(|(&bq, &ws)| bq as f32 * in_scale * ws)
            .collect();
        Self {
            w_q: wq.clone(),
            w_scales,
            in_scale,
            bias_q: lin.bias_q().to_vec(),
            re,
            im,
            bias_f,
        }
    }

    /// Whether this entry was derived from exactly `lin`'s weights,
    /// scales and bias (cheap fields first; the weight codes are one
    /// `memcmp`).
    fn is_for(&self, lin: &QLinear) -> bool {
        self.in_scale.to_bits() == lin.in_scale().scale().to_bits()
            && self.bias_q == lin.bias_q()
            && self
                .w_scales
                .iter()
                .enumerate()
                .all(|(c, s)| s.to_bits() == lin.w_scale_of(c).scale().to_bits())
            && self.w_q == *lin.weight_q()
    }
}

/// The backend's resident sublayers, least recently used first. Derived
/// state only: see the module docs for key, bound and clone behaviour.
#[derive(Default)]
struct SpectraMemo(Mutex<Vec<Arc<KernelSpectra>>>);

impl SpectraMemo {
    /// The resident state for `lin`, derived now if it is not resident.
    fn get(&self, lin: &QLinear, b: usize, tw: &[Cpx]) -> Arc<KernelSpectra> {
        let mut resident = self
            .0
            .lock()
            .expect("a run panicked while deriving kernel spectra");
        let entry = match resident.iter().position(|e| e.is_for(lin)) {
            Some(at) => resident.remove(at),
            None => {
                if resident.len() == SPECTRA_MEMO_CAP {
                    resident.remove(0);
                }
                Arc::new(KernelSpectra::build(lin, b, tw))
            }
        };
        resident.push(Arc::clone(&entry));
        entry
    }

    fn len(&self) -> usize {
        self.0.lock().map_or(0, |resident| resident.len())
    }
}

impl std::fmt::Debug for SpectraMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpectraMemo({} resident)", self.len())
    }
}

/// Whether every lane of a planar spectrum (`[bin][lane]`, as
/// [`fft::fft_planes`] leaves it) is the spectrum of a real signal: bins
/// `0` and `n/2` real, bin `n − k` the conjugate of bin `k`.
fn is_hermitian(re: &[i32], im: &[i32], lanes: usize) -> bool {
    fn bin(planes: &[i32], k: usize, lanes: usize) -> &[i32] {
        &planes[k * lanes..(k + 1) * lanes]
    }
    let n = re.len() / lanes;
    let real = |k| bin(im, k, lanes).iter().all(|&v| v == 0);
    let mirrored = |k| {
        let negated = bin(im, n - k, lanes).iter().map(|&v| -v);
        bin(re, k, lanes) == bin(re, n - k, lanes) && bin(im, k, lanes).iter().copied().eq(negated)
    };
    real(0) && real(n / 2) && (1..n / 2).all(mirrored)
}

/// Spectral MAC of one input block's half-spectrum `xs` (bins
/// `0 ..= b/2`) against every output block: `acc[k][j] += xs[k] · K[k][j]`
/// for those bins and all output blocks `j`, each product rounded exactly
/// as [`Cpx::mul`] rounds it. `k_re`/`k_im` are the input block's
/// `[bin][out_block]` slab of the planar kernel half-spectra; the inner
/// loop runs unit-stride over `j`. Bins above `b/2` of `acc` are not
/// touched: they are the conjugates of what lands here.
fn spectral_mac(xs: &[Cpx], k_re: &[i32], k_im: &[i32], acc_re: &mut [i32], acc_im: &mut [i32]) {
    let nyquist = xs.len() - 1;
    let nb_out = k_re.len() / xs.len();
    let kernels = k_re.chunks_exact(nb_out).zip(k_im.chunks_exact(nb_out));
    let accs = acc_re
        .chunks_exact_mut(nb_out)
        .zip(acc_im.chunks_exact_mut(nb_out));
    for (k, ((x, (k_re, k_im)), (acc_re, acc_im))) in xs.iter().zip(kernels).zip(accs).enumerate() {
        let (xr, xi) = (x.re as i64, x.im as i64);
        if k == 0 || k == nyquist {
            // Both factors are real here, so `Cpx::mul`'s real part is
            // one multiply and its imaginary part is `R(0) = 0`.
            for (a_re, &kr) in acc_re.iter_mut().zip(k_re) {
                *a_re += rounding_shr(xr * kr as i64, FRAC) as i32;
            }
            continue;
        }
        let lanes = acc_re
            .iter_mut()
            .zip(acc_im.iter_mut())
            .zip(k_re.iter().zip(k_im));
        for ((a_re, a_im), (&kr, &ki)) in lanes {
            let (kr, ki) = (kr as i64, ki as i64);
            *a_re += rounding_shr(xr * kr - xi * ki, FRAC) as i32;
            *a_im += rounding_shr(xr * ki + xi * kr, FRAC) as i32;
        }
    }
}

/// The block-circulant [`Backend`].
#[derive(Debug)]
pub struct CirculantBackend {
    cfg: CirculantConfig,
    /// Forward twiddle ROM for length-`block` transforms.
    tw: Vec<Cpx>,
    memo: SpectraMemo,
}

impl Clone for CirculantBackend {
    fn clone(&self) -> Self {
        // The memo is derived state; the clone rebuilds it on demand.
        Self::new(self.cfg.clone())
    }
}

impl CirculantBackend {
    /// Wraps a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if the twiddle ROM is
    /// not mirror-symmetric (see the module docs, "Real-input symmetry").
    pub fn new(cfg: CirculantConfig) -> Self {
        cfg.validate();
        let tw = fft::twiddles(cfg.block, FRAC);
        let mirrored = |k: usize| Cpx::new(-tw[k].re, tw[k].im);
        assert!(
            tw[0].im == 0 && (1..tw.len()).all(|k| tw[tw.len() - k] == mirrored(k)),
            "twiddle ROM must be mirror-symmetric for the half-spectrum datapath"
        );
        Self {
            cfg,
            tw,
            memo: SpectraMemo::default(),
        }
    }

    /// The FTRANS-style default point.
    pub fn ftrans_default() -> Self {
        Self::new(CirculantConfig::ftrans_default())
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &CirculantConfig {
        &self.cfg
    }

    fn program<'p>(&self, prog: &'p BackendProgram) -> &'p CircProgram {
        match prog {
            BackendProgram::Circulant(p) => p,
            other => panic!(
                "circulant backend fed a foreign program ({} ops)",
                other.len()
            ),
        }
    }

    /// One FFN sublayer on the FFT unit, a row at a time: dequantize
    /// codes, one batched FFT over the input blocks, frequency-domain MAC
    /// of the half-spectra against the resident kernel store, one batched
    /// IFFT over the output blocks (each ABFT-checked), bias (+ optional
    /// ReLU), requantize with the layer's output scale.
    fn circ_layer(
        &self,
        x_codes: &Mat<i8>,
        lin: &QLinear,
        relu: bool,
        layer: u8,
        fault: Option<&CircFault>,
        report: &mut CircCheckReport,
    ) -> Mat<i8> {
        let b = self.cfg.block;
        let (d_in, d_out) = lin.weight_q().shape();
        assert_eq!(x_codes.cols(), d_in, "activation width mismatch");
        assert!(
            d_in % b == 0 && d_out % b == 0,
            "block must divide the sublayer's {d_in} x {d_out} weights"
        );
        let (nb_in, nb_out) = (d_in / b, d_out / b);
        let bins = b / 2 + 1;
        let slab = bins * nb_out;
        let tw = &self.tw[..];
        let kernels = self.memo.get(lin, b, tw);
        let in_scale = lin.in_scale();
        let out_scale = lin.out_scale();
        let tol = dc_check_tolerance(b);
        // Dequantization is a function of the code alone: one Q19.12
        // word per INT8 code, indexed by the code's bit pattern.
        let dequant: [i32; 256] =
            std::array::from_fn(|code| fx::to_fx(in_scale.dequantize(code as u8 as i8), FRAC));
        // Per-lane sums over a `[plane][lane]` array.
        let plane_sums = |planes: &[i32], sums: &mut [i64]| {
            sums.fill(0);
            for plane in planes.chunks_exact(sums.len()) {
                for (s, &v) in sums.iter_mut().zip(plane) {
                    *s += v as i64;
                }
            }
        };

        let mut out = Mat::<i8>::zeros(x_codes.rows(), d_out);
        // Input planes `[t][in_block]`, accumulator planes
        // `[bin][out_block]`: every transform below is one planar batch.
        let mut x_re = vec![0i32; d_in];
        let mut x_im = vec![0i32; d_in];
        let mut xs = vec![Cpx::ZERO; bins];
        let mut acc_re = vec![0i32; d_out];
        let mut acc_im = vec![0i32; d_out];
        let mut dc_re = vec![0i32; nb_out];
        let (mut s_re, mut s_im) = (vec![0i64; nb_out], vec![0i64; nb_out]);
        let mut time_sum = vec![0i64; nb_out];
        for r in 0..x_codes.rows() {
            // Transform: FFT every input block of this row at once.
            let codes = x_codes.row(r);
            for (t, plane) in x_re.chunks_exact_mut(nb_in).enumerate() {
                for (i, x) in plane.iter_mut().enumerate() {
                    *x = dequant[codes[i * b + t] as u8 as usize];
                }
            }
            x_im.fill(0);
            fft::fft_planes(&mut x_re, &mut x_im, nb_in, tw, FRAC);
            debug_assert!(is_hermitian(&x_re, &x_im, nb_in));
            // Accumulate: MAC each input block's half-spectrum into
            // every output block's.
            acc_re.fill(0);
            acc_im.fill(0);
            for i in 0..nb_in {
                for (k, x) in xs.iter_mut().enumerate() {
                    *x = Cpx::new(x_re[k * nb_in + i], x_im[k * nb_in + i]);
                }
                let at = i * slab..(i + 1) * slab;
                spectral_mac(
                    &xs,
                    &kernels.re[at.clone()],
                    &kernels.im[at],
                    &mut acc_re,
                    &mut acc_im,
                );
            }
            // Drain. The bins the MAC skipped are the conjugates of the
            // ones it ran; rebuild them first, so that everything from
            // here on sees the full spectra the store would hold.
            for k in 1..b / 2 {
                let (bin, mirror) = (k * nb_out..(k + 1) * nb_out, (b - k) * nb_out);
                acc_re.copy_within(bin.clone(), mirror);
                acc_im.copy_within(bin, mirror);
                for v in &mut acc_im[mirror..mirror + nb_out] {
                    *v = -*v;
                }
            }
            // ABFT checksum registers: Σ_k Y_k of the products as they
            // were written to the spectral SRAM, read before the store
            // can have been corrupted.
            plane_sums(&acc_re, &mut s_re);
            plane_sums(&acc_im, &mut s_im);
            if let Some(f) = fault {
                if f.layer == layer && f.row == r && f.out_block < nb_out {
                    acc_re[(f.bin % b) * nb_out + f.out_block] ^= 1i32 << (f.bit % 31);
                }
            }
            dc_re.copy_from_slice(&acc_re[..nb_out]);
            fft::ifft_planes(&mut acc_re, &mut acc_im, nb_out, tw, FRAC);
            // Two invariants per output block: (1) IFFT
            // self-consistency, Σ_t y_t = Y[0]; (2) the accumulation
            // checksum, b·y₀ = Σ_k Y_k (every bin contributes to y₀, so
            // a flip in *any* bin of the stored spectrum diverges from
            // the register).
            plane_sums(&acc_re, &mut time_sum);
            report.blocks_checked += nb_out as u64;
            for j in 0..nb_out {
                let (y0_re, y0_im) = (acc_re[j] as i64, acc_im[j] as i64);
                if (time_sum[j] - dc_re[j] as i64).abs() > tol
                    || (b as i64 * y0_re - s_re[j]).abs() > tol * b as i64
                    || (b as i64 * y0_im - s_im[j]).abs() > tol * b as i64
                {
                    report.violations += 1;
                }
            }
            let blocks = out.row_mut(r).chunks_exact_mut(b);
            for (j, (codes, bias)) in blocks.zip(kernels.bias_f.chunks_exact(b)).enumerate() {
                for (t, (o, &bias)) in codes.iter_mut().zip(bias).enumerate() {
                    let y = fx::to_f32(acc_re[t * nb_out + j], FRAC) + bias;
                    let y = if relu { y.max(0.0) } else { y };
                    *o = out_scale.quantize(y);
                }
            }
        }
        out
    }

    /// Structure-checks a program against the configured geometry:
    /// `Transform(1)`, all layer-1 `Accumulate`s in order, same for
    /// layer 2, then `LayerNorm`.
    fn validate_program(&self, prog: &CircProgram) {
        let d_ff = self.cfg.base.model.d_ff;
        let d_model = self.cfg.base.model.d_model;
        let b = self.cfg.block;
        let sublayer = |layer: u8, d_out: usize| {
            std::iter::once(CircOp::Transform { layer })
                .chain((0..d_out / b).map(move |block| CircOp::Accumulate { layer, block }))
        };
        let want = sublayer(1, d_ff)
            .chain(sublayer(2, d_model))
            .chain(std::iter::once(CircOp::LayerNorm));
        assert!(
            prog.ops.iter().copied().eq(want),
            "malformed circulant program"
        );
    }

    /// Executes an FFN program with the DC-bin checker active and an
    /// optional injected fault, returning the output codes and the
    /// check report. This is the entry point the fault-injection
    /// campaign drives.
    pub fn run_ffn_checked(
        &self,
        prog: &BackendProgram,
        block: &QuantFfnResBlock,
        x: &Mat<i8>,
        fault: Option<CircFault>,
    ) -> (Mat<i8>, CircCheckReport) {
        let prog = self.program(prog);
        self.validate_program(prog);
        let (w1, w2) = block.sublayers();
        let mut report = CircCheckReport::default();
        let hidden = self.circ_layer(x, w1, true, 1, fault.as_ref(), &mut report);
        let y2 = self.circ_layer(&hidden, w2, false, 2, fault.as_ref(), &mut report);
        // Residual add in the shared x code domain, then the reference
        // integer LayerNorm — identical tail to the ISA interpreter's.
        let g = Mat::from_fn(x.rows(), x.cols(), |r, c| {
            y2[(r, c)] as i32 + x[(r, c)] as i32
        });
        (block.layernorm().forward(&g), report)
    }

    /// INT16-packed spectral words the unit stores for both FFN weight
    /// matrices: `2 · d_model · d_ff / b` complex words, i.e. `b` real
    /// numbers per `b × b` block — a `b×` parameter compression over the
    /// dense `2 · d_model · d_ff` scalars. The figure is literal for the
    /// half-spectrum store: bins `0` and `b/2` hold one real number each
    /// and bins `1 .. b/2` two, `b` in all (a full-spectrum store would
    /// hold `2b`, only a `b/2×` compression).
    pub fn stored_weight_words(&self) -> usize {
        let m = &self.cfg.base.model;
        2 * m.d_model * m.d_ff / self.cfg.block
    }
}

impl Backend for CirculantBackend {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "ftrans-circulant",
            array: (self.cfg.lanes, 1),
            supports_mha: false,
            supports_ffn: true,
            exact: false,
            weight_compression: self.cfg.block as f64,
        }
    }

    /// Area: `lanes` complex-MAC butterflies (DSP-mapped), ping-pong
    /// spectra SRAM, the packed kernel-spectra store (the compressed
    /// weights), and an integer LayerNorm tail sized to `lanes` rows.
    fn area(&self) -> Resources {
        let lanes = self.cfg.lanes as f64;
        let m = &self.cfg.base.model;
        // 4 real multipliers per complex MAC, one DSP each plus shim.
        let mac = Resources::new(
            4.0 * lanes * area::LUT_PER_DSP_PE,
            4.0 * lanes * area::FF_PER_DSP_PE,
            0.0,
            4.0 * lanes,
        );
        let widest = m.d_model.max(m.d_ff) as u64;
        // double-buffered activation spectra (re+im, 32 bit each)
        let spectra = MemorySpec::new(widest, 64).bram36_blocks() * 2.0;
        // kernel store: INT16-packed complex spectra for both layers
        let kernels = MemorySpec::new(self.stored_weight_words() as u64, 32).bram36_blocks();
        let sram = Resources::new(0.0, 0.0, spectra + kernels, 0.0);
        let tail = Resources::new(
            lanes * (area::LUT_PER_LN_LANE + area::MISC_LUT_PER_ROW),
            lanes * (area::FF_PER_LN_LANE + area::MISC_FF_PER_ROW),
            lanes * area::MISC_BRAM_PER_ROW,
            0.0,
        );
        mac + sram + tail
    }

    fn lower_mha(&self, _g: &Graph, _s_kv: usize) -> BackendProgram {
        panic!("circulant backend is FFN-only (caps().supports_mha == false)");
    }

    /// Lowers the shared [`graph::ffn_graph`] — the walk mirrors
    /// [`crate::exec::lower_ffn`] node for node.
    fn lower_ffn(&self, g: &Graph) -> BackendProgram {
        assert_eq!(g.kind, GraphKind::Ffn, "lower_ffn lowers the FFN graph");
        assert_eq!(
            g.cfg.d_model, self.cfg.base.model.d_model,
            "d_model mismatch"
        );
        assert_eq!(g.cfg.d_ff, self.cfg.base.model.d_ff, "d_ff mismatch");
        let b = self.cfg.block;
        let mut ops = Vec::new();
        for node in &g.nodes {
            match node.op {
                Op::Linear(WeightId::W1) | Op::LinearRelu(WeightId::W1) => {
                    ops.push(CircOp::Transform { layer: 1 });
                    ops.extend(
                        (0..g.cfg.d_ff / b).map(|j| CircOp::Accumulate { layer: 1, block: j }),
                    );
                }
                // ReLU/residual ride the requantize pipeline after each
                // IFFT; no scheduled op (same fusion as the ISA path).
                Op::Relu | Op::Add => {}
                Op::Linear(WeightId::W2) | Op::LinearAdd(WeightId::W2) => {
                    ops.push(CircOp::Transform { layer: 2 });
                    ops.extend(
                        (0..g.cfg.d_model / b).map(|j| CircOp::Accumulate { layer: 2, block: j }),
                    );
                }
                Op::LayerNorm => ops.push(CircOp::LayerNorm),
                ref other => panic!("{other:?} is not part of the FFN dataflow"),
            }
        }
        BackendProgram::Circulant(CircProgram { ops })
    }

    fn cycles(&self, prog: &BackendProgram, _s_kv: usize) -> u64 {
        let s = self.cfg.base.s as u64;
        let b = self.cfg.block as u64;
        let lanes = self.cfg.lanes as u64;
        let d_model = self.cfg.base.model.d_model as u64;
        let d_ff = self.cfg.base.model.d_ff as u64;
        let log2b = b.trailing_zeros() as u64;
        let fft_ops = b / 2 * log2b; // butterflies per length-b transform
        let in_blocks = |layer: u8| match layer {
            1 => d_model / b,
            _ => d_ff / b,
        };
        self.program(prog)
            .ops
            .iter()
            .map(|op| match *op {
                CircOp::Transform { layer } => (s * in_blocks(layer) * fft_ops).div_ceil(lanes),
                CircOp::Accumulate { layer, .. } => {
                    // spectral MACs + one IFFT + the bias/requant drain
                    (s * (in_blocks(layer) * b + fft_ops + b)).div_ceil(lanes)
                }
                CircOp::LayerNorm => {
                    let passes = (s).div_ceil(lanes);
                    passes
                        * (d_model
                            + layernorm_module::total_tail(
                                self.cfg.base.sched.layernorm,
                                d_model as usize,
                            )
                            .get())
                }
            })
            .sum()
    }

    fn run_mha(
        &self,
        _prog: &BackendProgram,
        _block: &QuantMhaResBlock,
        _xq: &Mat<i8>,
        _xkv: &Mat<i8>,
        _mask: Option<&Mat<bool>>,
    ) -> Mat<i8> {
        panic!("circulant backend is FFN-only (caps().supports_mha == false)");
    }

    fn run_ffn(&self, prog: &BackendProgram, block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8> {
        let (y, report) = self.run_ffn_checked(prog, block, x, None);
        assert_eq!(
            report.violations, 0,
            "DC-bin check must pass on a fault-free run"
        );
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixedmath::quant::QuantParams;
    use graph::ffn_graph;
    use proptest::prelude::*;
    use quantized::sqnr::sqnr_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use transformer::config::ModelConfig;
    use transformer::linear::Linear;

    // ---- The pre-memo datapath, frozen as the reference ---------------
    //
    // Kernel spectra re-derived on every call into a nested store, one
    // allocating FFT per block, and a scalar `Cpx::mul` MAC that walks
    // one output block at a time while summing the checksum register
    // product by product. The fast path must equal it bit for bit.

    fn reference_kernel_spectra(b: usize, lin: &QLinear, tw: &[Cpx]) -> Vec<Vec<Vec<Cpx>>> {
        let wq = lin.weight_q();
        let w_f = Mat::from_fn(wq.rows(), wq.cols(), |r, c| {
            wq[(r, c)] as f32 * lin.w_scale_of(c).scale()
        });
        (0..wq.rows() / b)
            .map(|i| {
                (0..wq.cols() / b)
                    .map(|j| {
                        let c = project_block(&w_f, i * b, j * b, b);
                        let c_fx: Vec<i32> = c.iter().map(|&v| fx::to_fx(v, FRAC)).collect();
                        fft::fft_real(&c_fx, tw, FRAC)
                    })
                    .collect()
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_circ_layer(
        b: usize,
        x_codes: &Mat<i8>,
        lin: &QLinear,
        relu: bool,
        tw: &[Cpx],
        layer: u8,
        fault: Option<&CircFault>,
        report: &mut CircCheckReport,
    ) -> Mat<i8> {
        let d_in = lin.weight_q().rows();
        let d_out = lin.weight_q().cols();
        assert_eq!(x_codes.cols(), d_in, "activation width mismatch");
        let nb_in = d_in / b;
        let nb_out = d_out / b;
        let spec = reference_kernel_spectra(b, lin, tw);
        let in_scale = lin.in_scale();
        let out_scale = lin.out_scale();
        let bias_f: Vec<f32> = (0..d_out)
            .map(|c| lin.bias_q()[c] as f32 * in_scale.scale() * lin.w_scale_of(c).scale())
            .collect();
        let tol = dc_check_tolerance(b);

        let mut out = Mat::<i8>::zeros(x_codes.rows(), d_out);
        let mut x_spec: Vec<Vec<Cpx>> = Vec::with_capacity(nb_in);
        for r in 0..x_codes.rows() {
            x_spec.clear();
            for i in 0..nb_in {
                let blk: Vec<i32> = (0..b)
                    .map(|t| fx::to_fx(in_scale.dequantize(x_codes[(r, i * b + t)]), FRAC))
                    .collect();
                x_spec.push(fft::fft_real(&blk, tw, FRAC));
            }
            #[allow(clippy::needless_range_loop)]
            for j in 0..nb_out {
                let mut acc = vec![Cpx::ZERO; b];
                let (mut s_re, mut s_im) = (0i64, 0i64);
                for (i, xs) in x_spec.iter().enumerate() {
                    for (k, a) in acc.iter_mut().enumerate() {
                        let p = xs[k].mul(spec[i][j][k], FRAC);
                        *a = *a + p;
                        s_re += p.re as i64;
                        s_im += p.im as i64;
                    }
                }
                if let Some(f) = fault {
                    if f.layer == layer && f.row == r && f.out_block == j {
                        acc[f.bin % b].re ^= 1i32 << (f.bit % 31);
                    }
                }
                let dc = acc[0];
                fft::ifft_in_place(&mut acc, tw, FRAC);
                let time_sum: i64 = acc.iter().map(|v| v.re as i64).sum();
                let y0 = acc[0];
                report.blocks_checked += 1;
                if (time_sum - dc.re as i64).abs() > tol
                    || (b as i64 * y0.re as i64 - s_re).abs() > tol * b as i64
                    || (b as i64 * y0.im as i64 - s_im).abs() > tol * b as i64
                {
                    report.violations += 1;
                }
                for (t, v) in acc.iter().enumerate() {
                    let col = j * b + t;
                    let y = fx::to_f32(v.re, FRAC) + bias_f[col];
                    let y = if relu { y.max(0.0) } else { y };
                    out[(r, col)] = out_scale.quantize(y);
                }
            }
        }
        out
    }

    fn reference_run_ffn_checked(
        b: usize,
        block: &QuantFfnResBlock,
        x: &Mat<i8>,
        fault: Option<CircFault>,
    ) -> (Mat<i8>, CircCheckReport) {
        let (w1, w2) = block.sublayers();
        let tw = fft::twiddles(b, FRAC);
        let mut report = CircCheckReport::default();
        let f = fault.as_ref();
        let hidden = reference_circ_layer(b, x, w1, true, &tw, 1, f, &mut report);
        let y2 = reference_circ_layer(b, &hidden, w2, false, &tw, 2, f, &mut report);
        let g = Mat::from_fn(x.rows(), x.cols(), |r, c| {
            y2[(r, c)] as i32 + x[(r, c)] as i32
        });
        (block.layernorm().forward(&g), report)
    }

    // ---- Fixtures ------------------------------------------------------

    fn tiny_backend() -> CirculantBackend {
        tiny_backend_at(8)
    }

    fn tiny_backend_at(block: usize) -> CirculantBackend {
        let mut base = AccelConfig::paper_default();
        base.model = ModelConfig::tiny_for_tests();
        base.s = 8;
        CirculantBackend::new(CirculantConfig {
            base,
            block,
            lanes: 4,
        })
    }

    /// A quantized FFN whose float weights are exactly block-circulant
    /// (the FTRANS training regime), plus a quantized test input.
    fn circulant_fixture() -> (QuantFfnResBlock, Mat<i8>, Mat<f32>) {
        fixture(&ModelConfig::tiny_for_tests(), 8, 0xC1)
    }

    /// A circulantized, quantized FFN of `cfg`'s shape with an `s`-row
    /// input, all drawn from `seed`.
    fn fixture(cfg: &ModelConfig, s: usize, seed: u64) -> (QuantFfnResBlock, Mat<i8>, Mat<f32>) {
        fixture_at(cfg, s, seed, 8)
    }

    /// [`fixture`] with `b × b` circulant blocks.
    fn fixture_at(
        cfg: &ModelConfig,
        s: usize,
        seed: u64,
        b: usize,
    ) -> (QuantFfnResBlock, Mat<i8>, Mat<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = FfnResBlock::new(cfg, &mut rng);
        circulantize_ffn(&mut block, b);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
            .collect();
        let q = QuantFfnResBlock::from_f32(&block, &calib);
        let x = calib[0].clone();
        let xq = q.quantize_input(&x);
        (q, xq, x)
    }

    /// The paper's evaluation point: 512/2048 at `s = 64`, one backend
    /// (so its memo is warm after the first test that runs).
    fn paper_point() -> &'static (CirculantBackend, BackendProgram, QuantFfnResBlock, Mat<i8>) {
        static POINT: OnceLock<(CirculantBackend, BackendProgram, QuantFfnResBlock, Mat<i8>)> =
            OnceLock::new();
        POINT.get_or_init(|| {
            let be = CirculantBackend::ftrans_default();
            let cfg = be.config().base.model.clone();
            let (q, xq, _) = fixture(&cfg, be.config().base.s, 0xC2);
            let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
            (be, prog, q, xq)
        })
    }

    /// The tiny shape at block size `b`: backend, lowered program, a
    /// block circulantized at `b` and its input.
    fn tiny_point(b: usize) -> (CirculantBackend, BackendProgram, QuantFfnResBlock, Mat<i8>) {
        let be = tiny_backend_at(b);
        let (q, xq, _) = fixture_at(&ModelConfig::tiny_for_tests(), 8, 0xC3, b);
        let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
        (be, prog, q, xq)
    }

    fn tiny_linear(seed: u64) -> QLinear {
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new("t", 16, 24, &mut rng);
        QLinear::from_f32(&lin, QuantParams::new(0.05), QuantParams::new(0.1))
    }

    #[test]
    fn projection_is_identity_on_circulant_blocks() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = tensor::init::normal(&mut rng, 16, 16, 1.0);
        let proj = project_circulant(&w, 8);
        let again = project_circulant(&proj, 8);
        for (a, b) in proj.as_slice().iter().zip(again.as_slice()) {
            assert!((a - b).abs() < 1e-6, "projection must be idempotent");
        }
    }

    #[test]
    fn lowering_walks_the_shared_ffn_graph() {
        let be = tiny_backend();
        let g = ffn_graph(&graph::GraphConfig {
            d_model: 32,
            d_ff: 64,
            h: 1,
        });
        let BackendProgram::Circulant(p) = be.lower_ffn(&g) else {
            panic!("wrong program kind")
        };
        // golden structure: T1, 8 accumulates, T2, 4 accumulates, LN
        assert_eq!(p.ops.len(), 1 + 8 + 1 + 4 + 1);
        assert_eq!(p.ops[0], CircOp::Transform { layer: 1 });
        assert_eq!(p.ops[9], CircOp::Transform { layer: 2 });
        assert_eq!(*p.ops.last().unwrap(), CircOp::LayerNorm);
        be.validate_program(&p);
    }

    #[test]
    fn tracks_reference_within_documented_sqnr_on_circulant_weights() {
        let be = tiny_backend();
        let (q, xq, _) = circulant_fixture();
        let g = ffn_graph(&q.graph_config());
        let prog = be.lower_ffn(&g);
        let got = be.run_ffn(&prog, &q, &xq);
        let (want, _) = q.forward(&xq);
        let sq = sqnr_db(&q.dequantize_output(&want), &q.dequantize_output(&got));
        assert!(
            sq >= CIRC_SQNR_FLOOR_DB,
            "SQNR {sq:.1} dB below the documented {CIRC_SQNR_FLOOR_DB} dB floor"
        );
    }

    #[test]
    fn dc_checker_is_quiet_on_clean_runs_and_counts_every_block() {
        let be = tiny_backend();
        let (q, xq, _) = circulant_fixture();
        let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
        let (_, report) = be.run_ffn_checked(&prog, &q, &xq, None);
        assert_eq!(report.violations, 0);
        // rows × (d_ff/b + d_model/b) = 8 × (8 + 4)
        assert_eq!(report.blocks_checked, 8 * 12);
    }

    #[test]
    fn dc_checker_detects_injected_spectral_flips() {
        let be = tiny_backend();
        let (q, xq, _) = circulant_fixture();
        let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
        // Every bin: outside DC the IFFT identity cannot see the flip
        // (neither Y[0] nor Σ_t y_t moves), so detection there is the
        // accumulation-checksum register diverging from the corrupted
        // store — it must have been latched before the flip.
        for layer in [1u8, 2] {
            for bin in 0..8 {
                let fault = CircFault {
                    layer,
                    row: 2,
                    out_block: 1,
                    bin,
                    bit: 17,
                };
                let (_, report) = be.run_ffn_checked(&prog, &q, &xq, Some(fault));
                assert_eq!(
                    report.violations, 1,
                    "flip in layer {layer} bin {bin} escaped the checks"
                );
            }
        }
    }

    // ---- Fast path vs the frozen reference ----------------------------

    #[test]
    fn planar_spectra_and_bias_equal_the_nested_reference() {
        let (tiny, ..) = circulant_fixture();
        let (_, _, paper, _) = paper_point();
        for q in [&tiny, paper] {
            let tw = fft::twiddles(8, FRAC);
            for lin in [q.sublayers().0, q.sublayers().1] {
                let got = KernelSpectra::build(lin, 8, &tw);
                let want = reference_kernel_spectra(8, lin, &tw);
                let nb_out = want[0].len();
                for (i, row) in want.iter().enumerate() {
                    for (j, spectrum) in row.iter().enumerate() {
                        for (k, v) in spectrum.iter().enumerate() {
                            // Bins 0..=4 are stored; 5..8 are what the
                            // drain rebuilds, the conjugates of 3..=1.
                            let at = (i * 5 + k.min(8 - k)) * nb_out + j;
                            let stored = Cpx::new(got.re[at], got.im[at]);
                            let bin = if k > 4 { stored.conj() } else { stored };
                            assert_eq!(bin, *v, "({i},{j},{k})");
                        }
                    }
                }
                assert!(got.is_for(lin));
            }
        }
    }

    #[test]
    fn clean_runs_equal_the_frozen_reference() {
        let (q, xq, _) = circulant_fixture();
        let be = tiny_backend();
        let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
        assert_eq!(
            be.run_ffn_checked(&prog, &q, &xq, None),
            reference_run_ffn_checked(8, &q, &xq, None)
        );
        let (be, prog, q, xq) = paper_point();
        let want = reference_run_ffn_checked(8, q, xq, None);
        // cold (derives the spectra) and warm (resident) runs alike
        assert_eq!(be.run_ffn_checked(prog, q, xq, None), want);
        assert_eq!(be.run_ffn_checked(prog, q, xq, None), want);
        assert_eq!(want.1.violations, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn faulted_runs_equal_the_frozen_reference_on_the_tiny_shape(
            layer in 1u8..=2, row in 0usize..8, out_block in 0usize..8,
            bin in 0usize..16, bit in 0u32..40,
        ) {
            let (q, xq, _) = circulant_fixture();
            let be = tiny_backend();
            let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
            // (layer 2 has 4 output blocks: the upper half never fires,
            // which must also agree)
            let fault = Some(CircFault { layer, row, out_block, bin, bit });
            prop_assert_eq!(
                be.run_ffn_checked(&prog, &q, &xq, fault),
                reference_run_ffn_checked(8, &q, &xq, fault)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn faulted_runs_equal_the_frozen_reference_at_the_paper_point(
            layer in 1u8..=2, row in 0usize..64, out_block in 0usize..64,
            bin in 0usize..8, bit in 0u32..31,
        ) {
            let (be, prog, q, xq) = paper_point();
            let fault = Some(CircFault { layer, row, out_block, bin, bit });
            prop_assert_eq!(
                be.run_ffn_checked(prog, q, xq, fault),
                reference_run_ffn_checked(8, q, xq, fault)
            );
        }
    }

    // ---- Other block sizes: b = 2 has no complex bin at all, b = 4 one,
    // b = 16 seven -------------------------------------------------------

    #[test]
    fn clean_runs_equal_the_frozen_reference_at_every_block_size() {
        for b in [2, 4, 16] {
            let (be, prog, q, xq) = tiny_point(b);
            let want = reference_run_ffn_checked(b, &q, &xq, None);
            assert_eq!(be.run_ffn_checked(&prog, &q, &xq, None), want, "b = {b}");
            assert_eq!(want.1.violations, 0, "b = {b}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn faulted_runs_equal_the_frozen_reference_at_every_block_size(
            size in 0usize..3, layer in 1u8..=2, row in 0usize..8,
            out_block in 0usize..32, bin in 0usize..32, bit in 0u32..40,
        ) {
            // (out_block and bin overshoot the smaller geometries: a
            // block that does not exist never fires, a bin wraps)
            let b = [2, 4, 16][size];
            let (be, prog, q, xq) = tiny_point(b);
            let fault = Some(CircFault { layer, row, out_block, bin, bit });
            prop_assert_eq!(
                be.run_ffn_checked(&prog, &q, &xq, fault),
                reference_run_ffn_checked(b, &q, &xq, fault)
            );
        }
    }

    #[test]
    fn hermitian_check_rejects_each_way_a_spectrum_can_break() {
        // Two lanes of a length-4 spectrum, `[bin][lane]`.
        let re = [5, -3, 2, 7, 9, 1, 2, 7];
        let im = [0, 0, 4, -6, 0, 0, -4, 6];
        assert!(is_hermitian(&re, &im, 2));
        for (at, in_re) in [(0, false), (5, false), (6, true), (7, false)] {
            let (mut re, mut im) = (re, im);
            if in_re {
                re[at] += 1
            } else {
                im[at] += 1
            }
            assert!(!is_hermitian(&re, &im, 2), "missed [{at}] (re: {in_re})");
        }
    }

    // ---- The memo ------------------------------------------------------

    #[test]
    fn alternating_blocks_each_get_their_own_result() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qa, xa, _) = fixture(&cfg, 8, 0xA);
        let (qb, xb, _) = fixture(&cfg, 8, 0xB);
        let be = tiny_backend();
        let prog = be.lower_ffn(&ffn_graph(&qa.graph_config()));
        let want_a = tiny_backend().run_ffn(&prog, &qa, &xa);
        let want_b = tiny_backend().run_ffn(&prog, &qb, &xb);
        assert_ne!(want_a, want_b);
        for _ in 0..3 {
            assert_eq!(be.run_ffn(&prog, &qa, &xa), want_a);
            assert_eq!(be.run_ffn(&prog, &qb, &xb), want_b);
        }
        // two sublayers of two blocks, each derived once
        assert_eq!(be.memo.len(), 4);
    }

    #[test]
    fn a_one_code_weight_change_misses() {
        let mut rng = StdRng::seed_from_u64(0x1C);
        let w = tensor::init::normal(&mut rng, 16, 24, 1.0);
        let (in_scale, out_scale) = (QuantParams::new(0.05), QuantParams::new(0.1));
        let quantize = |w: &Mat<f32>| {
            let lin = Linear::from_parts("t", w.clone(), vec![0.25; 24]);
            QLinear::from_f32(&lin, in_scale, out_scale)
        };
        let a = quantize(&w);
        // Nudge one non-extreme weight by two quantization steps: the
        // tensor scale (set by the largest |w|) stays put.
        let mut w2 = w.clone();
        w2[(3, 5)] += 2.0 * a.w_scale().scale() * if w[(3, 5)] > 0.0 { -1.0 } else { 1.0 };
        let b = quantize(&w2);
        let differing = a
            .weight_q()
            .as_slice()
            .iter()
            .zip(b.weight_q().as_slice())
            .filter(|(x, y)| x != y)
            .count();
        assert_eq!(differing, 1);
        assert_eq!(a.w_scale(), b.w_scale());

        let be = tiny_backend();
        let for_a = be.memo.get(&a, 8, &be.tw);
        let for_b = be.memo.get(&b, 8, &be.tw);
        assert!(!Arc::ptr_eq(&for_a, &for_b), "changed weights must miss");
        assert_ne!(for_a.re, for_b.re);
        assert!(
            Arc::ptr_eq(&for_a, &be.memo.get(&a, 8, &be.tw)),
            "same weights must hit"
        );
        assert_eq!(be.memo.len(), 2);
        // Scales and bias are part of the key too.
        let lin = Linear::from_parts("t", w.clone(), vec![0.5; 24]);
        let other_bias = QLinear::from_f32(&lin, in_scale, out_scale);
        let lin = Linear::from_parts("t", w, vec![0.25; 24]);
        let other_scale = QLinear::from_f32(&lin, QuantParams::new(0.06), out_scale);
        assert!(!for_a.is_for(&other_bias));
        assert!(!for_a.is_for(&other_scale));
    }

    #[test]
    fn a_clone_starts_with_an_empty_memo() {
        let be = tiny_backend();
        let (q, xq, _) = circulant_fixture();
        let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
        let want = be.run_ffn(&prog, &q, &xq);
        assert_eq!(be.memo.len(), 2);
        let cloned = be.clone();
        assert_eq!(cloned.memo.len(), 0);
        assert_eq!(cloned.run_ffn(&prog, &q, &xq), want);
        assert_eq!(be.memo.len(), 2);
    }

    #[test]
    fn memo_stays_bounded_and_evicts_the_least_recently_used() {
        let be = tiny_backend();
        let lins: Vec<QLinear> = (0..SPECTRA_MEMO_CAP as u64 + 3).map(tiny_linear).collect();
        let first = be.memo.get(&lins[0], 8, &be.tw);
        for lin in &lins[1..SPECTRA_MEMO_CAP] {
            be.memo.get(lin, 8, &be.tw);
        }
        // Touch the oldest, then overflow: the untouched ones go first.
        assert!(Arc::ptr_eq(&first, &be.memo.get(&lins[0], 8, &be.tw)));
        for lin in &lins[SPECTRA_MEMO_CAP..] {
            be.memo.get(lin, 8, &be.tw);
            assert_eq!(be.memo.len(), SPECTRA_MEMO_CAP);
        }
        assert!(Arc::ptr_eq(&first, &be.memo.get(&lins[0], 8, &be.tw)));
        assert!(!be.memo.0.lock().unwrap().iter().any(|e| e.is_for(&lins[1])));
    }

    #[test]
    fn compression_ratio_matches_block_size() {
        let be = tiny_backend();
        assert_eq!(be.caps().weight_compression, 8.0);
        let dense = 2 * 32 * 64;
        assert_eq!(be.stored_weight_words() * 8, dense);
    }

    #[test]
    #[should_panic(expected = "FFN-only")]
    fn mha_lowering_rejected() {
        let be = tiny_backend();
        let g = graph::mha_graph(&graph::GraphConfig {
            d_model: 32,
            d_ff: 0,
            h: 4,
        });
        let _ = be.lower_mha(&g, 8);
    }
}
