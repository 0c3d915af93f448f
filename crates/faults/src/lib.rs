//! Deterministic fault injection and ABFT checking for the accelerator.
//!
//! Real deployments of the paper's accelerator keep weights resident in
//! on-chip SRAM and stream activations through a systolic datapath —
//! exactly the structures single-event upsets corrupt. This crate models
//! that failure mode *deterministically*: a [`FaultPlan`] is a seeded,
//! reproducible list of [`FaultEvent`]s, each addressing a physical
//! [`FaultSite`] (a weight-SRAM word on a given GEMM pass, an
//! accumulator register, a softmax or LayerNorm datapath value) with a
//! [`FaultKind`] (single/multi bit flip or stuck-at). Replaying the same
//! plan against the same workload corrupts the same bits — which is what
//! makes fault-tolerance machinery testable at all.
//!
//! Two consumption styles:
//!
//! * **Per-engine** — `accel::ArrayEngine` owns an [`Injector`] directly
//!   and addresses events by its private pass/call counters. Race-free,
//!   used by unit tests and the golden-model cross-check.
//! * **Global** — the serving decode path flows through
//!   `quantized::QLinear`, whose call sites cannot thread an injector
//!   handle; [`install`] publishes a process-wide injector addressed by
//!   a global GEMM-pass counter. The decode loop is deterministic when
//!   `ACCEL_THREADS=1` (all `QLinear` forwards run on the caller
//!   thread), which is how the CI fault matrix pins it.
//!
//! The hooks are **zero-cost when off**: every instrumented hot path
//! gates on [`hooks_active`] (one relaxed atomic load) and the checker
//! never modifies values, so fault-free runs — checker on or off — stay
//! bit-identical to an uninstrumented build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Mat;

pub mod abft;

/// How a fault corrupts the word at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit (`bit` is taken modulo the word width).
    BitFlip {
        /// Bit position to flip.
        bit: u8,
    },
    /// XOR an arbitrary mask into the word (masked to the word width).
    MultiBitFlip {
        /// Bits to flip.
        mask: u32,
    },
    /// Force one bit to a fixed value (`bit` modulo the word width).
    StuckAt {
        /// Bit position to pin.
        bit: u8,
        /// The value the bit is stuck at.
        value: bool,
    },
}

impl FaultKind {
    /// Applies the fault to a `width`-bit word (width ≤ 32).
    pub(crate) fn apply_word(self, word: u32, width: u32) -> u32 {
        debug_assert!((1..=32).contains(&width));
        let keep = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        match self {
            FaultKind::BitFlip { bit } => word ^ (1 << (bit as u32 % width)),
            FaultKind::MultiBitFlip { mask } => word ^ (mask & keep),
            FaultKind::StuckAt { bit, value } => {
                let b = 1u32 << (bit as u32 % width);
                if value {
                    word | b
                } else {
                    word & !b
                }
            }
        }
    }

    /// Applies the fault to an 8-bit storage word (weight SRAM, softmax
    /// probability codes).
    pub fn apply_i8(self, v: i8) -> i8 {
        self.apply_word(v as u8 as u32, 8) as u8 as i8
    }

    /// Applies the fault to a 32-bit register (accumulators, LayerNorm
    /// residual sums).
    pub fn apply_i32(self, v: i32) -> i32 {
        self.apply_word(v as u32, 32) as i32
    }
}

/// The physical location a fault strikes.
///
/// GEMM-adjacent sites are addressed by a monotonically increasing
/// *pass index* (which GEMM pass through the array), softmax/LayerNorm
/// sites by a per-module *call index*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A weight-SRAM word: the resident `B` tile of GEMM pass `pass`,
    /// word `(row, col)`. Out-of-range coordinates are silently inert
    /// (the plan addressed SRAM beyond this tile's extent).
    WeightSram {
        /// GEMM pass index.
        pass: u64,
        /// Weight-tile row (the `k` dimension).
        row: usize,
        /// Weight-tile column.
        col: usize,
    },
    /// A drained accumulator register of GEMM pass `pass`.
    Accumulator {
        /// GEMM pass index.
        pass: u64,
        /// Output row.
        row: usize,
        /// Output column.
        col: usize,
    },
    /// A probability code leaving the softmax module on its `call`-th
    /// invocation.
    SoftmaxValue {
        /// Softmax-module call index.
        call: u64,
        /// Row of the probability tile.
        row: usize,
        /// Column of the probability tile.
        col: usize,
    },
    /// A 32-bit residual-sum word entering the LayerNorm module on its
    /// `call`-th invocation.
    LayerNormValue {
        /// LayerNorm-module call index.
        call: u64,
        /// Row of the residual tile.
        row: usize,
        /// Column of the residual tile.
        col: usize,
    },
}

/// One scheduled fault: a site plus the corruption applied there. The
/// event fires every time its site is visited (stuck-at semantics come
/// for free; a `BitFlip` that fires once is the common single-event
/// upset because each pass/call index is visited exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// How it corrupts the word.
    pub kind: FaultKind,
}

/// Site classes a seeded plan may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Weight-SRAM words.
    WeightSram,
    /// Accumulator registers.
    Accumulator,
    /// Softmax output values.
    SoftmaxValue,
    /// LayerNorm input values.
    LayerNormValue,
}

/// The sampling space for [`FaultPlan::seeded`].
#[derive(Debug, Clone)]
pub struct FaultSpace {
    /// First pass/call index eligible for faults.
    pub index_lo: u64,
    /// One past the last eligible index.
    pub index_hi: u64,
    /// Row extent sampled for matrix sites.
    pub rows: usize,
    /// Column extent sampled for matrix sites.
    pub cols: usize,
    /// Which site classes to draw from (must be non-empty).
    pub classes: Vec<SiteClass>,
}

/// A reproducible schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events: hooks run but nothing is ever corrupted.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A plan from an explicit event list.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// Draws `n` single-bit-flip events uniformly from `space` using a
    /// seeded generator. The same `(seed, n, space)` triple always
    /// yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `space.classes` is empty or `index_lo >= index_hi`.
    pub fn seeded(seed: u64, n: usize, space: &FaultSpace) -> Self {
        assert!(!space.classes.is_empty(), "fault space has no site classes");
        assert!(space.index_lo < space.index_hi, "empty fault index range");
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..n)
            .map(|_| {
                let class = space.classes[rng.random_range(0..space.classes.len())];
                let index = rng.random_range(space.index_lo..space.index_hi);
                let row = rng.random_range(0..space.rows.max(1));
                let col = rng.random_range(0..space.cols.max(1));
                let site = match class {
                    SiteClass::WeightSram => FaultSite::WeightSram {
                        pass: index,
                        row,
                        col,
                    },
                    SiteClass::Accumulator => FaultSite::Accumulator {
                        pass: index,
                        row,
                        col,
                    },
                    SiteClass::SoftmaxValue => FaultSite::SoftmaxValue {
                        call: index,
                        row,
                        col,
                    },
                    SiteClass::LayerNormValue => FaultSite::LayerNormValue {
                        call: index,
                        row,
                        col,
                    },
                };
                let kind = FaultKind::BitFlip {
                    bit: rng.random_range(0u32..32) as u8,
                };
                FaultEvent { site, kind }
            })
            .collect();
        Self { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Stateful fault injector: a [`FaultPlan`] plus the pass/call
/// counters that resolve its site addresses as execution advances.
#[derive(Debug, Clone)]
pub struct Injector {
    plan: FaultPlan,
    passes: u64,
    softmax_calls: u64,
    layernorm_calls: u64,
}

impl Injector {
    /// Wraps a plan with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            passes: 0,
            softmax_calls: 0,
            layernorm_calls: 0,
        }
    }

    /// Claims the next GEMM pass index.
    pub fn begin_pass(&mut self) -> u64 {
        let p = self.passes;
        self.passes += 1;
        p
    }

    /// GEMM passes counted so far.
    pub fn passes_seen(&self) -> u64 {
        self.passes
    }

    /// Weight-SRAM events scheduled for `pass` as `(row, col, kind)`.
    /// Read-only: callers that cannot mutate the shared weight tile
    /// apply these as accumulator deltas.
    pub fn weight_events(&self, pass: u64) -> Vec<(usize, usize, FaultKind)> {
        self.plan
            .events
            .iter()
            .filter_map(|e| match e.site {
                FaultSite::WeightSram { pass: p, row, col } if p == pass => {
                    Some((row, col, e.kind))
                }
                _ => None,
            })
            .collect()
    }

    /// Corrupts the resident weight tile for `pass` in place; returns
    /// the number of faults that landed in range.
    pub fn corrupt_weights(&mut self, pass: u64, tile: &mut Mat<i8>) -> usize {
        let mut hit = 0;
        for (row, col, kind) in self.weight_events(pass) {
            if row < tile.rows() && col < tile.cols() {
                tile[(row, col)] = kind.apply_i8(tile[(row, col)]);
                hit += 1;
            }
        }
        hit
    }

    /// Corrupts drained accumulator registers for `pass` in place.
    pub fn corrupt_acc(&mut self, pass: u64, acc: &mut Mat<i32>) -> usize {
        let mut hit = 0;
        for e in &self.plan.events {
            if let FaultSite::Accumulator { pass: p, row, col } = e.site {
                if p == pass && row < acc.rows() && col < acc.cols() {
                    acc[(row, col)] = e.kind.apply_i32(acc[(row, col)]);
                    hit += 1;
                }
            }
        }
        hit
    }

    /// Claims the next softmax-module call and corrupts its output
    /// probability codes in place.
    pub fn corrupt_softmax(&mut self, probs: &mut Mat<i8>) -> usize {
        let call = self.softmax_calls;
        self.softmax_calls += 1;
        let mut hit = 0;
        for e in &self.plan.events {
            if let FaultSite::SoftmaxValue { call: c, row, col } = e.site {
                if c == call && row < probs.rows() && col < probs.cols() {
                    probs[(row, col)] = e.kind.apply_i8(probs[(row, col)]);
                    hit += 1;
                }
            }
        }
        hit
    }

    /// Claims the next LayerNorm-module call and corrupts its 32-bit
    /// residual-sum inputs in place.
    pub fn corrupt_layernorm(&mut self, g: &mut Mat<i32>) -> usize {
        let call = self.layernorm_calls;
        self.layernorm_calls += 1;
        let mut hit = 0;
        for e in &self.plan.events {
            if let FaultSite::LayerNormValue { call: c, row, col } = e.site {
                if c == call && row < g.rows() && col < g.cols() {
                    g[(row, col)] = e.kind.apply_i32(g[(row, col)]);
                    hit += 1;
                }
            }
        }
        hit
    }

    /// One serving-path GEMM pass: claims a pass index, applies its
    /// weight-SRAM events as accumulator deltas (the shared weight
    /// matrix is immutable, but `acc[r][c] += x[r][t] · (flip(w[t][c]) −
    /// w[t][c])` is arithmetically identical to having run the GEMM
    /// against the corrupted word), then corrupts accumulator registers.
    /// Returns the number of faults injected.
    pub fn apply_gemm_pass(&mut self, x: &Mat<i8>, w: &Mat<i8>, acc: &mut Mat<i32>) -> usize {
        let pass = self.begin_pass();
        let mut hit = 0;
        for (t, c, kind) in self.weight_events(pass) {
            if t < w.rows() && c < w.cols() {
                let delta = kind.apply_i8(w[(t, c)]) as i32 - w[(t, c)] as i32;
                if delta != 0 {
                    for r in 0..acc.rows() {
                        acc[(r, c)] += x[(r, t)] as i32 * delta;
                    }
                }
                hit += 1;
            }
        }
        hit + self.corrupt_acc(pass, acc)
    }
}

// ---------------------------------------------------------------------
// Global controller: the serving decode path's process-wide injector,
// checker switch, and detection counters.
// ---------------------------------------------------------------------

static PLAN_ACTIVE: AtomicBool = AtomicBool::new(false);
/// 0 = follow the `ACCEL_ABFT` env var, 1 = forced off, 2 = forced on.
static CHECKER_STATE: AtomicU8 = AtomicU8::new(0);
static CHECKED: AtomicU64 = AtomicU64::new(0);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static DETECTED: AtomicU64 = AtomicU64::new(0);

fn global_injector() -> &'static Mutex<Option<Injector>> {
    static CELL: OnceLock<Mutex<Option<Injector>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

fn env_checker() -> bool {
    // Parsing consolidated in `tensor::envcfg` with the other ACCEL_*
    // variables; the in-process `set_checker` override layers on top.
    tensor::envcfg::abft_env()
}

/// The seed from `ACCEL_FAULT_SEED`, if set to a parseable `u64`.
pub fn env_seed() -> Option<u64> {
    tensor::envcfg::fault_seed()
}

/// Installs `plan` as the process-wide injector (fresh counters) and
/// activates the hooks. Use [`exclusive`] to serialize tests that do
/// this.
pub fn install(plan: FaultPlan) {
    *lock_recovering(global_injector()) = Some(Injector::new(plan));
    PLAN_ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the process-wide injector.
pub fn clear() {
    *lock_recovering(global_injector()) = None;
    PLAN_ACTIVE.store(false, Ordering::SeqCst);
}

/// True when a process-wide plan is installed.
pub fn plan_active() -> bool {
    PLAN_ACTIVE.load(Ordering::Relaxed)
}

/// True when the ABFT checker should run on the serving path: an
/// explicit [`set_checker`] override, else the `ACCEL_ABFT` env var.
pub fn checker_enabled() -> bool {
    match CHECKER_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_checker(),
    }
}

/// Forces the checker on/off (`None` reverts to the env default).
pub fn set_checker(on: Option<bool>) {
    let state = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    CHECKER_STATE.store(state, Ordering::SeqCst);
}

/// The single gate instrumented hot paths test before doing any fault
/// work: true iff a plan is installed or the checker is on. One-two
/// relaxed atomic loads — fault-free production runs pay nothing else.
pub fn hooks_active() -> bool {
    plan_active() || checker_enabled()
}

/// Runs `f` against the process-wide injector, if one is installed.
pub fn with_injector<R>(f: impl FnOnce(&mut Injector) -> R) -> Option<R> {
    if !plan_active() {
        return None;
    }
    lock_recovering(global_injector()).as_mut().map(f)
}

/// Process-wide fault/checker counters (monotonic until
/// [`reset_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// ABFT verifications performed.
    pub checked: u64,
    /// Faults injected.
    pub injected: u64,
    /// Checksum mismatches detected.
    pub detected: u64,
}

/// Records `n` checker invocations.
pub fn note_checked(n: u64) {
    CHECKED.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` injected faults.
pub fn note_injected(n: u64) {
    INJECTED.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` detected mismatches.
pub fn note_detected(n: u64) {
    DETECTED.fetch_add(n, Ordering::Relaxed);
}

/// Snapshot of the process-wide counters.
pub fn counters() -> FaultCounters {
    FaultCounters {
        checked: CHECKED.load(Ordering::Relaxed),
        injected: INJECTED.load(Ordering::Relaxed),
        detected: DETECTED.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide counters.
pub fn reset_counters() {
    CHECKED.store(0, Ordering::SeqCst);
    INJECTED.store(0, Ordering::SeqCst);
    DETECTED.store(0, Ordering::SeqCst);
}

/// Serializes tests that install process-wide plans or toggle the
/// checker, mirroring the `set_thread_override` idiom elsewhere in the
/// workspace. Hold the returned guard for the duration of the test.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static CELL: OnceLock<Mutex<()>> = OnceLock::new();
    lock_recovering(CELL.get_or_init(|| Mutex::new(())))
}

/// Locks `m`, recovering from poisoning (a panicking fault test must
/// not wedge every later test in the binary).
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_is_involutive_per_width() {
        let k = FaultKind::BitFlip { bit: 3 };
        assert_eq!(k.apply_i8(k.apply_i8(-77)), -77);
        assert_eq!(k.apply_i32(k.apply_i32(123456)), 123456);
        // Bit 9 on an 8-bit word wraps to bit 1.
        let wide = FaultKind::BitFlip { bit: 9 };
        assert_eq!(wide.apply_i8(0), 2);
    }

    #[test]
    fn stuck_at_pins_the_bit() {
        let k = FaultKind::StuckAt {
            bit: 0,
            value: true,
        };
        assert_eq!(k.apply_i8(4), 5);
        assert_eq!(k.apply_i8(5), 5);
        let k0 = FaultKind::StuckAt {
            bit: 0,
            value: false,
        };
        assert_eq!(k0.apply_i32(5), 4);
    }

    #[test]
    fn multi_bit_flip_masks_to_width() {
        let k = FaultKind::MultiBitFlip { mask: 0x0101 };
        assert_eq!(k.apply_i8(0), 1); // high byte masked off
        assert_eq!(k.apply_i32(0), 0x0101);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_space() {
        let space = FaultSpace {
            index_lo: 10,
            index_hi: 20,
            rows: 4,
            cols: 8,
            classes: vec![SiteClass::WeightSram, SiteClass::Accumulator],
        };
        let a = FaultPlan::seeded(42, 16, &space);
        let b = FaultPlan::seeded(42, 16, &space);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(43, 16, &space));
        assert_eq!(a.events().len(), 16);
        for e in a.events() {
            match e.site {
                FaultSite::WeightSram { pass, row, col }
                | FaultSite::Accumulator { pass, row, col } => {
                    assert!((10..20).contains(&pass));
                    assert!(row < 4 && col < 8);
                }
                other => panic!("class outside space: {other:?}"),
            }
        }
    }

    #[test]
    fn injector_counters_advance_and_events_fire_once_per_index() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::Accumulator {
                pass: 1,
                row: 0,
                col: 0,
            },
            kind: FaultKind::BitFlip { bit: 0 },
        }]);
        let mut inj = Injector::new(plan);
        let mut acc = Mat::from_fn(2, 2, |_, _| 0i32);
        let p0 = inj.begin_pass();
        assert_eq!(inj.corrupt_acc(p0, &mut acc), 0);
        let p1 = inj.begin_pass();
        assert_eq!(inj.corrupt_acc(p1, &mut acc), 1);
        assert_eq!(acc[(0, 0)], 1);
    }

    #[test]
    fn gemm_pass_weight_delta_matches_corrupted_gemm() {
        // apply_gemm_pass on pristine accumulators must equal running
        // the GEMM against a weight matrix corrupted in place.
        let x = Mat::from_fn(3, 4, |r, c| (r * 4 + c) as i8 - 5);
        let w = Mat::from_fn(4, 2, |r, c| (r as i8) * 2 - c as i8);
        let kind = FaultKind::BitFlip { bit: 6 };
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::WeightSram {
                pass: 0,
                row: 2,
                col: 1,
            },
            kind,
        }]);
        let mut acc = tensor::gemm::matmul_i8(&x, &w).unwrap();
        let mut inj = Injector::new(plan);
        assert_eq!(inj.apply_gemm_pass(&x, &w, &mut acc), 1);
        let mut w_bad = w.clone();
        w_bad[(2, 1)] = kind.apply_i8(w_bad[(2, 1)]);
        assert_eq!(acc, tensor::gemm::matmul_i8(&x, &w_bad).unwrap());
    }

    #[test]
    fn global_install_and_counters_round_trip() {
        let _guard = exclusive();
        reset_counters();
        assert!(with_injector(|_| ()).is_none());
        install(FaultPlan::empty());
        assert!(plan_active() && hooks_active());
        assert_eq!(with_injector(|i| i.begin_pass()), Some(0));
        assert_eq!(with_injector(|i| i.begin_pass()), Some(1));
        note_checked(2);
        note_detected(1);
        assert_eq!(
            counters(),
            FaultCounters {
                checked: 2,
                injected: 0,
                detected: 1
            }
        );
        reset_counters();
        assert_eq!(counters(), FaultCounters::default());
        clear();
        assert!(!plan_active());
    }

    #[test]
    fn checker_override_wins_over_env() {
        let _guard = exclusive();
        set_checker(Some(true));
        assert!(checker_enabled() && hooks_active());
        set_checker(Some(false));
        assert!(!checker_enabled());
        set_checker(None);
    }
}
