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
//! Both consumers own their fault state:
//!
//! * `accel::ArrayEngine`, the accelerator's one command-stream
//!   interpreter, holds an [`Injector`] directly and addresses events by
//!   its private pass/call counters, so a plan reaches every backend
//!   that executes the stream.
//! * The serving engine holds a [`FaultState`] — injector, checker flag
//!   and [`FaultCounters`] — and makes it its stepping thread's active
//!   state for the length of a step ([`FaultState::run`]). The serving
//!   path's `quantized::QLinear` passes, which cannot thread a handle
//!   through their call sites, reach it there ([`with_active`]). Every
//!   such pass runs on the stepping thread, so pass numbering is per
//!   engine and does not depend on the worker count, and two engines on
//!   two threads never see each other's plan. A pass with no state
//!   active runs no hook.
//!
//! The hooks are **zero-cost when off**: every instrumented hot path
//! gates on [`active`] (one thread-local read) and the checker never
//! modifies values, so fault-free runs — checker on or off — stay
//! bit-identical to an uninstrumented build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;

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
// Engine seam: one engine's fault state, active on the thread that steps
// it.
// ---------------------------------------------------------------------

/// What one [`FaultState`]'s injector and checker have done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// ABFT verifications performed.
    pub checked: u64,
    /// Faults injected.
    pub injected: u64,
    /// Checksum mismatches detected.
    pub detected: u64,
}

/// The fault state a serving engine owns: an optional [`Injector`]
/// (GEMM passes are numbered per state, from 0), whether the ABFT row
/// check runs, and the counters of both. [`FaultState::run`] makes it
/// the calling thread's active state; instrumented hot paths reach it
/// through [`active`] and [`with_active`].
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// The installed plan's injector, if any.
    pub injector: Option<Injector>,
    /// Whether every pass runs the ABFT row check.
    pub checker: bool,
    /// What the injector and checker have done so far.
    pub counters: FaultCounters,
}

thread_local! {
    static ACTIVE: RefCell<Option<FaultState>> = const { RefCell::new(None) };
}

impl FaultState {
    /// A state with `plan` installed (fresh pass counters) and the
    /// checker on or off.
    pub fn new(plan: Option<FaultPlan>, checker: bool) -> Self {
        Self {
            injector: plan.map(Injector::new),
            checker,
            counters: FaultCounters::default(),
        }
    }

    /// Runs `f` with this state active on the calling thread: the
    /// instrumented passes `f` runs there are numbered, checked and
    /// counted here. A state with no plan and the checker off leaves no
    /// state active, so `f` takes the uninstrumented paths. The thread's
    /// previous state is restored afterwards, panic or not.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        struct Restore<'a> {
            state: &'a mut FaultState,
            prev: Option<FaultState>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                if let Some(state) = ACTIVE.replace(self.prev.take()) {
                    *self.state = state;
                }
            }
        }
        let live = self.injector.is_some() || self.checker;
        let mine = live.then(|| std::mem::take(self));
        let _restore = Restore {
            prev: ACTIVE.replace(mine),
            state: self,
        };
        f()
    }
}

/// The single gate instrumented hot paths test before doing any fault
/// work: true iff a [`FaultState`] is active on this thread. One
/// thread-local read — fault-free production runs pay nothing else.
pub fn active() -> bool {
    ACTIVE.with_borrow(Option::is_some)
}

/// Runs `f` against this thread's active [`FaultState`], if any.
pub fn with_active<R>(f: impl FnOnce(&mut FaultState) -> R) -> Option<R> {
    ACTIVE.with_borrow_mut(|state| state.as_mut().map(f))
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
    fn run_activates_the_state_on_this_thread_only() {
        assert!(!active() && with_active(|_| ()).is_none());
        let mut state = FaultState::new(Some(FaultPlan::empty()), true);
        let passes = state.run(|| {
            assert!(active());
            // Another thread sees no state.
            assert!(!std::thread::scope(|s| s.spawn(active).join().unwrap()));
            with_active(|s| s.counters.checked += 2);
            (0..2)
                .map(|_| with_active(|s| s.injector.as_mut().unwrap().begin_pass()))
                .collect::<Vec<_>>()
        });
        assert_eq!(passes, [Some(0), Some(1)]);
        assert!(!active());
        assert_eq!(state.counters.checked, 2);
        assert_eq!(state.injector.as_ref().map(Injector::passes_seen), Some(2));
    }

    #[test]
    fn a_state_without_plan_or_checker_runs_uninstrumented() {
        let mut outer = FaultState::new(None, true);
        outer.run(|| {
            FaultState::default().run(|| assert!(!active()));
            assert!(active(), "the outer state is restored");
        });
        assert!(outer.checker && !active());
    }
}
