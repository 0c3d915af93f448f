//! In-engine step phase recorder: where one serving step's time goes.
//!
//! A [`PhaseRecorder`] keeps a fixed ring of `(phase, start, end)`
//! [`Span`]s plus per-step-kind totals. It is owned by whoever runs the
//! steps (the serving engine, which creates one when recording is
//! switched on there), and reached by the code inside a step through
//! this thread's *active* recorder ([`PhaseRecorder::activate`]): a
//! kernel site opens a [`span`] (or a [`phases`] cursor) and the guard
//! records on drop. Nothing allocates on the hot path: the ring is sized
//! when the recorder is created, and each thread's pending-span buffer
//! when it first activates a recorder.
//!
//! **Cost.** With no recorder active, [`span`] is one thread-local read;
//! with one active it adds one relaxed load of the step's sampling flag.
//! A recorded span costs its clock reads and a push into the thread's
//! pending buffer, which reaches the recorder under one lock per step.
//! The recorder records one step in [`SAMPLE_EVERY`]; recording every
//! step would cost a 16-row decode step 4–5 %.
//!
//! **Nesting.** Only the outermost open span records: a phase that
//! contains others (the stacked encoder pass of an admission runs weight
//! GEMMs, attention and LayerNorm) is charged whole to itself, so the
//! phases of one step never overlap and their sum is comparable with the
//! step's wall time.
//!
//! **Threads.** Spans record on the thread that activated the recorder;
//! work a pool worker runs for that thread is not seen. At one worker
//! thread (`ACCEL_THREADS=1`, the benchmark's setting) every phase runs
//! on the stepping thread; with more, the pool's share of a step shows
//! up as unaccounted time.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A measured phase of a serving step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Admission's stacked encoder pass over the cold sources, and the
    /// prefix cache: lookups, and snapshots of finished prefills.
    Admission,
    /// Cross-attention `W_K` / `W_V` projections of a new session.
    CrossKv,
    /// Embedding a step's target tokens and quantizing them, and
    /// dequantizing the rows the output head reads.
    Embed,
    /// Weight GEMMs of the decoder layers (`QLinear`).
    WeightGemm,
    /// Grouping an attention call's rows into shared-prefix cohorts.
    CohortPlan,
    /// Scores of a cohort's stacked rows against its shared K rows.
    SharedScores,
    /// `P·V` of a cohort's stacked rows over its shared V rows.
    SharedPv,
    /// Scores of a group's rows against its private K rows.
    PrivateScores,
    /// The scaled masked softmax over assembled score rows.
    Softmax,
    /// `P·V` of a group's rows over its private V rows.
    PrivatePv,
    /// Requantizing `P·V` accumulators into `P` codes.
    PRequant,
    /// The LayerNorm module.
    LayerNorm,
    /// Appending a step's K/V rows to the paged caches.
    KvPush,
    /// The greedy output head (next token without full logits).
    GreedyHead,
}

/// Number of [`Phase`]s.
pub(crate) const PHASES: usize = 14;

impl Phase {
    /// Every phase, in declaration order (the index order of totals).
    pub const ALL: [Phase; PHASES] = [
        Phase::Admission,
        Phase::CrossKv,
        Phase::Embed,
        Phase::WeightGemm,
        Phase::CohortPlan,
        Phase::SharedScores,
        Phase::SharedPv,
        Phase::PrivateScores,
        Phase::Softmax,
        Phase::PrivatePv,
        Phase::PRequant,
        Phase::LayerNorm,
        Phase::KvPush,
        Phase::GreedyHead,
    ];

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::CrossKv => "cross_kv",
            Phase::Embed => "embed",
            Phase::WeightGemm => "weight_gemm",
            Phase::CohortPlan => "cohort_plan",
            Phase::SharedScores => "shared_qk",
            Phase::SharedPv => "shared_pv",
            Phase::PrivateScores => "private_qk",
            Phase::Softmax => "softmax",
            Phase::PrivatePv => "private_pv",
            Phase::PRequant => "p_requant",
            Phase::LayerNorm => "layernorm",
            Phase::KvPush => "kv_push",
            Phase::GreedyHead => "greedy_head",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a step did, for splitting totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Admitted at least one request.
    Admit,
    /// Ingested prompt rows, admitted nothing.
    Prefill,
    /// Only advanced generating requests by one token each.
    Decode,
}

impl StepKind {
    /// Every kind (the index order of [`PhaseRecorder::totals`]).
    pub const ALL: [StepKind; 3] = [StepKind::Admit, StepKind::Prefill, StepKind::Decode];

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Admit => "admit",
            StepKind::Prefill => "prefill",
            StepKind::Decode => "decode",
        }
    }
}

/// One recorded phase interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The phase.
    pub phase: Phase,
    /// When it opened.
    pub start: Instant,
    /// When it closed.
    pub end: Instant,
}

/// Time summed over the steps of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Steps folded in.
    pub steps: u64,
    /// Wall time of those steps.
    pub step: Duration,
    /// Time per phase, indexed like [`Phase::ALL`].
    pub phases: [Duration; PHASES],
}

impl StepTotals {
    /// Step time no phase accounts for.
    pub fn unaccounted(&self) -> Duration {
        self.step.saturating_sub(self.phases.iter().sum())
    }
}

/// Spans the ring keeps: a few decode steps of the largest model shape.
const RING_SPANS: usize = 4096;

#[derive(Debug)]
struct State {
    ring: Vec<Span>,
    /// Steps opened (recorded or not).
    seen: u64,
    /// Next ring slot to write (the ring is full once it wraps).
    next: usize,
    step_start: Option<Instant>,
    current: [Duration; PHASES],
    totals: [StepTotals; 3],
}

/// Steps per recorded step. Recording a step reads the clock about
/// 1,100 times on a 16-row `base6L` decode step and costs it 4–5 %; one
/// step in four keeps the recorder's share near 1 % while the totals
/// stay per-step averages (over the recorded steps).
pub const SAMPLE_EVERY: u64 = 4;

/// The recorder: a span ring and per-step-kind totals. See the module
/// docs.
#[derive(Debug)]
pub struct PhaseRecorder {
    /// Whether the open step is one the recorder samples: the one gate
    /// a span checks.
    live: AtomicBool,
    state: Mutex<State>,
}

impl Default for PhaseRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// This thread's recording state.
struct Local {
    /// The active recorder.
    rec: Option<Arc<PhaseRecorder>>,
    /// Open spans and cursors (outermost-only recording).
    depth: u32,
    /// Spans closed on this thread and not yet handed to `rec`: they
    /// reach it, under one lock, when a step opens or closes, when the
    /// buffer holds a ring's worth, or when the activation ends.
    pending: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            rec: None,
            depth: 0,
            pending: Vec::new(),
        })
    };
}

/// Hands this thread's pending spans to its active recorder.
fn flush_pending(local: &mut Local) {
    if let Some(rec) = &local.rec {
        rec.record(local.pending.drain(..));
    } else {
        local.pending.clear();
    }
}

/// Opens one span or cursor level on this thread: `None` when nothing
/// records, else whether it is the outermost.
#[inline]
fn open_level() -> Option<bool> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l
            .rec
            .as_ref()
            .is_some_and(|r| r.live.load(Ordering::Relaxed))
        {
            return None;
        }
        l.depth += 1;
        Some(l.depth == 1)
    })
}

/// Queues a closed span, handing the buffer over once it holds a
/// ring's worth (so it never grows past its reserved size).
fn queue(local: &mut Local, span: Span) {
    local.pending.push(span);
    if local.pending.len() >= RING_SPANS {
        flush_pending(local);
    }
}

/// Closes one level, queueing `span` when it was the outermost.
#[inline]
fn close_level(span: Option<Span>) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.depth = l.depth.saturating_sub(1);
        if let Some(span) = span {
            queue(&mut l, span);
        }
    });
}

impl PhaseRecorder {
    /// A recorder with its ring allocated.
    pub fn new() -> Self {
        Self {
            live: AtomicBool::new(false),
            state: Mutex::new(State {
                ring: Vec::with_capacity(RING_SPANS),
                seen: 0,
                next: 0,
                step_start: None,
                current: [Duration::ZERO; PHASES],
                totals: [StepTotals::default(); 3],
            }),
        }
    }

    /// Makes this recorder the calling thread's active one until the
    /// returned guard drops (the previous one is restored then).
    pub fn activate(self: &Arc<Self>) -> Activation {
        let prev = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            flush_pending(&mut l);
            // Sized once per thread; steps never grow it.
            l.pending.reserve(RING_SPANS);
            l.rec.replace(Arc::clone(self))
        });
        Activation { prev }
    }

    /// Hands the calling thread's pending spans over if this recorder is
    /// the one active on it.
    fn flush_mine(&self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.rec.as_ref().is_some_and(|r| std::ptr::eq(&**r, self)) {
                flush_pending(&mut l);
            }
        });
    }

    /// Opens a step: phase time recorded from now on belongs to it, if
    /// it is one of the [`SAMPLE_EVERY`] the recorder samples.
    pub fn begin_step(&self) {
        self.flush_mine();
        let mut s = self.lock();
        let sampled = s.seen.is_multiple_of(SAMPLE_EVERY);
        s.seen += 1;
        if !sampled {
            return;
        }
        self.live.store(true, Ordering::Relaxed);
        s.step_start = Some(Instant::now());
        s.current = [Duration::ZERO; PHASES];
    }

    /// Closes the open step as a step of `kind`; `None` discards it (a
    /// call that ran nothing).
    pub fn end_step(&self, kind: Option<StepKind>) {
        self.flush_mine();
        self.live.store(false, Ordering::Relaxed);
        let mut s = self.lock();
        let Some(start) = s.step_start.take() else {
            return;
        };
        let Some(kind) = kind else {
            return;
        };
        let current = s.current;
        let t = &mut s.totals[kind as usize];
        t.steps += 1;
        t.step += start.elapsed();
        for (a, b) in t.phases.iter_mut().zip(current) {
            *a += b;
        }
    }

    /// Totals per step kind, indexed like [`StepKind::ALL`].
    pub fn totals(&self) -> [StepTotals; 3] {
        self.lock().totals
    }

    /// The most recent spans, oldest first (at most the ring's size).
    /// Spans reach the ring when their step closes (or the activation
    /// ends); the calling thread's own are handed over first.
    pub fn spans(&self) -> Vec<Span> {
        self.flush_mine();
        let s = self.lock();
        let mut out = Vec::with_capacity(s.ring.len());
        if s.ring.len() == RING_SPANS {
            out.extend_from_slice(&s.ring[s.next..]);
        }
        out.extend_from_slice(&s.ring[..s.next.min(s.ring.len())]);
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, spans: impl IntoIterator<Item = Span>) {
        let mut s = self.lock();
        for span in spans {
            if s.step_start.is_some() {
                s.current[span.phase.index()] += span.end - span.start;
            }
            let slot = s.next;
            if s.ring.len() < RING_SPANS {
                s.ring.push(span);
            } else {
                s.ring[slot] = span;
            }
            s.next = (slot + 1) % RING_SPANS;
        }
    }
}

/// Restores the previously active recorder when dropped.
#[derive(Debug)]
pub struct Activation {
    prev: Option<Arc<PhaseRecorder>>,
}

impl Drop for Activation {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            flush_pending(&mut l);
            l.rec = self.prev.take();
        });
    }
}

/// An open span; records its phase on drop. See [`span`].
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    phase: Phase,
    /// Set when this thread's recorder was sampling at open time; holds
    /// the start when the span is the outermost.
    open: Option<Option<Instant>>,
}

/// Opens a span of `phase` on this thread's active recorder. Inert (one
/// thread-local read, one relaxed load) when no recorder is active or
/// the open step is not sampled; a span opened inside another reads no
/// clock.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    SpanGuard {
        phase,
        open: open_level().map(|outermost| outermost.then(Instant::now)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.open else {
            return;
        };
        close_level(start.map(|start| Span {
            phase: self.phase,
            start,
            end: Instant::now(),
        }));
    }
}

/// A run of back-to-back phases: [`Phases::enter`] closes the open phase
/// and opens the next on one clock read. For code that walks several
/// phases in a row (a cohort's attention) this halves the clock reads of
/// one [`span`] per phase. Inert like [`span`] when nothing records, and
/// subject to the same outermost-only rule.
#[derive(Debug)]
#[must_use = "a cursor measures until it is dropped"]
pub struct Phases {
    /// Set when this thread's recorder was sampling at creation; whether
    /// the cursor is outermost.
    on: Option<bool>,
    open: Option<(Phase, Instant)>,
}

/// Opens a [`Phases`] cursor with no phase entered yet.
#[inline]
pub fn phases() -> Phases {
    Phases {
        on: open_level(),
        open: None,
    }
}

impl Phases {
    /// Ends the open phase (if any) and starts `phase`, now.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        if self.on != Some(true) {
            return;
        }
        let now = Instant::now();
        if let Some(span) = self.close(now) {
            LOCAL.with(|l| queue(&mut l.borrow_mut(), span));
        }
        self.open = Some((phase, now));
    }

    fn close(&mut self, now: Instant) -> Option<Span> {
        let (phase, start) = self.open.take()?;
        Some(Span {
            phase,
            start,
            end: now,
        })
    }
}

impl Drop for Phases {
    fn drop(&mut self) {
        if self.on.is_none() {
            return;
        }
        let last = self.close(Instant::now());
        close_level(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_an_active_recorder() {
        let g = span(Phase::Softmax);
        assert!(g.open.is_none());
    }

    #[test]
    fn outermost_span_wins_and_steps_fold_by_kind() {
        let rec = Arc::new(PhaseRecorder::new());
        let _active = rec.activate();
        rec.begin_step();
        {
            let _outer = span(Phase::Admission);
            let _inner = span(Phase::WeightGemm);
        }
        {
            let _s = span(Phase::Softmax);
        }
        rec.end_step(Some(StepKind::Admit));
        let spans = rec.spans();
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, [Phase::Admission, Phase::Softmax]);
        let t = rec.totals()[StepKind::Admit as usize];
        assert_eq!(t.steps, 1);
        assert_eq!(t.phases[Phase::WeightGemm as usize], Duration::ZERO);
        assert!(t.phases.iter().sum::<Duration>() <= t.step);
        assert_eq!(rec.totals()[StepKind::Decode as usize].steps, 0);
    }

    #[test]
    fn the_ring_wraps_and_pending_buffers_never_grow() {
        let rec = Arc::new(PhaseRecorder::new());
        let _active = rec.activate();
        let reserved = LOCAL.with(|l| l.borrow().pending.capacity());
        rec.begin_step();
        for _ in 0..RING_SPANS + 5 {
            drop(span(Phase::KvPush));
        }
        let mut cursor = phases();
        for _ in 0..RING_SPANS + 5 {
            cursor.enter(Phase::Softmax);
        }
        drop(cursor);
        assert_eq!(LOCAL.with(|l| l.borrow().pending.capacity()), reserved);
        rec.end_step(Some(StepKind::Decode));
        assert_eq!(rec.spans().len(), RING_SPANS);
    }

    #[test]
    fn one_step_in_sample_every_is_recorded() {
        let rec = Arc::new(PhaseRecorder::new());
        let _active = rec.activate();
        for _ in 0..3 * SAMPLE_EVERY {
            rec.begin_step();
            drop(span(Phase::GreedyHead));
            rec.end_step(Some(StepKind::Decode));
        }
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.totals()[StepKind::Decode as usize].steps, 3);
        // Outside a sampled step nothing records.
        drop(span(Phase::GreedyHead));
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn a_cursor_records_back_to_back_phases() {
        let rec = Arc::new(PhaseRecorder::new());
        let _active = rec.activate();
        rec.begin_step();
        {
            let mut cursor = phases();
            for phase in [Phase::SharedScores, Phase::Softmax].repeat(5) {
                cursor.enter(phase);
            }
        }
        rec.end_step(Some(StepKind::Decode));
        let spans = rec.spans();
        assert_eq!(spans.len(), 10, "flushed across the cursor's buffer");
        assert!(spans.windows(2).all(|w| w[0].end == w[1].start));
        let t = rec.totals()[StepKind::Decode as usize];
        assert!(t.phases[Phase::Softmax as usize] > Duration::ZERO);
        // Inside another span a cursor records nothing.
        let _outer = span(Phase::Admission);
        let mut inner = phases();
        inner.enter(Phase::Softmax);
        drop(inner);
        assert_eq!(rec.spans().len(), 10);
    }

    #[test]
    fn activation_restores_the_previous_recorder() {
        let a = Arc::new(PhaseRecorder::new());
        let b = Arc::new(PhaseRecorder::new());
        let _ga = a.activate();
        a.begin_step();
        {
            let _gb = b.activate();
            b.begin_step();
            drop(span(Phase::CrossKv));
            b.end_step(None);
        }
        drop(span(Phase::LayerNorm));
        a.end_step(None);
        assert_eq!(b.spans().len(), 1);
        assert_eq!(a.spans()[0].phase, Phase::LayerNorm);
    }
}
