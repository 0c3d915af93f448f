//! The INT8 executor for the ResBlock operator graphs, and the
//! cached-KV attention ResBlock of incremental decoding.
//!
//! [`QuantExec`] interprets a graph with the bit-accurate INT8
//! primitives — it is what [`QuantMhaResBlock::forward`] and
//! [`QuantFfnResBlock::forward`] run through. Per-head groups fan out
//! across threads exactly as the hand-rolled loop did; the datapath is
//! bit-exact integer arithmetic and panels are merged in head order, so
//! the result is identical for any thread count.
//!
//! [`cached_mha_rows`] is the cached-KV MHA ResBlock of incremental INT8
//! decoding (and of the stacked encoder pass that opens sessions, where
//! each source attends its own K/V) — a plain function, not an
//! [`Executor`]: it never interprets a graph, and its inputs are
//! borrowed caches no other executor could take. Each session contributes a group of consecutive
//! rows (a prefill chunk; a decode step is a one-row chunk) that attend
//! over its cache, each row over its own legal prefix; the softmax
//! leaves exactly-zero probability codes beyond it — so a chunk is
//! bit-identical to feeding the same rows one at a time. Caches are
//! consumed through [`CacheRef`], either a flat code matrix or a paged
//! [`tensor::kvpool`] sequence, and **read in place**: attention walks a
//! cache as page-resident runs ([`tensor::kvpool::KvPool::page_runs`];
//! a flat cache is one run) and hands each run straight to the all-head
//! block kernels [`tensor::simd::attn_scores_i8`] and
//! [`tensor::simd::attn_pv_i8`]. No head panel is gathered or re-packed,
//! and the score, probability and accumulator grids live in a per-thread
//! scratch reused across calls.
//!
//! **Shared-prefix cohorts.** Sessions forked from one prefix snapshot
//! hold the same leading KV pages, and forks of one session hold the
//! same cross-attention K/V allocation. [`attention_cohorts`] groups the
//! row groups whose caches begin with the same storage (compared by
//! address and page id, never by bytes). A cohort's shared rows are
//! scored and summed once for all its members' stacked rows — one kernel
//! call per page-run, each shared K/V row read once per cohort and layer
//! instead of once per row: the array's own GEMM-over-`s`-rows form
//! (Algorithm 1) rather than a GEMV per decode row. Each member's own
//! rows follow through the same kernels, and the softmax runs once per
//! row over the assembled full row. Scores are exact `i32` dot products
//! and `P·V` an exact `i32` sum, so a row's bits do not depend on its
//! cohort, its page height or the kernel tier; with no cohort
//! (`shared = 0`) a decode row is just the one-row case of the same
//! walk. This is the only attention path: attention never reaches the
//! fault injector (only `QLinear` passes do), so a checker-on engine
//! attends exactly as production does.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Mutex;

use graph::{Env, ExecPlan, ExecStats, Executor, Graph, Node, Op, PlanStep, WeightId};
use tensor::kvpool::{KvPool, KvSeq};
use tensor::phase::{self, Phase};
use tensor::{gemm, simd, Mat};

use crate::ffn::QuantFfnResBlock;
use crate::mha::QuantMhaResBlock;
use crate::qlinear::{residual_add_i8, QLinear};
use crate::softmax::{scaled_masked_softmax, RowSoftmax, SoftmaxBufs};

/// A block's operator graph with its slot plan resolved. A block builds
/// one on first use and runs it from then on: per run, building the
/// graph, validating it and resolving ~70 tensor names cost as much as
/// a small GEMM.
#[derive(Debug, Clone)]
pub(crate) struct PlannedGraph {
    pub(crate) graph: Graph,
    pub(crate) plan: ExecPlan,
}

impl PlannedGraph {
    /// Fuses `graph` ([`graph::fuse`]) and resolves its plan.
    pub(crate) fn fused(graph: &Graph) -> Self {
        let graph = graph::fuse(graph);
        let plan = graph.plan();
        Self { graph, plan }
    }
}

/// Value domain of [`QuantExec`]: INT8 code matrices on the wires,
/// INT32 accumulators between a GEMM (or residual adder) and the module
/// that consumes it.
#[derive(Debug, Clone, PartialEq)]
pub enum QVal {
    /// INT8 codes.
    I8(Mat<i8>),
    /// INT32 accumulators.
    I32(Mat<i32>),
}

impl QVal {
    /// Unwraps the INT8 variant.
    ///
    /// # Panics
    ///
    /// Panics if this value holds accumulators.
    pub fn into_i8(self) -> Mat<i8> {
        match self {
            QVal::I8(m) => m,
            QVal::I32(_) => panic!("expected i8 codes, found i32 accumulators"),
        }
    }

    fn as_i8(&self) -> &Mat<i8> {
        match self {
            QVal::I8(m) => m,
            QVal::I32(_) => panic!("expected i8 codes, found i32 accumulators"),
        }
    }

    fn as_i32(&self) -> &Mat<i32> {
        match self {
            QVal::I32(m) => m,
            QVal::I8(_) => panic!("expected i32 accumulators, found i8 codes"),
        }
    }
}

/// Slot lookup that layers a head group's not-yet-merged outputs over
/// the shared environment, so steps inside a group can read their own
/// group's earlier results while other groups run concurrently.
struct Scope<'e> {
    env: &'e Env<QVal>,
    local: &'e [(usize, QVal)],
}

impl Scope<'_> {
    fn value(&self, slot: usize) -> &QVal {
        self.local
            .iter()
            .rev()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| v)
            .unwrap_or_else(|| self.env.value(slot))
    }
}

/// Which quantized ResBlock a [`QuantExec`] draws parameters from.
#[derive(Debug, Clone, Copy)]
enum QuantBlock<'a> {
    Mha(&'a QuantMhaResBlock),
    Ffn(&'a QuantFfnResBlock),
}

/// INT8 graph interpreter over a quantized ResBlock's parameters.
#[derive(Debug)]
pub struct QuantExec<'a> {
    block: QuantBlock<'a>,
    stats: ExecStats,
}

impl<'a> QuantExec<'a> {
    /// Executor over a quantized MHA ResBlock.
    pub fn mha(block: &'a QuantMhaResBlock) -> Self {
        Self {
            block: QuantBlock::Mha(block),
            stats: ExecStats::default(),
        }
    }

    /// Executor over a quantized FFN ResBlock.
    pub fn ffn(block: &'a QuantFfnResBlock) -> Self {
        Self {
            block: QuantBlock::Ffn(block),
            stats: ExecStats::default(),
        }
    }

    fn weight(&self, id: WeightId) -> &'a QLinear {
        match (self.block, id) {
            (QuantBlock::Mha(b), WeightId::Wq) => b.projections().0,
            (QuantBlock::Mha(b), WeightId::Wk) => b.projections().1,
            (QuantBlock::Mha(b), WeightId::Wv) => b.projections().2,
            (QuantBlock::Mha(b), WeightId::Wo) => b.projections().3,
            (QuantBlock::Ffn(b), WeightId::W1) => b.sublayers().0,
            (QuantBlock::Ffn(b), WeightId::W2) => b.sublayers().1,
            (_, id) => panic!("no {id:?} bound to this executor"),
        }
    }

    fn eval(
        &self,
        node: &Node,
        step: &PlanStep,
        scope: &Scope<'_>,
        mask: Option<&Mat<bool>>,
    ) -> QVal {
        let input = |i: usize| scope.value(step.inputs[i]);
        match node.op {
            Op::Linear(id) => QVal::I8(self.weight(id).forward(input(0).as_i8())),
            Op::SplitHeads => {
                let (d_k, head) = match self.block {
                    QuantBlock::Mha(b) => (b.d_k(), node.head.expect("head group")),
                    QuantBlock::Ffn(_) => panic!("SplitHeads in an FFN graph"),
                };
                let x = input(0).as_i8();
                QVal::I8(
                    x.submatrix(0, head * d_k, x.rows(), d_k)
                        .expect("head panel"),
                )
            }
            Op::HeadMatmul {
                transpose_rhs: true,
            } => QVal::I32(
                gemm::matmul_i8_nt(input(0).as_i8(), input(1).as_i8()).expect("head shapes"),
            ),
            Op::HeadMatmul {
                transpose_rhs: false,
            } => {
                // Context matmul: the accumulators are requantized into P
                // codes in the systolic array's output drain (Algorithm 1
                // line 7), so this node produces codes, not accumulators.
                let block = match self.block {
                    QuantBlock::Mha(b) => b,
                    QuantBlock::Ffn(_) => panic!("HeadMatmul in an FFN graph"),
                };
                let p_acc =
                    gemm::matmul_i8(input(0).as_i8(), input(1).as_i8()).expect("head shapes");
                QVal::I8(block.requantize_p_panel(&p_acc))
            }
            Op::ScaledMaskedSoftmax => {
                let block = match self.block {
                    QuantBlock::Mha(b) => b,
                    QuantBlock::Ffn(_) => panic!("softmax in an FFN graph"),
                };
                QVal::I8(scaled_masked_softmax(
                    input(0).as_i32(),
                    block.d_scale(),
                    block.d_k(),
                    mask,
                    block.softmax_mode(),
                ))
            }
            Op::Concat => {
                let panels: Vec<&Mat<i8>> = step
                    .inputs
                    .iter()
                    .map(|&s| scope.value(s).as_i8())
                    .collect();
                QVal::I8(Mat::hconcat(&panels).expect("heads share rows"))
            }
            Op::Relu => QVal::I8(input(0).as_i8().map(|&v| v.max(0))),
            // Residual add on codes widens to i32 accumulators; argument
            // order (sublayer, residual) mirrors the pre-refactor calls —
            // integer addition is exact and symmetric either way.
            Op::Add => QVal::I32(residual_add_i8(input(1).as_i8(), input(0).as_i8())),
            Op::LinearRelu(id) => QVal::I8(self.weight(id).forward_relu(input(0).as_i8())),
            Op::LinearAdd(id) => QVal::I32(
                self.weight(id)
                    .forward_add(input(0).as_i8(), input(1).as_i8()),
            ),
            Op::LayerNorm => {
                let ln = match self.block {
                    QuantBlock::Mha(b) => b.layernorm(),
                    QuantBlock::Ffn(b) => b.layernorm(),
                };
                QVal::I8(ln.forward(input(0).as_i32()))
            }
        }
    }

    /// Bumps the fusion counters when `node` is a fused op: one fused
    /// node, and the elided INT8 producer output (same shape as the
    /// fused output, one byte per code).
    fn note_fused(&mut self, node: &Node, out: &QVal) {
        if matches!(node.op, Op::LinearRelu(_) | Op::LinearAdd(_)) {
            let (r, c) = match out {
                QVal::I8(m) => m.shape(),
                QVal::I32(m) => m.shape(),
            };
            self.stats.ops_fused += 1;
            self.stats.intermediates_elided_bytes += r * c;
            graph::tally::note_fused(1, r * c);
        }
    }
}

impl QuantExec<'_> {
    /// [`Executor::run`] on a graph whose plan is already resolved
    /// (a block's [`PlannedGraph`]).
    pub(crate) fn run_planned(
        &mut self,
        graph: &Graph,
        plan: &ExecPlan,
        inputs: Vec<(&str, QVal)>,
        mask: Option<&Mat<bool>>,
    ) -> Env<QVal> {
        let detected0 = faults::hooks_active().then(|| faults::counters().detected);
        let mut env = Env::new(plan.slot_names.clone());
        for (name, value) in inputs {
            let slot = env.slot(name);
            env.set(slot, value);
        }
        // Split the plan into the pre-head prefix, the contiguous per-head
        // region, and the post-head suffix (the graph validator guarantees
        // this shape). Heads fan out across threads — Algorithm 1's first
        // loop — everything else runs in plan order.
        let is_head = |s: usize| graph.nodes[plan.steps[s].node].head.is_some();
        let pre_end = (0..plan.steps.len())
            .find(|&s| is_head(s))
            .unwrap_or(plan.steps.len());
        let post_start = (pre_end..plan.steps.len())
            .find(|&s| !is_head(s))
            .unwrap_or(plan.steps.len());
        for step in &plan.steps[..pre_end] {
            let scope = Scope {
                env: &env,
                local: &[],
            };
            let out = self.eval(&graph.nodes[step.node], step, &scope, mask);
            self.note_fused(&graph.nodes[step.node], &out);
            env.set(step.output, out);
        }
        if pre_end < post_start {
            let mut head_groups: Vec<Vec<usize>> = Vec::new();
            for s in pre_end..post_start {
                let h = graph.nodes[plan.steps[s].node].head.expect("head region");
                if h >= head_groups.len() {
                    head_groups.push(Vec::new());
                }
                head_groups[h].push(s);
            }
            let computed = tensor::par::par_map(&head_groups, |group| {
                let mut local: Vec<(usize, QVal)> = Vec::with_capacity(group.len());
                for &s in group {
                    let step = &plan.steps[s];
                    let scope = Scope {
                        env: &env,
                        local: &local,
                    };
                    let out = self.eval(&graph.nodes[step.node], step, &scope, mask);
                    local.push((step.output, out));
                }
                local
            });
            for (slot, value) in computed.into_iter().flatten() {
                env.set(slot, value);
            }
        }
        for step in &plan.steps[post_start..] {
            let scope = Scope {
                env: &env,
                local: &[],
            };
            let out = self.eval(&graph.nodes[step.node], step, &scope, mask);
            self.note_fused(&graph.nodes[step.node], &out);
            env.set(step.output, out);
        }
        self.stats.nodes += plan.steps.len();
        if let Some(d0) = detected0 {
            self.stats.faults_detected += faults::counters().detected.saturating_sub(d0) as usize;
        }
        env
    }
}

impl Executor for QuantExec<'_> {
    type Value = QVal;

    fn run(
        &mut self,
        graph: &Graph,
        inputs: Vec<(&str, QVal)>,
        mask: Option<&Mat<bool>>,
    ) -> Env<QVal> {
        self.run_planned(graph, &graph.plan(), inputs, mask)
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }
}

/// A borrowed projected-K/V code cache: either a flat matrix or a
/// paged sequence inside a shared [`KvPool`]. Both expose the same
/// rows in the same order, so attention is bit-identical across the two
/// storage layouts.
#[derive(Debug, Clone, Copy)]
pub enum CacheRef<'a> {
    /// A flat `rows × d_model` code matrix.
    Flat(&'a Mat<i8>),
    /// A paged sequence (block table) inside a shared pool.
    Paged {
        /// The pool holding the pages.
        pool: &'a KvPool<i8>,
        /// The sequence's block table.
        seq: &'a KvSeq,
    },
}

impl<'a> CacheRef<'a> {
    /// Wraps a flat code matrix.
    pub fn flat(m: &'a Mat<i8>) -> Self {
        CacheRef::Flat(m)
    }

    /// Wraps a paged sequence.
    pub fn paged(pool: &'a KvPool<i8>, seq: &'a KvSeq) -> Self {
        CacheRef::Paged { pool, seq }
    }

    /// Logical cache rows (the decode position).
    pub fn rows(&self) -> usize {
        match self {
            CacheRef::Flat(m) => m.rows(),
            CacheRef::Paged { seq, .. } => seq.rows(),
        }
    }

    /// Borrows logical row `r` (all `d_model` columns), zero-copy for
    /// both layouts.
    pub fn row(&self, r: usize) -> &'a [i8] {
        match self {
            CacheRef::Flat(m) => m.row(r),
            CacheRef::Paged { pool, seq } => pool.row(seq, r),
        }
    }

    /// Calls `f(first_row, run)` over cache rows `rows` in place, in
    /// order: `run` holds its rows contiguously (`d_model` wide,
    /// row-major). A flat cache is one run; a paged one is its
    /// [`KvPool::page_runs`], one per page touched.
    fn for_each_run(&self, rows: Range<usize>, mut f: impl FnMut(usize, &'a [i8])) {
        match *self {
            CacheRef::Flat(m) => {
                let d = m.cols();
                if !rows.is_empty() {
                    f(rows.start, &m.as_slice()[rows.start * d..rows.end * d]);
                }
            }
            CacheRef::Paged { pool, seq } => {
                for (r, run) in pool.page_runs(seq, rows) {
                    f(r, run);
                }
            }
        }
    }

    /// The block table of a paged cache.
    fn seq(&self) -> Option<&'a KvSeq> {
        match self {
            CacheRef::Flat(_) => None,
            CacheRef::Paged { seq, .. } => Some(seq),
        }
    }
}

/// Row groups of one [`cached_mha_rows`] call whose caches begin with
/// the same storage: the first `shared` rows of every member's K and V
/// caches are the same bytes at the same place, so their scores and
/// their `P·V` terms are computed once for the cohort — over the
/// members' stacked rows, each shared row read once — instead of once
/// per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cohort {
    /// The member groups' indices, ascending.
    pub members: Vec<usize>,
    /// Leading cache rows every member attends from the shared storage;
    /// `0` for a cohort of one.
    pub shared: usize,
}

impl Cohort {
    fn single(group: usize) -> Self {
        Cohort {
            members: vec![group],
            shared: 0,
        }
    }
}

/// The storage a group's caches begin with, as identity — addresses and
/// page ids, never bytes: the K and V allocations of a flat cache, or
/// the K and V pools and first pages of a paged one.
#[derive(PartialEq)]
enum Lead {
    Flat(*const Mat<i8>, *const Mat<i8>),
    Paged(*const KvPool<i8>, *const KvPool<i8>, usize, usize),
}

/// [`Lead`] of one group's caches; `None` when nothing could be shared
/// (a paged first page not yet full, or mixed layouts).
fn lead(keys: &CacheRef<'_>, vals: &CacheRef<'_>) -> Option<Lead> {
    match (*keys, *vals) {
        (CacheRef::Flat(k), CacheRef::Flat(v)) => Some(Lead::Flat(k, v)),
        (CacheRef::Paged { pool: kp, seq: ks }, CacheRef::Paged { pool: vp, seq: vs }) => {
            let full = ks.rows() >= kp.page_rows() && vs.rows() >= vp.page_rows();
            full.then(|| Lead::Paged(kp, vp, ks.page_ids()[0], vs.page_ids()[0]))
        }
        _ => None,
    }
}

/// Partitions the row groups of one [`cached_mha_rows`] call (same
/// arguments) into [`Cohort`]s, ordered by first member.
///
/// Groups join one cohort when their K **and** V caches begin with the
/// same storage:
///
/// * **flat** caches (cross-attention K/V): the same allocations for
///   both; every row is then shared, `shared = ctx`;
/// * **paged** caches (self-attention K/V): the same full first page in
///   the same pools; `shared` is [`KvPool::shared_prefix_rows`] over the
///   members' K tables and over their V tables, the smaller of the two —
///   whole pages, full in every member.
///
/// With `causal`, `shared` is also capped at every member's
/// `ctx - rows`, so the shared rows lie before every group's own chunk
/// rows and every row of every member attends all of them. A cohort
/// needs two members and a shared row; every other group is a cohort of
/// one with `shared = 0`.
pub fn attention_cohorts(
    groups: &[usize],
    keys: &[CacheRef<'_>],
    vals: &[CacheRef<'_>],
    causal: bool,
) -> Vec<Cohort> {
    let mut cohorts: Vec<Cohort> = Vec::new();
    let mut leads: Vec<(Lead, usize)> = Vec::new();
    for g in 0..groups.len() {
        let Some(l) = lead(&keys[g], &vals[g]) else {
            cohorts.push(Cohort::single(g));
            continue;
        };
        match leads.iter().find(|(m, _)| *m == l) {
            Some(&(_, c)) => cohorts[c].members.push(g),
            None => {
                leads.push((l, cohorts.len()));
                cohorts.push(Cohort::single(g));
            }
        }
    }
    let mut planned: Vec<Cohort> = Vec::with_capacity(groups.len());
    for mut cohort in cohorts {
        if cohort.members.len() > 1 {
            cohort.shared = shared_rows(&cohort.members, groups, keys, vals, causal);
        }
        if cohort.shared > 0 {
            planned.push(cohort);
        } else {
            planned.extend(cohort.members.into_iter().map(Cohort::single));
        }
    }
    planned.sort_by_key(|c| c.members[0]);
    planned
}

/// The rows a cohort's members share (see [`attention_cohorts`]).
fn shared_rows<'a>(
    members: &[usize],
    groups: &[usize],
    keys: &[CacheRef<'a>],
    vals: &[CacheRef<'a>],
    causal: bool,
) -> usize {
    let common = match (keys[members[0]], vals[members[0]]) {
        (CacheRef::Paged { pool: kp, .. }, CacheRef::Paged { pool: vp, .. }) => {
            let tables = |caches: &[CacheRef<'a>]| -> Vec<&'a KvSeq> {
                members.iter().filter_map(|&g| caches[g].seq()).collect()
            };
            kp.shared_prefix_rows(&tables(keys))
                .min(vp.shared_prefix_rows(&tables(vals)))
        }
        _ => keys[members[0]].rows(),
    };
    if causal {
        members.iter().fold(common, |s, &g| {
            s.min(keys[g].rows().saturating_sub(groups[g]))
        })
    } else {
        common
    }
}

/// One worker thread's attention scratch, reused by every cohort the
/// thread attends ([`CohortJob::attend`]): grown to the largest
/// cohort it has seen, never shrunk, never zeroed beyond what a call
/// uses.
#[derive(Default)]
struct AttnScratch {
    /// A multi-member cohort's query rows, stacked in member order.
    q: Vec<i8>,
    /// Scores, `[head][stacked row][cache row]`.
    scores: Vec<i32>,
    /// Probability codes, same grid as `scores`.
    probs: Vec<i8>,
    /// `P·V` accumulators, `[stacked row][d_model]`.
    acc: Vec<i32>,
    softmax: SoftmaxBufs,
}

thread_local! {
    static SCRATCH: RefCell<AttnScratch> = RefCell::new(AttnScratch::default());
}

/// Grows `buf` to at least `n` elements and returns its first `n`.
fn scratch<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
    &mut buf[..n]
}

/// The borrowed inputs of one [`cached_mha_rows`] call's attention.
struct CohortJob<'j, 'c> {
    block: &'j QuantMhaResBlock,
    q: &'j Mat<i8>,
    groups: &'j [usize],
    keys: &'j [CacheRef<'c>],
    vals: &'j [CacheRef<'c>],
    causal: bool,
}

/// Rows of one group that one task attends: `out.len() / d_model` query
/// rows starting at row `r0` of `q`, the last of which attends `ctx`
/// rows of group `g`'s caches, and their rows of the `P` output.
struct Piece<'p> {
    g: usize,
    r0: usize,
    ctx: usize,
    out: &'p mut [i8],
}

impl Piece<'_> {
    /// Splits off the first `k` rows. With `causal` those rows attend
    /// `ctx - (rows - k)` rows at most, so the first part's `ctx` is
    /// that: row `j` keeps its legal prefix `0 ..= ctx - rows + j`.
    fn split_at(self, k: usize, d: usize, causal: bool) -> (Self, Self) {
        let rows = self.out.len() / d;
        let (head, tail) = self.out.split_at_mut(k * d);
        let ctx = if causal {
            self.ctx - (rows - k)
        } else {
            self.ctx
        };
        (
            Piece {
                g: self.g,
                r0: self.r0,
                ctx,
                out: head,
            },
            Piece {
                g: self.g,
                r0: self.r0 + k,
                ctx: self.ctx,
                out: tail,
            },
        )
    }
}

/// One task of [`CohortJob::run`]: a cohort's `shared` rows and some of
/// its members' rows.
type Task<'p> = (usize, Mutex<Vec<Piece<'p>>>);

impl CohortJob<'_, '_> {
    /// The `P` codes of every row under the cohort plan `cohorts`.
    ///
    /// Each cohort is one task ([`CohortJob::attend`]) unless it holds
    /// more than its share of the call's rows — `rows / workers`, rounded
    /// up — and then its stacked rows are cut into tasks of at most that
    /// many, each attending the shared rows itself. At one worker
    /// nothing is cut. So a lone cohort of forks, or a lone prefill
    /// chunk, still spreads over every worker.
    ///
    /// Bit-identical to every group attending its whole cache alone: a
    /// score is the same exact `i32` dot product whichever kernel call
    /// computes it, so the softmax sees the same row; the `P·V`
    /// accumulator is an `i32` sum of the same products, split into shared
    /// and private parts — exact, since probability codes lie in `0..=127`, so
    /// `|Σ| ≤ 127 · 128 · ctx` stays below `2³¹` for any context under
    /// 132,000 rows; and the same [`QuantMhaResBlock::requantize_p_into`]
    /// drains it. Every row is independent of the others, so how the
    /// rows are cut into tasks changes no bit. The prefix-length softmax
    /// masks a chunk's future rows whatever the split, so the cap on
    /// `shared` ([`attention_cohorts`]) is asserted here as the plan's
    /// contract rather than relied on for the masking.
    fn run(&self, cohorts: &[Cohort]) -> Mat<i8> {
        let (groups, d) = (self.groups, self.q.cols());
        for cohort in cohorts {
            for &g in &cohort.members {
                assert!(
                    !self.causal || cohort.shared + groups[g] <= self.keys[g].rows(),
                    "group {g}: shared rows {} reach into its chunk",
                    cohort.shared
                );
            }
        }
        let mut p = Mat::zeros(self.q.rows(), d);
        // Each group's rows as one piece, handed to its cohort's tasks.
        let mut pieces: Vec<Option<Piece<'_>>> = Vec::with_capacity(groups.len());
        let mut rest = p.as_mut_slice();
        let mut r0 = 0;
        for (g, &rows) in groups.iter().enumerate() {
            let (out, tail) = rest.split_at_mut(rows * d);
            pieces.push(Some(Piece {
                g,
                r0,
                ctx: self.keys[g].rows(),
                out,
            }));
            rest = tail;
            r0 += rows;
        }
        let cap = self.q.rows().div_ceil(tensor::par::threads()).max(1);
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(cohorts.len());
        for cohort in cohorts {
            let mut task = Vec::new();
            let mut room = cap;
            for &g in &cohort.members {
                let mut piece = pieces[g].take().expect("one cohort per group");
                while piece.out.len() / d > room {
                    if room > 0 {
                        let (head, tail) = piece.split_at(room, d, self.causal);
                        task.push(head);
                        piece = tail;
                    }
                    tasks.push((cohort.shared, Mutex::new(std::mem::take(&mut task))));
                    room = cap;
                }
                room -= piece.out.len() / d;
                task.push(piece);
            }
            if !task.is_empty() {
                tasks.push((cohort.shared, Mutex::new(task)));
            }
        }
        tensor::par::par_map(&tasks, |(shared, task)| {
            let mut task = task.lock().unwrap_or_else(|e| e.into_inner());
            SCRATCH.with(|s| self.attend(*shared, &mut task, &mut s.borrow_mut()));
        });
        p
    }

    /// One task's attention, reading every K and V row where it lives:
    /// the first `shared` rows of the caches every piece's group begins
    /// with, and each piece's own rows `shared .. ctx`.
    ///
    /// The pieces' rows are stacked (`m` rows; one piece's are already
    /// contiguous in `q`) and scored, softmaxed and summed in one
    /// `[head][stacked row][cache row]` grid whose row stride is the
    /// longest piece context:
    ///
    /// 1. shared scores — every stacked row against the cohort's shared
    ///    K rows, one [`tensor::simd::attn_scores_i8`] per page-run;
    /// 2. private scores — each piece's rows against its own rows
    ///    `shared .. ctx`, the same kernel over its page-runs;
    /// 3. softmax once per assembled row over its legal prefix (with
    ///    `causal`, chunk row `j` attends `0 ..= ctx - rows + j`; the
    ///    columns past it get exactly-zero codes, which is what makes a
    ///    chunk bit-identical to its rows fed one at a time);
    /// 4. shared `P·V` — every stacked row over the shared V rows, one
    ///    [`tensor::simd::attn_pv_i8`] per page-run — and private `P·V`
    ///    over each piece's own rows;
    /// 5. the `P` requantize drain.
    ///
    /// A decode row is the `m = 1`, `shared = 0` case of the same walk.
    fn attend(&self, shared: usize, pieces: &mut [Piece<'_>], s: &mut AttnScratch) {
        let (block, keys, vals) = (self.block, self.keys, self.vals);
        let (h, d_k) = (block.heads(), block.d_k());
        let d = self.q.cols();
        let m: usize = pieces.iter().map(|pc| pc.out.len() / d).sum();
        let stride = pieces.iter().map(|pc| pc.ctx).max().unwrap_or(0);
        let hs = m * stride;
        let AttnScratch {
            q: qbuf,
            scores,
            probs,
            acc,
            softmax,
        } = s;
        let qs: &[i8] = match &pieces[..] {
            [pc] => &self.q.as_slice()[pc.r0 * d..(pc.r0 + m) * d],
            _ => {
                let qs = scratch(qbuf, m * d);
                let mut at = 0;
                for (r0, rows) in pieces.iter().map(|pc| (pc.r0, pc.out.len() / d)) {
                    qs[at..at + rows * d]
                        .copy_from_slice(&self.q.as_slice()[r0 * d..(r0 + rows) * d]);
                    at += rows * d;
                }
                qs
            }
        };
        let scores = scratch(scores, h * hs);
        let probs = scratch(probs, h * hs);
        let acc = scratch(acc, m * d);
        acc.fill(0);
        // Each piece's (group, stacked first row, rows, context).
        let placed = || {
            pieces.iter().scan(0usize, move |s0, pc| {
                let (at, rows) = (*s0, pc.out.len() / d);
                *s0 += rows;
                Some((pc.g, at, rows, pc.ctx))
            })
        };
        let mut clock = phase::phases();
        if shared > 0 {
            clock.enter(Phase::SharedScores);
            keys[pieces[0].g].for_each_run(0..shared, |t0, run| {
                simd::attn_scores_i8(qs, run, d, d_k, &mut scores[t0..], hs, stride);
            });
        }
        clock.enter(Phase::PrivateScores);
        for (g, s0, rows, ctx) in placed() {
            let qg = &qs[s0 * d..(s0 + rows) * d];
            keys[g].for_each_run(shared..ctx, |t0, run| {
                let at = s0 * stride + t0;
                simd::attn_scores_i8(qg, run, d, d_k, &mut scores[at..], hs, stride);
            });
        }
        clock.enter(Phase::Softmax);
        let kernel = RowSoftmax::new(block.softmax_mode(), block.d_scale(), d_k);
        for (_, s0, rows, ctx) in placed() {
            for i in 0..h {
                for j in 0..rows {
                    let live = if self.causal { ctx - rows + j + 1 } else { ctx };
                    let at = i * hs + (s0 + j) * stride;
                    let row = &mut probs[at..at + ctx];
                    row.fill(0);
                    kernel.run(softmax, &scores[at..at + live], None, &mut row[..live]);
                }
            }
        }
        if shared > 0 {
            clock.enter(Phase::SharedPv);
            vals[pieces[0].g].for_each_run(0..shared, |t0, run| {
                simd::attn_pv_i8(&probs[t0..], hs, stride, run, d, d_k, acc);
            });
        }
        clock.enter(Phase::PrivatePv);
        for (g, s0, rows, ctx) in placed() {
            let ag = &mut acc[s0 * d..(s0 + rows) * d];
            vals[g].for_each_run(shared..ctx, |t0, run| {
                let at = s0 * stride + t0;
                simd::attn_pv_i8(&probs[at..], hs, stride, run, d, d_k, ag);
            });
        }
        clock.enter(Phase::PRequant);
        let mut at = 0;
        for pc in pieces.iter_mut() {
            for row in pc.out.chunks_exact_mut(d) {
                block.requantize_p_into(&acc[at..at + d], row);
                at += d;
            }
        }
    }
}

/// One cached-attention MHA ResBlock over per-session row groups: the
/// `x.rows()` input rows are partitioned into `groups[i]` consecutive
/// rows for session `i` (summing to `x.rows()`), each group attending
/// over its own session's cache `keys[i]` / `vals[i]`. `W_Q`, `W_G` and
/// the LayerNorm run once over all rows; the attention fans out across
/// threads, with groups whose caches begin with the same storage
/// attending it together ([`attention_cohorts`]). Integer GEMMs are
/// row-independent and every score and `P·V` sum is exact, so a group's
/// rows are bit-identical whatever else is in the batch.
///
/// With `causal = true` (self-attention), row `j` of a group whose
/// cache holds `L` rows — the chunk's own K/V having already been
/// appended — attends positions `0 ..= L - rows + j`: an intra-chunk
/// causal tail, so the group is bit-identical to feeding its rows one
/// decode step at a time. With `causal = false` (cross-attention) every
/// row attends the whole cache.
///
/// # Panics
///
/// Panics if the group, key and value counts differ, the group sizes do
/// not sum to the input rows, or a causal group's cache holds fewer
/// rows than its chunk (the chunk's K/V were not appended first).
pub fn cached_mha_rows(
    block: &QuantMhaResBlock,
    x: &Mat<i8>,
    groups: &[usize],
    keys: &[CacheRef<'_>],
    vals: &[CacheRef<'_>],
    causal: bool,
) -> Mat<i8> {
    assert_eq!(groups.len(), keys.len(), "one key cache per group");
    assert_eq!(groups.len(), vals.len(), "one value cache per group");
    assert_eq!(
        groups.iter().sum::<usize>(),
        x.rows(),
        "group sizes must sum to the input rows"
    );
    if causal {
        // A causal chunk's own K/V rows are already in its cache; a
        // shorter cache has no legal prefix to state.
        for (i, (&rows, k)) in groups.iter().zip(keys).enumerate() {
            assert!(
                k.rows() >= rows,
                "causal prefill group {i}: cache holds {} rows, fewer than the chunk's {rows}",
                k.rows()
            );
        }
    }
    let (wq, _, _, wo) = block.projections();
    let q = wq.forward(x);
    // Fusion tally, defined when one-row chunks (decode steps) first
    // stopped materialising per-head K/V panels: each is one fused op
    // eliding `2 * ctx * d_model` bytes. Every chunk now reads its cache
    // in place; the tally keeps that definition so it stays comparable.
    let (mut fused_ops, mut elided_bytes) = (0usize, 0usize);
    for (&rows, k) in groups.iter().zip(keys) {
        if rows == 1 {
            fused_ops += 1;
            elided_bytes += 2 * k.rows() * x.cols();
        }
    }
    let plan = phase::span(Phase::CohortPlan);
    let cohorts = attention_cohorts(groups, keys, vals, causal);
    drop(plan);
    let job = CohortJob {
        block,
        q: &q,
        groups,
        keys,
        vals,
        causal,
    };
    let p = job.run(&cohorts);
    // The Wo projection and the residual add fuse into one drain (the
    // fused-graph `LinearAdd(Wo)` rewrite, applied by hand); the
    // projection's INT8 output codes are never materialized.
    let g = wo.forward_add(&p, x);
    fused_ops += 1;
    elided_bytes += p.rows() * x.cols();
    graph::tally::note_fused(fused_ops, elided_bytes);
    block.layernorm().forward(&g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::SoftmaxMode;
    use graph::mha_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::mha::MhaResBlock;

    fn setup() -> (QuantMhaResBlock, Vec<Mat<f32>>, ModelConfig) {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(33);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0))
            .collect();
        let q = QuantMhaResBlock::from_f32(&block, &calib, &calib, SoftmaxMode::Hardware);
        (q, calib, cfg)
    }

    /// Frozen copy of the pre-refactor `QuantMhaResBlock::forward` —
    /// the golden reference the graph path must reproduce bit for bit.
    fn mha_reference(
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> (Mat<i8>, Mat<i8>) {
        let (wq, wk, wv, wo) = block.projections();
        let d_k = block.d_k();
        let q = wq.forward(xq);
        let k = wk.forward(xkv);
        let v = wv.forward(xkv);
        let mut panels = Vec::with_capacity(block.heads());
        for i in 0..block.heads() {
            let c0 = i * d_k;
            let qi = q.submatrix(0, c0, q.rows(), d_k).unwrap();
            let ki = k.submatrix(0, c0, k.rows(), d_k).unwrap();
            let vi = v.submatrix(0, c0, v.rows(), d_k).unwrap();
            let d_acc = gemm::matmul_i8_nt(&qi, &ki).unwrap();
            let probs =
                scaled_masked_softmax(&d_acc, block.d_scale(), d_k, mask, block.softmax_mode());
            let p_acc = gemm::matmul_i8(&probs, &vi).unwrap();
            panels.push(p_acc.map(|&a| block.requantize_p(a)));
        }
        let p = Mat::hconcat(&panels).unwrap();
        let g = residual_add_i8(&wo.forward(&p), xq);
        (block.layernorm().forward(&g), p)
    }

    #[test]
    fn quant_exec_matches_reference_bitwise() {
        let (q, calib, _) = setup();
        let xq = q.quantize_input_q(&calib[0]);
        let (want_y, want_p) = mha_reference(&q, &xq, &xq, None);
        let (got_y, got_p) = q.forward(&xq, &xq, None);
        assert_eq!(got_y, want_y);
        assert_eq!(got_p, want_p);
    }

    #[test]
    fn quant_exec_matches_reference_with_mask() {
        let (q, calib, _) = setup();
        let xq = q.quantize_input_q(&calib[1]);
        let mask = tensor::ops::causal_mask(xq.rows());
        let (want_y, want_p) = mha_reference(&q, &xq, &xq, Some(&mask));
        let (got_y, got_p) = q.forward(&xq, &xq, Some(&mask));
        assert_eq!(got_y, want_y);
        assert_eq!(got_p, want_p);
    }

    #[test]
    fn quant_exec_exposes_intermediates() {
        let (q, calib, cfg) = setup();
        let xq = q.quantize_input_q(&calib[2]);
        let g = mha_graph(&graph::GraphConfig {
            d_model: cfg.d_model,
            d_ff: 0,
            h: cfg.h,
        });
        let mut exec = QuantExec::mha(&q);
        let mut env = exec.run(
            &g,
            vec![
                ("x_q", QVal::I8(xq.clone())),
                ("x_k", QVal::I8(xq.clone())),
                ("x_v", QVal::I8(xq.clone())),
            ],
            None,
        );
        assert_eq!(exec.stats().nodes, g.nodes.len());
        let p = env.take("p").into_i8();
        assert_eq!(p.shape(), xq.shape());
        // per-head probs survive in the environment too
        assert!(env.get("probs.0").is_some());
    }

    #[test]
    fn batched_rows_match_single_rows() {
        let (q, calib, cfg) = setup();
        let (_, wk, wv, _) = q.projections();
        let xq = q.quantize_input_q(&calib[3]);
        let caches: Vec<(Mat<i8>, Mat<i8>)> = (0..3)
            .map(|i| {
                let m = xq.submatrix(0, 0, 2 + i, cfg.d_model).unwrap();
                (wk.forward(&m), wv.forward(&m))
            })
            .collect();
        let x = xq.submatrix(0, 0, 3, cfg.d_model).unwrap();
        let keys: Vec<CacheRef<'_>> = caches.iter().map(|c| CacheRef::flat(&c.0)).collect();
        let vals: Vec<CacheRef<'_>> = caches.iter().map(|c| CacheRef::flat(&c.1)).collect();
        let got = cached_mha_rows(&q, &x, &[1, 1, 1], &keys, &vals, true);
        for r in 0..caches.len() {
            let row = x.submatrix(r, 0, 1, cfg.d_model).unwrap();
            let want = cached_mha_rows(&q, &row, &[1], &keys[r..=r], &vals[r..=r], true);
            assert_eq!(got.row(r), want.row(0), "row {r}");
        }
    }

    #[test]
    fn paged_caches_are_bit_identical_to_flat() {
        // The same K/V rows served flat and served through a tiny-page
        // pool must produce identical outputs — for a one-row decode
        // chunk and a multi-row prefill chunk alike.
        let (q, calib, cfg) = setup();
        let (_, wk, wv, _) = q.projections();
        let xq = q.quantize_input_q(&calib[0]);
        let keys = wk.forward(&xq);
        let vals = wv.forward(&xq);
        let mut pool_k = KvPool::<i8>::new(2, cfg.d_model);
        let mut pool_v = KvPool::<i8>::new(2, cfg.d_model);
        let mut seq_k = KvSeq::new();
        let mut seq_v = KvSeq::new();
        for r in 0..keys.rows() {
            pool_k.push_row(&mut seq_k, keys.row(r));
            pool_v.push_row(&mut seq_v, vals.row(r));
        }
        assert_eq!(CacheRef::paged(&pool_k, &seq_k).rows(), keys.rows());
        // The caches already hold the last `n` rows the chunk feeds.
        for n in [1, 3] {
            let rows = xq.submatrix(xq.rows() - n, 0, n, cfg.d_model).unwrap();
            let flat = cached_mha_rows(
                &q,
                &rows,
                &[n],
                &[CacheRef::flat(&keys)],
                &[CacheRef::flat(&vals)],
                true,
            );
            let paged = cached_mha_rows(
                &q,
                &rows,
                &[n],
                &[CacheRef::paged(&pool_k, &seq_k)],
                &[CacheRef::paged(&pool_v, &seq_v)],
                true,
            );
            assert_eq!(flat, paged, "{n}-row chunk");
        }
    }

    #[test]
    #[should_panic(
        expected = "causal prefill group 1: cache holds 2 rows, fewer than the chunk's 3"
    )]
    fn causal_chunk_longer_than_its_cache_is_rejected() {
        // A causal group states each row's legal prefix as
        // `ctx - rows + j + 1`; a cache that does not yet hold the
        // chunk's own rows must be refused, not wrapped around.
        let (q, calib, cfg) = setup();
        let (_, wk, wv, _) = q.projections();
        let xq = q.quantize_input_q(&calib[0]);
        let full = (wk.forward(&xq), wv.forward(&xq));
        let short = xq.submatrix(0, 0, 2, cfg.d_model).unwrap();
        let short = (wk.forward(&short), wv.forward(&short));
        let _ = cached_mha_rows(
            &q,
            &xq,
            &[3, 3],
            &[CacheRef::flat(&full.0), CacheRef::flat(&short.0)],
            &[CacheRef::flat(&full.1), CacheRef::flat(&short.1)],
            true,
        );
    }
}
