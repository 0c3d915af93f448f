//! Continuous-batching inference over the INT8 paged-KV decoder, with
//! chunked prefill for long prompts.
//!
//! The paper's accelerator cuts per-block latency; this layer keeps the
//! array busy across *requests*. A [`ContinuousBatcher`] owns a fixed
//! number of decode **slots** and one [`KvArena`] — the shared pool of
//! fixed-size KV pages every in-flight session's caches live in. Pages
//! are allocated on demand as tokens are consumed and go back to the
//! free list the moment a request retires, so the engine's KV footprint
//! tracks the tokens actually resident
//! ([`ServingStats::kv_bytes_in_use`]) instead of a per-slot
//! `max_len` reservation.
//!
//! Waiting requests queue up, are admitted first come first served, and
//! every [`ContinuousBatcher::step`]
//! advances *all* in-flight sessions together through one batched layer
//! pass ([`QuantSeq2Seq::prefill_sessions_greedy`]) — one multi-row GEMM
//! per weight matrix per step instead of one GEMM per request per layer.
//! The step takes each row's next token from the greedy head
//! (`transformer::greedy`: exactly the `argmax` of the FP32 output
//! projection, without forming the `b x vocab` logits);
//! [`ServingStats::greedy_candidate_tiles`] and
//! [`ServingStats::greedy_fallback_rows`] report what it did.
//!
//! **Admission** is batched the same way: each refill collects every
//! request it admits without a prefix hit and opens their sessions with
//! one stacked
//! [`QuantSeq2Seq::start_sessions`] pass, so the encoder's weights and
//! the cross-attention `W_K`/`W_V` stream once per refill rather than
//! once per source. [`ServingStats::admission_batches`] and
//! [`ServingStats::sources_encoded`] count those passes and their
//! sources.
//!
//! **Chunked prefill:** a request may carry a target-side *prompt*
//! ([`Request::with_prompt`]) that must be ingested before generation.
//! Instead of feeding it one token per step (L steps for an L-token
//! prompt), the engine consumes it in chunks of up to
//! [`EngineConfig::prefill_chunk`] rows, and a length-1 chunk *is* a
//! decode step — so one batched model call mixes prefill chunks from
//! ramping-up requests with single decode rows from requests already
//! generating. A per-step budget ([`EngineConfig::max_prefill_rows`])
//! bounds how many prefill rows may share a step with decode rows, so a
//! burst of long prompts cannot starve in-flight decodes; the first
//! prefilling slot always makes progress even when the budget is
//! exhausted.
//!
//! **Bit-identity guarantee:** the batched datapath is row-independent
//! and the intra-chunk causal prefix leaves exactly-zero probability
//! codes for a row's future columns, so every response is
//! bit-identical to decoding that request alone token-at-a-time
//! ([`QuantSeq2Seq::greedy_decode_incremental`] /
//! [`QuantSeq2Seq::greedy_decode_with_prompt`]) — regardless of batch
//! size, chunk size, arrival order, or which requests shared its steps.
//! Tests (including a property test over random arrival orders) assert
//! this.
//!
//! **Graceful degradation:** invalid inputs return typed
//! [`ServingError`]s instead of panicking. Each engine owns its fault
//! state ([`faults::FaultState`]: a plan from
//! [`ContinuousBatcher::with_fault_plan`], the ABFT checker from
//! `ACCEL_ABFT` or [`ContinuousBatcher::with_checker`]) and makes it
//! the stepping thread's active one for each step, so two engines on two
//! threads never see each other's faults. It keeps the
//! [`tensor::Policy`] it was built under (worker count, INT8 tier cap,
//! KV page height) the same way. When the checker is on, every
//! batched model call and every admission's stacked encoder pass is
//! bracketed by the engine's detection counter
//! ([`ServingStats::detected`]): a checker-flagged step is rolled back
//! chunk-for-chunk
//! ([`QuantIncrementalSession::rollback_rows`] — paged truncation frees
//! any page the rollback empties), a flagged encoder pass releases the
//! sessions it opened, and either is recomputed up to
//! [`EngineConfig::max_step_retries`] times — a transient upset fires
//! once per GEMM-pass index, so the replay is clean and the affected
//! request still completes bit-identically. Passes that stay flagged
//! after all retries charge every slot that shared them; a slot charged
//! [`EngineConfig::quarantine_after`] times is **quarantined** (its
//! occupant retires degraded and the slot never refills). Per-request
//! **deadlines** ([`Request::deadline_steps`] /
//! [`EngineConfig::deadline_steps`]) bound how many engine steps a
//! request may hold a slot.
//!
//! Under the hood there is one model call per step and one body
//! behind it: [`QuantSeq2Seq::prefill_sessions_greedy`] stacks the
//! chunk rows of every slot, runs each layer's weight GEMMs once over
//! the stack (the FFN ResBlocks through `quantized::QuantExec`), and
//! calls `quantized::cached_mha_rows` — a plain function over borrowed
//! per-session caches, not a graph executor — for the attention
//! ResBlocks. A decode row, a prefill chunk, a forked session and a
//! replayed (rolled-back) chunk all take that same path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prefix;

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quantized::incremental::{KvArena, QuantIncrementalSession};

use crate::prefix::PrefixIndex;
use faults::{FaultPlan, FaultState, Injector};
use quantized::QuantSeq2Seq;
use tensor::phase::{self, Phase, PhaseRecorder, StepKind};
use tensor::Policy;
use transformer::tasks::{BOS, EOS};

/// Why the serving layer rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// `EngineConfig::max_batch` was zero.
    ZeroSlots,
    /// A request's source sentence was empty.
    EmptySource {
        /// The offending request's id.
        id: u64,
    },
    /// A request reused an id this engine has already accepted.
    DuplicateId {
        /// The reused id.
        id: u64,
    },
    /// The bounded waiting queue ([`EngineConfig::max_queue`]) is full;
    /// the request was **shed** at admission instead of growing the
    /// queue without limit. The id is *not* recorded, so the caller may
    /// retry the same id after backoff.
    QueueFull {
        /// The shed request's id.
        id: u64,
    },
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::ZeroSlots => write!(f, "need at least one decode slot"),
            ServingError::EmptySource { id } => {
                write!(f, "request {id}: source must be non-empty")
            }
            ServingError::DuplicateId { id } => {
                write!(f, "request id {id} already submitted")
            }
            ServingError::QueueFull { id } => {
                write!(f, "request {id}: waiting queue full, shed at admission")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// One translation/generation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen identifier; responses are returned sorted by it.
    /// Must be unique within an engine's lifetime.
    pub id: u64,
    /// Source-token sentence (must be non-empty).
    pub src: Vec<usize>,
    /// Target-side prompt consumed (after `BOS`) before generation
    /// begins — the long-context prefill workload. May be empty. Prompt
    /// tokens are ingested in chunks and never appear in the response.
    pub prompt: Vec<usize>,
    /// Maximum number of tokens to generate.
    pub max_new_tokens: usize,
    /// Optional per-request deadline: the maximum number of engine steps
    /// this request may hold a slot (overrides
    /// [`EngineConfig::deadline_steps`]). A request cut off by its
    /// deadline retires with the tokens generated so far and
    /// [`FinishReason::Deadline`].
    pub deadline_steps: Option<usize>,
    /// Optional **wall-clock** deadline in milliseconds, measured from
    /// [`ContinuousBatcher::submit`]. A request still waiting in the
    /// queue when its deadline passes retires immediately with
    /// [`FinishReason::Deadline`] and zero tokens — it never consumes a
    /// slot or a KV page. A request already in a slot is preempted at
    /// the first step past the deadline, keeping the tokens generated
    /// so far (the wall-clock analogue of `deadline_steps`).
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with no prompt and no per-request deadline.
    pub fn new(id: u64, src: Vec<usize>, max_new_tokens: usize) -> Self {
        Self {
            id,
            src,
            prompt: Vec::new(),
            max_new_tokens,
            deadline_steps: None,
            deadline_ms: None,
        }
    }

    /// Attaches a target-side prompt to prefill before generating.
    pub fn with_prompt(mut self, prompt: Vec<usize>) -> Self {
        self.prompt = prompt;
        self
    }

    /// Attaches a wall-clock deadline (milliseconds from submission).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// Why a request's lifetime ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Decoding produced `EOS` (normal completion).
    Eos,
    /// The `max_new_tokens` budget was spent (also the reason reported
    /// for zero-budget requests, which finish at submission).
    Budget,
    /// A step-count or wall-clock deadline preempted the request; the
    /// tokens generated before the cutoff are kept. A request whose
    /// wall-clock deadline passed while it was still queued retires
    /// this way with zero tokens, without ever touching a slot.
    Deadline,
    /// The request's slot was quarantined after repeated persistent
    /// faults; the tokens generated so far are returned degraded.
    Quarantine,
}

/// A finished request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's identifier.
    pub id: u64,
    /// Generated tokens (no BOS, no prompt; no EOS unless EOS is being
    /// ignored).
    pub tokens: Vec<usize>,
    /// Why the request finished (EOS, budget, deadline, quarantine).
    pub finish: FinishReason,
    /// Engine step index (0-based) at which this request's first token
    /// was generated — the time-to-first-token in steps. `None` if the
    /// request produced no tokens. Scheduling metadata: it depends on
    /// queueing and chunk policy, not on the decoded content.
    pub first_token_step: Option<usize>,
}

impl Response {
    /// Whether decoding stopped on `EOS` (as opposed to the budget, a
    /// deadline, or slot quarantine).
    pub fn hit_eos(&self) -> bool {
        self.finish == FinishReason::Eos
    }
}

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of decode slots — the maximum number of *requests*
    /// stacked per step (a prefilling request may contribute several
    /// rows).
    pub max_batch: usize,
    /// Maximum prompt rows one prefilling request consumes per step.
    /// `1` degenerates to token-at-a-time prefill.
    pub prefill_chunk: usize,
    /// Per-step budget of prefill rows summed over all prefilling
    /// slots, so prompt ingestion cannot starve in-flight decodes. The
    /// first prefilling slot always progresses even when the budget is
    /// already spent by a smaller value than its chunk.
    pub max_prefill_rows: usize,
    /// When `true`, `EOS` neither stops a request nor is stripped from
    /// its output: every request generates exactly `max_new_tokens`
    /// tokens. Benchmarks use this so each batch size does identical
    /// work.
    pub ignore_eos: bool,
    /// Default per-request deadline in engine steps (`None` = no
    /// deadline). [`Request::deadline_steps`] overrides this per
    /// request.
    pub deadline_steps: Option<usize>,
    /// How many times a checker-flagged step is rolled back and
    /// recomputed before its output is accepted as-is and the slots
    /// involved are charged with a persistent fault.
    pub max_step_retries: usize,
    /// Quarantine a slot after this many persistent-fault charges
    /// (`0` disables quarantine). A quarantined slot evicts its
    /// occupant (degraded response, `hit_eos == false`) and never
    /// admits another request.
    pub quarantine_after: usize,
    /// Byte budget for the shared-prefix KV cache
    /// ([`prefix::PrefixIndex`], a flat list of session snapshots with
    /// LRU eviction): a completed prefill is snapshotted at a page
    /// boundary, and a later request sharing a `(src, prompt)` prefix
    /// with a snapshot forks it instead of re-running that prefill. `0`
    /// disables the cache (the default unless `ACCEL_PREFIX_CACHE` is
    /// set). The budget counts *logical* entry bytes; physical pages
    /// are shared copy-on-write, so the true footprint is at most — and
    /// with overlapping entries less than — this figure.
    pub prefix_cache_bytes: usize,
    /// Bound on the waiting queue: [`ContinuousBatcher::submit`] returns
    /// [`ServingError::QueueFull`] (a typed **shed**, counted in
    /// [`ServingStats::shed`]) once this many requests are queued,
    /// instead of growing the queue without limit. `0` means unbounded
    /// (the pre-front-door behaviour; default unless `ACCEL_MAX_QUEUE`
    /// is set).
    pub max_queue: usize,
}

impl EngineConfig {
    /// A config with `max_batch` slots and default policies.
    pub fn with_max_batch(max_batch: usize) -> Self {
        Self {
            max_batch,
            prefill_chunk: 16,
            max_prefill_rows: 64,
            ignore_eos: false,
            deadline_steps: None,
            max_step_retries: 2,
            quarantine_after: 2,
            prefix_cache_bytes: tensor::envcfg::prefix_cache_bytes(0),
            max_queue: tensor::envcfg::max_queue(0),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::with_max_batch(16)
    }
}

tensor::counters! {
    /// Counters accumulated across an engine's lifetime. [`ServingStats::merge`]
    /// rolls several engines up (KV byte counters add, since each engine
    /// owns its own arena; `peak_batch` takes the larger).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServingStats {
        /// Batched steps executed.
        pub steps: usize => sum,
        /// Total active requests summed over all steps
        /// (`≤ steps · max_batch`).
        pub rows: usize => sum,
        /// Prompt rows consumed by chunked prefill (including each
        /// request's `BOS` row), summed over all steps.
        pub prefill_rows: usize => sum,
        /// Tokens appended to responses.
        pub tokens_generated: usize => sum,
        /// Largest number of requests any single step carried.
        pub peak_batch: usize => max,
        /// Requests admitted into slots.
        pub admitted: usize => sum,
        /// Stacked encoder passes admission ran: one per refill that
        /// admitted at least one request without a prefix hit
        /// (`QuantSeq2Seq::start_sessions`).
        pub admission_batches: usize => sum,
        /// Sources those passes encoded — every admission that did not fork
        /// a cached prefix, so `sources_encoded + prefix_hits == admitted`.
        /// Divided by [`Self::admission_batches`] this is admission's
        /// batching factor: how many sources share one stream of the encoder
        /// weights.
        pub sources_encoded: usize => sum,
        /// Requests retired (EOS, budget, deadline, or quarantine).
        pub retired: usize => sum,
        /// Resident KV-pool bytes after the most recent step (whole pages
        /// held by live sessions; retired sessions' pages are already back
        /// on the free list).
        pub kv_bytes_in_use: usize => sum,
        /// High-water mark of resident KV-pool bytes across all steps,
        /// measured before retirement releases — the budget a deployment
        /// must actually provision.
        pub kv_bytes_peak: usize => sum,
        /// Steps the ABFT checker flagged (counting each failed attempt).
        pub faulty_steps: usize => sum,
        /// Rollback-and-recompute retries performed.
        pub retries: usize => sum,
        /// ABFT row checks run (one per `QLinear` pass while the checker is
        /// on, admission's encoder pass included).
        pub checked: usize => sum,
        /// Faults the engine's plan injected.
        pub injected: usize => sum,
        /// Checksum mismatches the checker detected.
        pub detected: usize => sum,
        /// Slots quarantined after repeated persistent faults.
        pub quarantined: usize => sum,
        /// Requests cut off by a deadline.
        pub deadline_expired: usize => sum,
        /// Requests shed at submission because the bounded waiting queue
        /// ([`EngineConfig::max_queue`]) was full.
        pub shed: usize => sum,
        /// Requests whose wall-clock deadline expired while they were still
        /// queued — retired with [`FinishReason::Deadline`] and zero tokens
        /// without ever consuming a slot or a KV page (a subset of
        /// [`Self::deadline_expired`]).
        pub expired_in_queue: usize => sum,
        /// Requests cancelled via [`ContinuousBatcher::cancel`] (client
        /// disconnect, caller abort); a cancelled request produces no
        /// [`Response`] and its KV pages return to the free list at once.
        pub cancelled: usize => sum,
        /// Fused graph nodes executed by this engine's steps (`LinearRelu`,
        /// `LinearAdd`, and `cached_mha_rows`' hand-fused drains).
        pub ops_fused: usize => sum,
        /// Bytes of intermediate tensors fusion never materialized across
        /// this engine's steps — the memory traffic the fused drains
        /// removed, the fusion analogue of [`Self::kv_bytes_in_use`].
        pub intermediates_elided_bytes: usize => sum,
        /// Admissions that attached to a cached prefix (skipping its
        /// prefill). Zero when the prefix cache is disabled.
        pub prefix_hits: usize => sum,
        /// Admissions that searched the prefix cache and found nothing
        /// reusable. Zero when the prefix cache is disabled.
        pub prefix_misses: usize => sum,
        /// Prompt rows (including `BOS`) that prefix hits did **not**
        /// re-ingest — prefill work the cache saved. `prefill_rows` shrinks
        /// by exactly this amount relative to a cold engine.
        pub prefix_rows_reused: usize => sum,
        /// Logical KV bytes prefix hits attached to instead of
        /// re-materializing (whole resident pages of the reused rows;
        /// physically shared copy-on-write, so the arena pays them once).
        pub prefix_bytes_shared: usize => sum,
        /// Column tiles of the output projection the greedy head recomputed
        /// exactly, summed over every row of every step (16 columns each;
        /// `transformer::greedy`). Divided by `rows` this is the screen's
        /// selectivity — a handful per row when it works.
        pub greedy_candidate_tiles: usize => sum,
        /// Rows whose next token came from the full FP32 projection instead
        /// (the greedy head's guards, or too many candidates): the head
        /// degenerating to the cost it replaces.
        pub greedy_fallback_rows: usize => sum,
    }
}

/// An in-flight request occupying a decode slot.
#[derive(Debug)]
struct Slot {
    id: u64,
    session: QuantIncrementalSession,
    /// Tokens still to feed the model: the un-ingested tail of
    /// `[BOS] + prompt` while prefilling, then exactly the one
    /// last-generated token while decoding.
    pending: VecDeque<usize>,
    /// `true` until the first token is generated — while set, consumed
    /// rows count as prefill and intermediate logits are discarded.
    in_prefill: bool,
    out: Vec<usize>,
    budget: usize,
    first_token_step: Option<usize>,
    /// Full prefix-cache key (`src ++ SEP ++ [BOS] + prompt`), kept so
    /// the completed prefill can be snapshotted into the index. Empty
    /// when the prefix cache is disabled.
    prefix_key: Vec<usize>,
    /// Engine steps this request has participated in.
    age: usize,
    /// Effective deadline (request override, else config default).
    deadline: Option<usize>,
    /// Absolute wall-clock deadline (from [`Request::deadline_ms`]).
    wall_deadline: Option<Instant>,
}

/// Why a slot retired this step.
enum Retire {
    Eos,
    Budget,
    Deadline,
}

/// A request waiting for a slot, with its wall-clock deadline resolved
/// to an absolute instant at submission.
#[derive(Debug)]
struct Queued {
    req: Request,
    wall_deadline: Option<Instant>,
}

/// A request one refill has taken off the queue for `slot`: a prefix
/// hit arrives with its forked session, a miss waits for the refill's
/// one stacked `start_sessions` call.
struct Admit {
    slot: usize,
    queued: Queued,
    /// The target rows still to ingest (past the reused prefix).
    pending: VecDeque<usize>,
    hit: Option<QuantIncrementalSession>,
    prefix_key: Vec<usize>,
}

/// Borrows the planned slots' sessions in slot order. `plan` holds
/// ascending slot indices, so one pass over `slots` suffices.
fn planned_sessions<'a>(
    slots: &'a mut [Option<Slot>],
    plan: &[(usize, Vec<usize>)],
) -> Vec<&'a mut QuantIncrementalSession> {
    let mut want = plan.iter().map(|(i, _)| *i).peekable();
    slots
        .iter_mut()
        .enumerate()
        .filter_map(|(i, slot)| {
            if want.peek() == Some(&i) {
                want.next();
                slot.as_mut().map(|s| &mut s.session)
            } else {
                None
            }
        })
        .collect()
}

/// The continuous-batching engine (one model instance). Owns the
/// [`KvArena`] all of its sessions page their KV caches into.
#[derive(Debug)]
pub struct ContinuousBatcher<'m> {
    model: &'m QuantSeq2Seq,
    cfg: EngineConfig,
    arena: KvArena,
    pending: VecDeque<Queued>,
    slots: Vec<Option<Slot>>,
    /// Slots withdrawn from service after repeated persistent faults.
    quarantined: Vec<bool>,
    /// Persistent-fault charges per slot index.
    slot_faults: Vec<usize>,
    /// Every id this engine has ever accepted (duplicate rejection).
    seen_ids: HashSet<u64>,
    finished: Vec<Response>,
    /// `(id, token)` pairs in generation order since the last
    /// [`ContinuousBatcher::drain_emitted`] — the streaming feed the
    /// network front door forwards token-by-token.
    emitted: Vec<(u64, usize)>,
    stats: ServingStats,
    /// Shared-prefix KV cache (disabled at budget 0 — see
    /// [`EngineConfig::prefix_cache_bytes`]).
    prefix: PrefixIndex,
    /// Step phase recorder; `None` until
    /// [`ContinuousBatcher::record_phases`] switches it on.
    phases: Option<Arc<PhaseRecorder>>,
    /// Fault plan, checker flag and their counters; the stepping
    /// thread's active state for the length of each step.
    faults: FaultState,
    /// Worker count, INT8 tier cap and page height, captured from the
    /// thread that built the engine; active for the length of each step.
    policy: Policy,
}

impl<'m> ContinuousBatcher<'m> {
    /// Creates an engine with `cfg.max_batch` empty slots and a fresh
    /// KV arena sized for `model`. The engine keeps the calling thread's
    /// [`Policy`] and steps under it, whichever thread steps it.
    ///
    /// # Errors
    ///
    /// [`ServingError::ZeroSlots`] if `cfg.max_batch == 0`.
    pub fn new(model: &'m QuantSeq2Seq, cfg: EngineConfig) -> Result<Self, ServingError> {
        if cfg.max_batch == 0 {
            return Err(ServingError::ZeroSlots);
        }
        Ok(Self {
            model,
            cfg,
            arena: KvArena::for_model(model),
            pending: VecDeque::new(),
            slots: (0..cfg.max_batch).map(|_| None).collect(),
            quarantined: vec![false; cfg.max_batch],
            slot_faults: vec![0; cfg.max_batch],
            seen_ids: HashSet::new(),
            finished: Vec::new(),
            emitted: Vec::new(),
            stats: ServingStats::default(),
            prefix: PrefixIndex::new(cfg.prefix_cache_bytes),
            phases: None,
            faults: FaultState::new(None, tensor::envcfg::abft_env()),
            policy: Policy::current(),
        })
    }

    /// Installs a fault plan on this engine; its GEMM passes are
    /// numbered from this engine's first. Builder-style; pair with
    /// [`ContinuousBatcher::with_checker`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults.injector = Some(Injector::new(plan));
        self
    }

    /// Switches the ABFT checker on or off, overriding `ACCEL_ABFT`.
    pub fn with_checker(mut self, on: bool) -> Self {
        self.faults.checker = on;
        self
    }

    /// Queues a request (it enters a slot at the next refill).
    ///
    /// # Errors
    ///
    /// [`ServingError::EmptySource`] if the source sentence is empty,
    /// [`ServingError::DuplicateId`] if the id was already accepted,
    /// [`ServingError::QueueFull`] if the bounded queue is full — the
    /// request is **shed** (counted in [`ServingStats::shed`]) and its
    /// id stays unrecorded so the caller may retry it after backoff.
    pub fn submit(&mut self, req: Request) -> Result<(), ServingError> {
        if req.src.is_empty() {
            return Err(ServingError::EmptySource { id: req.id });
        }
        if self.seen_ids.contains(&req.id) {
            return Err(ServingError::DuplicateId { id: req.id });
        }
        if self.cfg.max_queue > 0 && self.pending.len() >= self.cfg.max_queue {
            self.stats.shed += 1;
            return Err(ServingError::QueueFull { id: req.id });
        }
        self.seen_ids.insert(req.id);
        if req.max_new_tokens == 0 {
            // Nothing to generate; finish without occupying a slot.
            self.finished.push(Response {
                id: req.id,
                tokens: Vec::new(),
                finish: FinishReason::Budget,
                first_token_step: None,
            });
            return Ok(());
        }
        let wall_deadline = req
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        self.pending.push_back(Queued { req, wall_deadline });
        Ok(())
    }

    /// Cancels a request by id — a queued request is dropped before it
    /// ever touches a slot; an in-flight request is evicted and its KV
    /// pages go straight back to the arena's free list. No [`Response`]
    /// is produced (the canonical caller is a client that disconnected
    /// mid-stream, so there is nobody to answer). Returns `false` when
    /// the id is unknown or already finished.
    pub fn cancel(&mut self, id: u64) -> bool {
        if let Some(qpos) = self.pending.iter().position(|q| q.req.id == id) {
            self.pending.remove(qpos);
            self.stats.cancelled += 1;
            return true;
        }
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|s| s.id == id) {
                let mut s = slot.take().expect("checked occupied");
                s.session.release(&mut self.arena);
                self.stats.cancelled += 1;
                self.stats.kv_bytes_in_use = self.arena.kv_bytes_in_use();
                return true;
            }
        }
        false
    }

    /// Takes the `(id, token)` pairs generated since the last call, in
    /// generation order — the per-step streaming feed (a front door
    /// forwards these as they appear; batch callers may ignore them and
    /// read whole [`Response`]s instead).
    pub fn drain_emitted(&mut self) -> Vec<(u64, usize)> {
        std::mem::take(&mut self.emitted)
    }

    /// Takes the responses finished since the last call (arrival order,
    /// not id order). [`ContinuousBatcher::run_to_completion`] is the
    /// batch alternative that sorts by id.
    pub fn drain_finished(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.finished)
    }

    /// Requests waiting for a slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Requests currently holding a slot.
    pub fn active_len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Slots withdrawn from service after repeated persistent faults.
    pub fn quarantined_len(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// The engine's lifetime counters so far.
    pub fn stats(&self) -> ServingStats {
        let c = self.faults.counters;
        ServingStats {
            checked: c.checked as usize,
            injected: c.injected as usize,
            detected: c.detected as usize,
            ..self.stats
        }
    }

    /// Switches the step phase recorder (`tensor::phase`) on for every
    /// later step; a second call keeps the recorder and its totals.
    /// Recording never changes a step's output.
    pub fn record_phases(&mut self) {
        self.phases
            .get_or_insert_with(|| Arc::new(PhaseRecorder::new()));
    }

    /// The phase recorder, once [`ContinuousBatcher::record_phases`]
    /// has switched it on: per-step-kind totals and the recent spans.
    pub fn phase_recorder(&self) -> Option<&PhaseRecorder> {
        self.phases.as_deref()
    }

    /// Resident KV-pool bytes right now (whole pages held by live
    /// sessions *and* by cached prefix snapshots; shared pages count
    /// once).
    pub fn kv_bytes_in_use(&self) -> usize {
        self.arena.kv_bytes_in_use()
    }

    /// Cached prefixes currently held by the prefix index.
    pub fn prefix_cache_entries(&self) -> usize {
        self.prefix.entries()
    }

    /// Logical bytes charged against the prefix-cache budget.
    pub fn prefix_cache_bytes(&self) -> usize {
        self.prefix.bytes()
    }

    /// FIFO admission: fills free (non-quarantined) slots from the
    /// front of the queue, in submit order. Every request admitted
    /// without a prefix hit is then started by one stacked
    /// [`QuantSeq2Seq::start_sessions`] pass, which pads nothing, so
    /// admitting similar source lengths together would save nothing.
    /// `verify` says whether the ABFT checker is on.
    fn refill(&mut self, verify: bool) {
        // Retire queued requests whose wall-clock deadline has already
        // passed — they finish with zero tokens and never consume a
        // slot or a KV page (the answer would be dead on arrival).
        if self.pending.iter().any(|q| q.wall_deadline.is_some()) {
            let now = Instant::now();
            let mut keep = VecDeque::with_capacity(self.pending.len());
            for q in self.pending.drain(..) {
                if q.wall_deadline.is_some_and(|d| now >= d) {
                    self.stats.deadline_expired += 1;
                    self.stats.expired_in_queue += 1;
                    self.finished.push(Response {
                        id: q.req.id,
                        tokens: Vec::new(),
                        finish: FinishReason::Deadline,
                        first_token_step: None,
                    });
                } else {
                    keep.push_back(q);
                }
            }
            self.pending = keep;
        }
        let lookup = phase::span(Phase::Admission);
        // Admission is FIFO: each free slot, in slot order, takes the
        // oldest queued request.
        let free: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_none() && !self.quarantined[i])
            .collect();
        let mut admits: Vec<Admit> = Vec::new();
        for slot in free {
            let Some(queued) = self.pending.pop_front() else {
                break;
            };
            let mut target = Vec::with_capacity(1 + queued.req.prompt.len());
            target.push(BOS);
            target.extend(queued.req.prompt.iter().copied());
            // Shared-prefix fast path: attach to the longest cached
            // prefix of (src, target) and prefill only the suffix. The
            // index leaves the session at least one row to re-ingest —
            // decode from a fork is bit-identical to a cold prefill, so
            // hits change scheduling, never tokens.
            let (hit, prefix_key) = if self.prefix.enabled() {
                let key = prefix::prefix_key(&queued.req.src, &target);
                let hit = self.prefix.attach(&key, &mut self.arena);
                match &hit {
                    Some((session, rows)) => {
                        self.stats.prefix_hits += 1;
                        self.stats.prefix_rows_reused += rows;
                        self.stats.prefix_bytes_shared += session.resident_kv_bytes(&self.arena);
                    }
                    None => self.stats.prefix_misses += 1,
                }
                (hit, key)
            } else {
                (None, Vec::new())
            };
            let reused = hit.as_ref().map_or(0, |(_, rows)| *rows);
            admits.push(Admit {
                slot,
                queued,
                pending: target[reused..].iter().copied().collect(),
                hit: hit.map(|(session, _)| session),
                prefix_key,
            });
        }
        drop(lookup);
        // Every cold admission of this refill is encoded and
        // cross-projected in one stacked pass.
        let (cold_slots, cold): (Vec<usize>, Vec<&[usize]>) = admits
            .iter()
            .filter(|a| a.hit.is_none())
            .map(|a| (a.slot, a.queued.req.src.as_slice()))
            .unzip();
        let mut started = if cold.is_empty() {
            Vec::new()
        } else {
            self.stats.admission_batches += 1;
            self.stats.sources_encoded += cold.len();
            self.start_cold(&cold, &cold_slots, verify)
        }
        .into_iter();
        for a in admits {
            let Queued { req, wall_deadline } = a.queued;
            let session = a
                .hit
                .unwrap_or_else(|| started.next().expect("one started session per miss"));
            self.slots[a.slot] = Some(Slot {
                id: req.id,
                session,
                pending: a.pending,
                in_prefill: true,
                prefix_key: a.prefix_key,
                out: Vec::new(),
                budget: req.max_new_tokens,
                first_token_step: None,
                age: 0,
                deadline: req.deadline_steps.or(self.cfg.deadline_steps),
                wall_deadline,
            });
            self.stats.admitted += 1;
        }
    }

    /// Opens the cold admissions' sessions with one stacked
    /// [`QuantSeq2Seq::start_sessions`] pass. With the checker on
    /// (`verify`), a pass that raised the detection counter is released
    /// and re-run — the encode is deterministic and a transient upset
    /// fires once — up to `max_step_retries` times; a pass still flagged
    /// after that is accepted and charged to `slots`, as the model
    /// call's retry loop does.
    fn start_cold(
        &mut self,
        cold: &[&[usize]],
        slots: &[usize],
        verify: bool,
    ) -> Vec<QuantIncrementalSession> {
        let model = self.model;
        if !verify {
            return model.start_sessions(&mut self.arena, cold);
        }
        let detected = || faults::with_active(|f| f.counters.detected);
        let mut attempt = 0;
        loop {
            let before = detected();
            let sessions = model.start_sessions(&mut self.arena, cold);
            if detected() == before {
                return sessions;
            }
            self.stats.faulty_steps += 1;
            if attempt >= self.cfg.max_step_retries {
                self.charge(slots.iter().copied());
                return sessions;
            }
            attempt += 1;
            self.stats.retries += 1;
            for mut session in sessions {
                session.release(&mut self.arena);
            }
        }
    }

    /// Charges each of `slots` for a pass that stayed checker-flagged
    /// after every retry: the checker cannot attribute a mismatch to a
    /// row, so every slot that shared the pass is charged, and a slot
    /// charged `quarantine_after` times is withdrawn from service.
    fn charge(&mut self, slots: impl IntoIterator<Item = usize>) {
        for i in slots {
            self.slot_faults[i] += 1;
            if self.cfg.quarantine_after > 0
                && self.slot_faults[i] >= self.cfg.quarantine_after
                && !self.quarantined[i]
            {
                self.quarantined[i] = true;
                self.stats.quarantined += 1;
            }
        }
    }

    /// Plans this step's per-slot chunks: a prefilling slot takes up to
    /// `prefill_chunk` of its remaining prompt rows, bounded by the
    /// shared `max_prefill_rows` budget (the first prefilling slot
    /// always progresses, so prefill can never stall outright; slots
    /// the budget squeezes to zero rows sit the step out). A decoding
    /// slot always takes its single pending token. Returns ascending
    /// `(slot index, chunk)` pairs.
    fn plan_step(&self) -> Vec<(usize, Vec<usize>)> {
        let chunk_cap = self.cfg.prefill_chunk.max(1);
        let mut budget = self.cfg.max_prefill_rows;
        let mut granted = false;
        let mut plan = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let take = if slot.in_prefill {
                let want = slot.pending.len().min(chunk_cap);
                let take = want.min(budget);
                if take == 0 && !granted {
                    want
                } else {
                    take
                }
            } else {
                1
            };
            if take == 0 {
                continue;
            }
            if slot.in_prefill {
                budget = budget.saturating_sub(take);
                granted = true;
            }
            plan.push((i, slot.pending.iter().take(take).copied().collect()));
        }
        plan
    }

    /// Advances every in-flight session — prefilling slots by one
    /// prompt chunk, decoding slots by one token — in a single batched
    /// model call (admitting queued requests into free slots first).
    /// Returns `false` when there is nothing left to do — queue and
    /// slots are both empty, or every remaining slot is quarantined
    /// (check [`ContinuousBatcher::pending_len`] for stranded
    /// requests).
    ///
    /// When the ABFT checker is on, a step that raises the engine's
    /// detection counter is rolled back chunk-for-chunk and recomputed
    /// (up to `max_step_retries` times); the transient-upset replay is
    /// bit-identical to a fault-free step, so detected faults are
    /// invisible in the output stream.
    pub fn step(&mut self) -> bool {
        // Every `QLinear` pass of a step — admission's encoder pass and
        // the model call — runs on this thread, under this engine's
        // fault state and policy.
        let mut faults = std::mem::take(&mut self.faults);
        let policy = self.policy;
        let ran = faults.run(|| policy.run(|| self.recorded_step()));
        self.faults = faults;
        ran
    }

    /// [`ContinuousBatcher::step`] under the phase recorder, if on.
    fn recorded_step(&mut self) -> bool {
        let Some(rec) = self.phases.clone() else {
            return self.run_step();
        };
        let _active = rec.activate();
        rec.begin_step();
        let before = self.stats;
        let ran = self.run_step();
        let kind = if self.stats.admitted > before.admitted {
            StepKind::Admit
        } else if self.stats.prefill_rows > before.prefill_rows {
            StepKind::Prefill
        } else {
            StepKind::Decode
        };
        rec.end_step(ran.then_some(kind));
        ran
    }

    /// [`ContinuousBatcher::recorded_step`]'s body.
    fn run_step(&mut self) -> bool {
        let verify = faults::with_active(|f| f.checker).unwrap_or(false);
        self.refill(verify);
        let plan = self.plan_step();
        if plan.is_empty() {
            return false;
        }
        // The fusion tally covers the model call only, not admission.
        graph::tally::take();
        let model = self.model;
        let chunk_refs: Vec<&[usize]> = plan.iter().map(|(_, c)| c.as_slice()).collect();
        let detected = || faults::with_active(|f| f.counters.detected);
        let mut persistent_fault = false;
        let mut attempt = 0;
        let (tokens, greedy) = loop {
            let before = detected();
            let mut sessions = planned_sessions(&mut self.slots, &plan);
            let out = model.prefill_sessions_greedy(&mut self.arena, &mut sessions, &chunk_refs);
            if !verify || detected() == before {
                break out;
            }
            self.stats.faulty_steps += 1;
            if attempt >= self.cfg.max_step_retries {
                // Still flagged after every retry: accept the output
                // (better degraded than lost) and charge the slots.
                persistent_fault = true;
                break out;
            }
            attempt += 1;
            self.stats.retries += 1;
            // prefill_sessions advanced every planned session by its
            // whole chunk; rewind exactly those rows (freeing any
            // page the rollback empties) and replay the step.
            for (i, chunk) in &plan {
                let slot = self.slots[*i].as_mut().expect("planned slot is occupied");
                slot.session.rollback_rows(&mut self.arena, chunk.len());
            }
        };
        // Fused-op work of the model call (retried attempts count —
        // they ran).
        let fusion = graph::tally::take();
        self.stats.ops_fused += fusion.ops_fused as usize;
        self.stats.intermediates_elided_bytes += fusion.intermediates_elided_bytes as usize;
        self.stats.greedy_candidate_tiles += greedy.candidate_tiles;
        self.stats.greedy_fallback_rows += greedy.fallback_rows;
        // High-water mark before retirement hands pages back.
        self.stats.kv_bytes_peak = self.stats.kv_bytes_peak.max(self.arena.kv_bytes_in_use());
        if persistent_fault {
            // Repeat offenders are evicted below.
            self.charge(plan.iter().map(|(i, _)| *i));
        }
        let b = plan.len();
        // One clock read per step covers every wall-clock deadline
        // check; a deadline-free workload never branches on it.
        let wall_now = Instant::now();
        let past_wall = |slot: &Slot| slot.wall_deadline.is_some_and(|d| wall_now >= d);
        let mut retire: Vec<(usize, Retire)> = Vec::new();
        for ((i, chunk), &next) in plan.iter().zip(&tokens) {
            let slot = self.slots[*i].as_mut().expect("planned slot is occupied");
            slot.age += 1;
            for _ in 0..chunk.len() {
                slot.pending.pop_front();
            }
            if slot.in_prefill {
                self.stats.prefill_rows += chunk.len();
            }
            if !slot.pending.is_empty() {
                // Mid-prefill: the chunk's last-row token is for an
                // intermediate position, not the generation frontier.
                if slot.deadline.is_some_and(|d| slot.age >= d) || past_wall(slot) {
                    retire.push((*i, Retire::Deadline));
                }
                continue;
            }
            if next == EOS && !self.cfg.ignore_eos {
                retire.push((*i, Retire::Eos));
                continue;
            }
            if slot.in_prefill {
                slot.in_prefill = false;
                slot.first_token_step = Some(self.stats.steps);
                // Prefill just completed: offer it to the prefix cache
                // for future requests sharing this (src, prompt) prefix.
                self.prefix
                    .offer(&slot.prefix_key, &slot.session, &mut self.arena);
            }
            slot.out.push(next);
            self.emitted.push((slot.id, next));
            self.stats.tokens_generated += 1;
            if slot.out.len() >= slot.budget {
                retire.push((*i, Retire::Budget));
            } else if slot.deadline.is_some_and(|d| slot.age >= d) || past_wall(slot) {
                retire.push((*i, Retire::Deadline));
            } else {
                slot.pending.push_back(next);
            }
        }
        for (i, why) in retire {
            let mut slot = self.slots[i].take().expect("retiring an occupied slot");
            slot.session.release(&mut self.arena);
            if matches!(why, Retire::Deadline) {
                self.stats.deadline_expired += 1;
            }
            self.finished.push(Response {
                id: slot.id,
                tokens: slot.out,
                finish: match why {
                    Retire::Eos => FinishReason::Eos,
                    Retire::Budget => FinishReason::Budget,
                    Retire::Deadline => FinishReason::Deadline,
                },
                first_token_step: slot.first_token_step,
            });
            self.stats.retired += 1;
        }
        // Evict occupants of freshly quarantined slots with whatever
        // they have generated so far (degraded, not lost).
        for i in 0..self.slots.len() {
            if self.quarantined[i] {
                if let Some(mut slot) = self.slots[i].take() {
                    slot.session.release(&mut self.arena);
                    self.finished.push(Response {
                        id: slot.id,
                        tokens: slot.out,
                        finish: FinishReason::Quarantine,
                        first_token_step: slot.first_token_step,
                    });
                    self.stats.retired += 1;
                }
            }
        }
        self.stats.steps += 1;
        self.stats.rows += b;
        self.stats.peak_batch = self.stats.peak_batch.max(b);
        self.stats.kv_bytes_in_use = self.arena.kv_bytes_in_use();
        true
    }

    /// Steps until every submitted request has finished, then returns
    /// the responses sorted by request id. If every slot ends up
    /// quarantined while requests still wait, the stranded requests
    /// remain in [`ContinuousBatcher::pending_len`] (they were never
    /// started, so nothing of theirs is lost).
    pub fn run_to_completion(&mut self) -> Vec<Response> {
        while self.step() {}
        self.emitted.clear(); // batch callers read Responses, not the stream
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|r| r.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen};

    fn setup(n: usize) -> (QuantSeq2Seq, Vec<Vec<usize>>) {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(91);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
        let corpus = gen.corpus(n, &mut StdRng::seed_from_u64(92));
        let srcs = corpus.iter().map(|(s, _)| s.clone()).collect();
        (
            QuantSeq2Seq::from_trained(&model, &corpus, quantized::SoftmaxMode::Hardware),
            srcs,
        )
    }

    fn requests(srcs: &[Vec<usize>], max_new: usize) -> Vec<Request> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| Request::new(i as u64, s.clone(), max_new))
            .collect()
    }

    /// The decoded content of a response set — everything except the
    /// scheduling metadata (`first_token_step` depends on queueing).
    fn decoded(responses: &[Response]) -> Vec<(u64, Vec<usize>, bool)> {
        responses
            .iter()
            .map(|r| (r.id, r.tokens.clone(), r.hit_eos()))
            .collect()
    }

    #[test]
    fn admission_is_fifo_across_mixed_source_lengths() {
        // Short and long sources alternate in a queue twice as long as
        // the slots: the first refill takes the two oldest requests, not
        // the two whose lengths would pad best together.
        let (q, srcs) = setup(1);
        let short = srcs[0][..2].to_vec();
        let long: Vec<usize> = srcs[0].iter().cycle().take(12).copied().collect();
        let mut cfg = EngineConfig::with_max_batch(2);
        cfg.ignore_eos = true;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        let queue = [&short, &long, &short, &long];
        for (id, src) in queue.iter().enumerate() {
            engine
                .submit(Request::new(id as u64, src.to_vec(), 4))
                .unwrap();
        }
        assert!(engine.step());
        let in_flight: Vec<u64> = engine.slots.iter().flatten().map(|s| s.id).collect();
        assert_eq!(in_flight, [0, 1]);
        let responses = engine.run_to_completion();
        for (resp, src) in responses.iter().zip(queue) {
            let want = q.greedy_decode_incremental(src, 4);
            assert_eq!(resp.tokens[..want.len()], want, "id {}", resp.id);
        }
    }

    #[test]
    fn continuous_batch_matches_sequential_greedy() {
        let (q, srcs) = setup(6);
        for max_batch in [1usize, 2, 4, 16] {
            let mut engine =
                ContinuousBatcher::new(&q, EngineConfig::with_max_batch(max_batch)).unwrap();
            for r in requests(&srcs, 8) {
                engine.submit(r).unwrap();
            }
            let responses = engine.run_to_completion();
            assert_eq!(responses.len(), srcs.len());
            for (resp, src) in responses.iter().zip(&srcs) {
                let want = q.greedy_decode_incremental(src, 8);
                assert_eq!(resp.tokens, want, "batch {max_batch}, id {}", resp.id);
            }
        }
    }

    #[test]
    fn prompted_requests_match_sequential_prompt_decode() {
        // Chunked prefill at several chunk sizes (and a tight per-step
        // prefill-row budget) must generate exactly what token-at-a-time
        // prompt ingestion generates — bit for bit.
        let (q, srcs) = setup(4);
        let prompts: Vec<Vec<usize>> = srcs
            .iter()
            .map(|s| s.iter().cycle().take(11).copied().collect())
            .collect();
        let want: Vec<Vec<usize>> = srcs
            .iter()
            .zip(&prompts)
            .map(|(s, p)| q.greedy_decode_with_prompt(s, p, 6))
            .collect();
        for (prefill_chunk, max_prefill_rows) in [(1, 64), (4, 64), (16, 64), (16, 5), (5, 0)] {
            let mut cfg = EngineConfig::with_max_batch(4);
            cfg.prefill_chunk = prefill_chunk;
            cfg.max_prefill_rows = max_prefill_rows;
            let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
            for (i, (s, p)) in srcs.iter().zip(&prompts).enumerate() {
                engine
                    .submit(Request::new(i as u64, s.clone(), 6).with_prompt(p.clone()))
                    .unwrap();
            }
            let responses = engine.run_to_completion();
            assert_eq!(responses.len(), srcs.len());
            for (resp, want) in responses.iter().zip(&want) {
                assert_eq!(
                    &resp.tokens, want,
                    "chunk {prefill_chunk}, budget {max_prefill_rows}, id {}",
                    resp.id
                );
            }
            let stats = engine.stats();
            // Every [BOS]+prompt row went through chunked prefill.
            let total_prefill: usize = prompts.iter().map(|p| 1 + p.len()).sum();
            assert_eq!(stats.prefill_rows, total_prefill);
        }
    }

    #[test]
    fn prefix_hits_skip_prefill_and_decode_bit_identically() {
        // Two engines over the same request stream — prefix cache off
        // vs on — must emit identical tokens; the warm engine's saved
        // prefill rows must be exactly its reported reuse.
        let (q, srcs) = setup(2);
        // Long enough that the prefill spans full KV pages under the
        // default 16-row page (and the CI page-stress 4-row page).
        let prompt: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
        let reqs = |n: usize| -> Vec<Request> {
            (0..n)
                .map(|i| Request::new(i as u64, srcs[0].clone(), 6).with_prompt(prompt.clone()))
                .collect()
        };
        let run = |prefix_budget: usize| -> (Vec<(u64, Vec<usize>, bool)>, ServingStats) {
            let mut cfg = EngineConfig::with_max_batch(1);
            cfg.prefix_cache_bytes = prefix_budget;
            let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
            // max_batch 1 serializes the requests, so every request
            // after the first finds the full prefix cached.
            for r in reqs(3) {
                engine.submit(r).unwrap();
            }
            (decoded(&engine.run_to_completion()), engine.stats())
        };
        let (cold_tokens, cold) = run(0);
        let (warm_tokens, warm) = run(usize::MAX);
        assert_eq!(warm_tokens, cold_tokens, "hits must not change tokens");
        assert_eq!(cold.prefix_hits + cold.prefix_misses, 0);
        assert_eq!(
            warm.prefix_hits, 2,
            "requests 2 and 3 attach to request 1's prefill"
        );
        assert_eq!(warm.prefix_misses, 1);
        assert!(warm.prefix_rows_reused > 0);
        assert!(warm.prefix_bytes_shared > 0);
        assert_eq!(
            cold.prefill_rows - warm.prefill_rows,
            warm.prefix_rows_reused,
            "saved prefill rows must be exactly the reported reuse"
        );
        // The sequential greedy reference pins absolute correctness.
        let want = q.greedy_decode_with_prompt(&srcs[0], &prompt, 6);
        for (_, tokens, _) in &warm_tokens {
            assert_eq!(tokens, &want);
        }
    }

    #[test]
    fn cached_prefixes_share_pages_and_obey_the_budget() {
        let (q, srcs) = setup(2);
        let prompt: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefix_cache_bytes = usize::MAX;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        engine
            .submit(Request::new(0, srcs[0].clone(), 4).with_prompt(prompt.clone()))
            .unwrap();
        let _ = engine.run_to_completion();
        assert!(engine.prefix_cache_entries() >= 1);
        let resident_one = engine.kv_bytes_in_use();
        assert!(resident_one > 0, "the cached snapshot holds pages");
        assert_eq!(resident_one, engine.prefix_cache_bytes());

        // A second identical request forks the snapshot: its prefill
        // attaches to the cached pages instead of re-materializing
        // them, so the high-water mark stays far below 2x.
        let peak_before = engine.stats().kv_bytes_peak;
        engine
            .submit(Request::new(1, srcs[0].clone(), 4).with_prompt(prompt.clone()))
            .unwrap();
        let _ = engine.run_to_completion();
        assert_eq!(engine.stats().prefix_hits, 1);
        let peak_after = engine.stats().kv_bytes_peak;
        assert!(
            peak_after < peak_before + resident_one,
            "shared prefix must not pay its KV bytes twice (peak {peak_before} -> {peak_after}, entry {resident_one})"
        );

        // A zero budget behaves exactly like the seed engine.
        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefix_cache_bytes = 0;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        engine
            .submit(Request::new(0, srcs[0].clone(), 4).with_prompt(prompt))
            .unwrap();
        let _ = engine.run_to_completion();
        assert_eq!(engine.prefix_cache_entries(), 0);
        assert_eq!(engine.kv_bytes_in_use(), 0);
    }

    #[test]
    fn prefill_budget_paces_prompt_ingestion() {
        // With a 4-row/step budget, 2 prompts of 11 (+BOS = 24 rows)
        // need at least 6 steps of prefill; with chunk 1 a lone request
        // records its first token at exactly step `1 + prompt len`.
        let (q, srcs) = setup(2);
        let prompt: Vec<usize> = srcs[0].iter().cycle().take(11).copied().collect();
        let mut cfg = EngineConfig::with_max_batch(2);
        cfg.prefill_chunk = 4;
        cfg.max_prefill_rows = 4;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 4).with_prompt(prompt.clone()))
                .unwrap();
        }
        let _ = engine.run_to_completion();
        assert!(engine.stats().steps >= 6, "steps {}", engine.stats().steps);

        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefill_chunk = 1;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        engine
            .submit(Request::new(9, srcs[0].clone(), 4).with_prompt(prompt.clone()))
            .unwrap();
        let responses = engine.run_to_completion();
        assert_eq!(responses[0].first_token_step, Some(prompt.len()));
    }

    #[test]
    fn kv_pages_are_recycled_after_retirement() {
        let (q, srcs) = setup(6);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        for r in requests(&srcs, 8) {
            engine.submit(r).unwrap();
        }
        assert_eq!(engine.kv_bytes_in_use(), 0);
        let _ = engine.run_to_completion();
        let stats = engine.stats();
        assert!(stats.kv_bytes_peak > 0, "decoding must page KV in");
        assert_eq!(
            stats.kv_bytes_in_use, 0,
            "every retired session's pages go back to the free list"
        );
        assert_eq!(engine.kv_bytes_in_use(), 0);
    }

    #[test]
    fn fusion_counters_surface_alongside_kv_bytes() {
        let (q, srcs) = setup(6);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        for r in requests(&srcs, 4) {
            engine.submit(r).unwrap();
        }
        let _ = engine.run_to_completion();
        let stats = engine.stats();
        // Every decode ResBlock pass fuses at least the Wo → residual
        // drain, so a full run must report fused work and the bytes its
        // elided intermediates would have cost.
        assert!(stats.ops_fused > 0, "fused drains must be counted");
        assert!(stats.intermediates_elided_bytes > 0);
        // merge() rolls the new counters up like the KV byte counters.
        let mut merged = ServingStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.ops_fused, 2 * stats.ops_fused);
        assert_eq!(
            merged.intermediates_elided_bytes,
            2 * stats.intermediates_elided_bytes
        );
    }

    #[test]
    fn slots_are_refilled_after_retirement() {
        let (q, srcs) = setup(6);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        for r in requests(&srcs, 8) {
            engine.submit(r).unwrap();
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), 6);
        let stats = engine.stats();
        assert_eq!(stats.admitted, 6);
        assert_eq!(stats.retired, 6);
        assert!(stats.peak_batch <= 2);
        // 6 requests through 2 slots requires several waves of admission.
        assert!(stats.steps >= 3, "steps {}", stats.steps);
    }

    #[test]
    fn ignore_eos_generates_exactly_the_budget() {
        let (q, srcs) = setup(3);
        let mut cfg = EngineConfig::with_max_batch(4);
        cfg.ignore_eos = true;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        for r in requests(&srcs, 5) {
            engine.submit(r).unwrap();
        }
        for resp in engine.run_to_completion() {
            assert_eq!(resp.tokens.len(), 5);
            assert!(!resp.hit_eos());
            assert_eq!(resp.first_token_step, Some(0));
        }
    }

    #[test]
    fn zero_budget_requests_finish_immediately() {
        let (q, srcs) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::default()).unwrap();
        engine.submit(Request::new(7, srcs[0].clone(), 0)).unwrap();
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].tokens.is_empty());
        assert_eq!(engine.stats().steps, 0);
    }

    #[test]
    fn zero_slots_rejected() {
        let (q, _) = setup(2);
        assert_eq!(
            ContinuousBatcher::new(&q, EngineConfig::with_max_batch(0)).err(),
            Some(ServingError::ZeroSlots)
        );
    }

    #[test]
    fn empty_source_rejected() {
        let (q, _) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::default()).unwrap();
        assert_eq!(
            engine.submit(Request::new(0, vec![], 4)).err(),
            Some(ServingError::EmptySource { id: 0 })
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let (q, srcs) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::default()).unwrap();
        engine.submit(Request::new(5, srcs[0].clone(), 4)).unwrap();
        assert_eq!(
            engine.submit(Request::new(5, srcs[1].clone(), 4)).err(),
            Some(ServingError::DuplicateId { id: 5 })
        );
    }

    #[test]
    fn deadline_cuts_a_request_short() {
        let (q, srcs) = setup(3);
        let mut cfg = EngineConfig::with_max_batch(4);
        cfg.ignore_eos = true; // make every request want its full budget
        cfg.deadline_steps = Some(2);
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        for r in requests(&srcs, 8) {
            engine.submit(r).unwrap();
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), srcs.len());
        for resp in &responses {
            assert_eq!(resp.tokens.len(), 2, "id {}", resp.id);
            assert!(!resp.hit_eos());
        }
        assert_eq!(engine.stats().deadline_expired, srcs.len());
        // The generated prefix is still bit-identical to an undeadlined
        // decode — the deadline truncates, it never perturbs.
        for (resp, src) in responses.iter().zip(&srcs) {
            let want = q.greedy_decode_incremental(src, 8);
            let n = resp.tokens.len().min(want.len());
            assert_eq!(&resp.tokens[..n], &want[..n]);
        }
    }

    #[test]
    fn per_request_deadline_overrides_config() {
        let (q, srcs) = setup(2);
        let mut cfg = EngineConfig::with_max_batch(2);
        cfg.ignore_eos = true;
        cfg.deadline_steps = Some(6);
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        let mut tight = Request::new(0, srcs[0].clone(), 8);
        tight.deadline_steps = Some(1);
        engine.submit(tight).unwrap();
        engine.submit(Request::new(1, srcs[1].clone(), 8)).unwrap();
        let responses = engine.run_to_completion();
        assert_eq!(responses[0].tokens.len(), 1);
        assert_eq!(responses[1].tokens.len(), 6);
    }

    #[test]
    fn bounded_queue_sheds_instead_of_growing() {
        let (q, srcs) = setup(4);
        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.max_queue = 2;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        engine.submit(Request::new(0, srcs[0].clone(), 4)).unwrap();
        engine.submit(Request::new(1, srcs[1].clone(), 4)).unwrap();
        assert_eq!(
            engine.submit(Request::new(2, srcs[2].clone(), 4)).err(),
            Some(ServingError::QueueFull { id: 2 }),
            "third request must be shed, not queued"
        );
        assert_eq!(engine.stats().shed, 1);
        assert_eq!(engine.pending_len(), 2);
        // A shed id is not burned: once the queue drains, the same id
        // resubmits cleanly (retry-after-backoff).
        let _ = engine.run_to_completion();
        engine.submit(Request::new(2, srcs[2].clone(), 4)).unwrap();
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, 2);
        assert_eq!(
            responses[0].tokens,
            q.greedy_decode_incremental(&srcs[2], 4)
        );
        assert_eq!(engine.kv_bytes_in_use(), 0);
    }

    #[test]
    fn expired_in_queue_retires_without_touching_a_slot() {
        let (q, srcs) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        engine
            .submit(Request::new(0, srcs[0].clone(), 4).with_deadline_ms(0))
            .unwrap();
        engine.submit(Request::new(1, srcs[1].clone(), 4)).unwrap();
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].finish, FinishReason::Deadline);
        assert!(responses[0].tokens.is_empty());
        assert_eq!(responses[0].first_token_step, None);
        assert_ne!(responses[1].finish, FinishReason::Deadline);
        let stats = engine.stats();
        assert_eq!(stats.expired_in_queue, 1);
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.admitted, 1, "the expired request never held a slot");
        assert_eq!(engine.kv_bytes_in_use(), 0, "no KV page was ever charged");
        // The survivor decodes bit-identically to running alone.
        assert_eq!(
            responses[1].tokens,
            q.greedy_decode_incremental(&srcs[1], 4)
        );
    }

    #[test]
    fn generous_wall_deadline_never_preempts() {
        let (q, srcs) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 6).with_deadline_ms(3_600_000))
                .unwrap();
        }
        let responses = engine.run_to_completion();
        for (resp, src) in responses.iter().zip(&srcs) {
            assert_eq!(resp.tokens, q.greedy_decode_incremental(src, 6));
        }
        assert_eq!(engine.stats().deadline_expired, 0);
    }

    #[test]
    fn cancel_drops_queued_and_inflight_without_responses() {
        let (q, srcs) = setup(3);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(1)).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            engine.submit(Request::new(i as u64, s.clone(), 8)).unwrap();
        }
        // One step admits request 0 into the single slot; 1 and 2 wait.
        assert!(engine.step());
        assert!(engine.kv_bytes_in_use() > 0);
        assert!(engine.cancel(0), "in-flight request cancels");
        assert_eq!(
            engine.kv_bytes_in_use(),
            0,
            "cancelling the only in-flight request frees its KV pages"
        );
        assert!(engine.cancel(1), "queued request cancels");
        assert!(!engine.cancel(99), "unknown id is a no-op");
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), 1, "cancelled requests answer nobody");
        assert_eq!(responses[0].id, 2);
        assert_eq!(
            responses[0].tokens,
            q.greedy_decode_incremental(&srcs[2], 8)
        );
        assert_eq!(engine.stats().cancelled, 2);
        assert_eq!(engine.kv_bytes_in_use(), 0);
        assert!(!engine.cancel(2), "finished id is a no-op");
    }

    #[test]
    fn emitted_stream_matches_responses() {
        let (q, srcs) = setup(3);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::with_max_batch(2)).unwrap();
        for (i, s) in srcs.iter().enumerate() {
            engine.submit(Request::new(i as u64, s.clone(), 5)).unwrap();
        }
        let mut streamed: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        let mut finished = Vec::new();
        while engine.step() {
            for (id, tok) in engine.drain_emitted() {
                streamed.entry(id).or_default().push(tok);
            }
            finished.extend(engine.drain_finished());
        }
        finished.extend(engine.drain_finished());
        assert_eq!(finished.len(), srcs.len());
        for resp in &finished {
            let got = streamed.remove(&resp.id).unwrap_or_default();
            assert_eq!(got, resp.tokens, "id {}", resp.id);
        }
        assert!(streamed.is_empty(), "no tokens for unknown ids");
    }

    #[test]
    fn merge_round_trips_every_counter() {
        // Each field gets a distinct value so a merge that drops or
        // cross-wires any counter — including the front-door additions
        // (shed / expired_in_queue / cancelled) — fails loudly. The
        // literal names every field (no `..`), so a counter added to the
        // struct must be added here, and `want` below must say how it
        // merges or the comparison fails.
        let a = ServingStats {
            steps: 1,
            rows: 2,
            prefill_rows: 3,
            tokens_generated: 4,
            peak_batch: 5,
            admitted: 6,
            retired: 7,
            kv_bytes_in_use: 8,
            kv_bytes_peak: 9,
            faulty_steps: 10,
            checked: 27,
            injected: 28,
            detected: 29,
            retries: 11,
            quarantined: 12,
            deadline_expired: 13,
            shed: 14,
            expired_in_queue: 15,
            cancelled: 16,
            ops_fused: 17,
            intermediates_elided_bytes: 18,
            prefix_hits: 19,
            prefix_misses: 20,
            prefix_rows_reused: 21,
            prefix_bytes_shared: 22,
            greedy_candidate_tiles: 23,
            greedy_fallback_rows: 24,
            admission_batches: 25,
            sources_encoded: 26,
        };
        let mut m = ServingStats::default();
        m.merge(&a);
        assert_eq!(m, a, "merging into zero must reproduce the source");
        m.merge(&a);
        let mut want = a;
        // Everything is additive except the high-water mark.
        want.steps *= 2;
        want.rows *= 2;
        want.prefill_rows *= 2;
        want.tokens_generated *= 2;
        want.admitted *= 2;
        want.retired *= 2;
        want.kv_bytes_in_use *= 2;
        want.kv_bytes_peak *= 2;
        want.faulty_steps *= 2;
        want.checked *= 2;
        want.injected *= 2;
        want.detected *= 2;
        want.retries *= 2;
        want.quarantined *= 2;
        want.deadline_expired *= 2;
        want.shed *= 2;
        want.expired_in_queue *= 2;
        want.cancelled *= 2;
        want.ops_fused *= 2;
        want.intermediates_elided_bytes *= 2;
        want.prefix_hits *= 2;
        want.prefix_misses *= 2;
        want.prefix_rows_reused *= 2;
        want.prefix_bytes_shared *= 2;
        want.greedy_candidate_tiles *= 2;
        want.greedy_fallback_rows *= 2;
        want.admission_batches *= 2;
        want.sources_encoded *= 2;
        assert_eq!(m, want);
        // A field folded by the wrong rule shows against a second
        // operand with different values: the high-water mark takes the
        // larger side, whichever it is, and every sum adds.
        for peak in [1, 50] {
            let b = ServingStats {
                peak_batch: peak,
                ..a
            };
            let mut got = a;
            got.merge(&b);
            let mut want = want;
            want.peak_batch = a.peak_batch.max(peak);
            assert_eq!(got, want, "merge with peak_batch {peak}");
        }
    }
}
