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
//! Waiting requests queue up, are admitted in length-sorted buckets
//! ([`PaddedBatch::buckets`]), and every [`ContinuousBatcher::step`]
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
//! request it admits without a prefix hit — across all of its length
//! buckets — and opens their sessions with one stacked
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
//! [`ServingError`]s instead of panicking. When the `faults` crate's
//! ABFT checker is live ([`faults::checker_enabled`]), every batched
//! step is bracketed by the process-wide detection counter: a
//! checker-flagged step is rolled back chunk-for-chunk
//! ([`QuantIncrementalSession::rollback_rows`] — paged truncation frees
//! any page the rollback empties) and recomputed up to
//! [`EngineConfig::max_step_retries`] times — a transient upset fires
//! once per GEMM-pass index, so the replay is clean and the affected
//! request still completes bit-identically. Steps that stay flagged
//! after all retries charge every slot that shared them; a slot charged
//! [`EngineConfig::quarantine_after`] times is **quarantined** (its
//! occupant retires degraded and the slot never refills). Per-request
//! **deadlines** ([`Request::deadline_steps`] /
//! [`EngineConfig::deadline_steps`]) bound how many engine steps a
//! request may hold a slot. For multi-instance deployments,
//! [`run_sharded`] fans length buckets out across `N` engine instances
//! on scoped threads (`tensor::par`), each with its own arena, and a
//! panicking shard is isolated: its requests are reported in
//! [`ShardedRun::failures`] while every other shard's responses come
//! back unaffected.
//!
//! Under the hood there is one model call per step and one body
//! behind it: [`QuantSeq2Seq::prefill_sessions_greedy`] stacks the
//! chunk rows of every slot, runs each layer's weight GEMMs once over
//! the stack (the FFN ResBlocks through `quantized::QuantExec`), and
//! calls `quantized::cached_mha_rows` — a plain function over borrowed
//! per-session caches, not a `graph::Executor` — for the attention
//! ResBlocks. A decode row, a prefill chunk, a forked session and a
//! replayed (rolled-back) chunk all take that same path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prefix;

use std::any::Any;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use quantized::incremental::{KvArena, QuantIncrementalSession};

use crate::prefix::PrefixIndex;
use quantized::QuantSeq2Seq;
use transformer::batching::PaddedBatch;
use transformer::tasks::{BOS, EOS};

/// Why the serving layer rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// `EngineConfig::max_batch` was zero.
    ZeroSlots,
    /// `run_sharded` was asked for zero shards.
    ZeroShards,
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
            ServingError::ZeroShards => write!(f, "need at least one shard"),
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
    /// Padding-waste budget handed to [`PaddedBatch::buckets`] during
    /// admission and sharding.
    pub bucket_max_waste: usize,
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
    /// ([`prefix::PrefixIndex`]): completed prefills are snapshotted at
    /// a page boundary and later requests sharing a `(src, prompt)`
    /// prefix fork the snapshot instead of re-running its prefill. `0`
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
            bucket_max_waste: 4,
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

/// Counters accumulated across an engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Batched steps executed.
    pub steps: usize,
    /// Total active requests summed over all steps
    /// (`≤ steps · max_batch`).
    pub rows: usize,
    /// Prompt rows consumed by chunked prefill (including each
    /// request's `BOS` row), summed over all steps.
    pub prefill_rows: usize,
    /// Tokens appended to responses.
    pub tokens_generated: usize,
    /// Largest number of requests any single step carried.
    pub peak_batch: usize,
    /// Requests admitted into slots.
    pub admitted: usize,
    /// Stacked encoder passes admission ran: one per refill that
    /// admitted at least one request without a prefix hit
    /// (`QuantSeq2Seq::start_sessions`).
    pub admission_batches: usize,
    /// Sources those passes encoded — every admission that did not fork
    /// a cached prefix, so `sources_encoded + prefix_hits == admitted`.
    /// Divided by [`Self::admission_batches`] this is admission's
    /// batching factor: how many sources share one stream of the encoder
    /// weights.
    pub sources_encoded: usize,
    /// Requests retired (EOS, budget, deadline, or quarantine).
    pub retired: usize,
    /// Resident KV-pool bytes after the most recent step (whole pages
    /// held by live sessions; retired sessions' pages are already back
    /// on the free list).
    pub kv_bytes_in_use: usize,
    /// High-water mark of resident KV-pool bytes across all steps,
    /// measured before retirement releases — the budget a deployment
    /// must actually provision.
    pub kv_bytes_peak: usize,
    /// Steps the ABFT checker flagged (counting each failed attempt).
    pub faulty_steps: usize,
    /// Rollback-and-recompute retries performed.
    pub retries: usize,
    /// Slots quarantined after repeated persistent faults.
    pub quarantined: usize,
    /// Requests cut off by a deadline.
    pub deadline_expired: usize,
    /// Requests shed at submission because the bounded waiting queue
    /// ([`EngineConfig::max_queue`]) was full.
    pub shed: usize,
    /// Requests whose wall-clock deadline expired while they were still
    /// queued — retired with [`FinishReason::Deadline`] and zero tokens
    /// without ever consuming a slot or a KV page (a subset of
    /// [`Self::deadline_expired`]).
    pub expired_in_queue: usize,
    /// Requests cancelled via [`ContinuousBatcher::cancel`] (client
    /// disconnect, caller abort); a cancelled request produces no
    /// [`Response`] and its KV pages return to the free list at once.
    pub cancelled: usize,
    /// Fused graph nodes executed by this engine's steps (`LinearRelu`,
    /// `LinearAdd`, and `cached_mha_rows`' hand-fused drains).
    pub ops_fused: usize,
    /// Bytes of intermediate tensors fusion never materialized across
    /// this engine's steps — the memory traffic the fused drains
    /// removed, the fusion analogue of [`Self::kv_bytes_in_use`].
    pub intermediates_elided_bytes: usize,
    /// Admissions that attached to a cached prefix (skipping its
    /// prefill). Zero when the prefix cache is disabled.
    pub prefix_hits: usize,
    /// Admissions that searched the prefix cache and found nothing
    /// reusable. Zero when the prefix cache is disabled.
    pub prefix_misses: usize,
    /// Prompt rows (including `BOS`) that prefix hits did **not**
    /// re-ingest — prefill work the cache saved. `prefill_rows` shrinks
    /// by exactly this amount relative to a cold engine.
    pub prefix_rows_reused: usize,
    /// Logical KV bytes prefix hits attached to instead of
    /// re-materializing (whole resident pages of the reused rows;
    /// physically shared copy-on-write, so the arena pays them once).
    pub prefix_bytes_shared: usize,
    /// Column tiles of the output projection the greedy head recomputed
    /// exactly, summed over every row of every step (16 columns each;
    /// `transformer::greedy`). Divided by `rows` this is the screen's
    /// selectivity — a handful per row when it works.
    pub greedy_candidate_tiles: usize,
    /// Rows whose next token came from the full FP32 projection instead
    /// (the greedy head's guards, or too many candidates): the head
    /// degenerating to the cost it replaces.
    pub greedy_fallback_rows: usize,
}

impl ServingStats {
    /// Mean slot occupancy: the fraction of the engine's request
    /// capacity that carried real requests, `rows / (steps · max_batch)`.
    /// This is the serving-level analogue of array utilization — idle
    /// slots are idle array rows.
    pub fn occupancy(&self, max_batch: usize) -> f64 {
        if self.steps == 0 || max_batch == 0 {
            return 0.0;
        }
        self.rows as f64 / (self.steps * max_batch) as f64
    }

    /// Accumulates another engine's counters (used to roll up shards;
    /// KV byte counters add because each shard owns its own arena).
    pub fn merge(&mut self, other: &ServingStats) {
        self.steps += other.steps;
        self.rows += other.rows;
        self.prefill_rows += other.prefill_rows;
        self.tokens_generated += other.tokens_generated;
        self.peak_batch = self.peak_batch.max(other.peak_batch);
        self.admitted += other.admitted;
        self.admission_batches += other.admission_batches;
        self.sources_encoded += other.sources_encoded;
        self.retired += other.retired;
        self.kv_bytes_in_use += other.kv_bytes_in_use;
        self.kv_bytes_peak += other.kv_bytes_peak;
        self.faulty_steps += other.faulty_steps;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.deadline_expired += other.deadline_expired;
        self.shed += other.shed;
        self.expired_in_queue += other.expired_in_queue;
        self.cancelled += other.cancelled;
        self.ops_fused += other.ops_fused;
        self.intermediates_elided_bytes += other.intermediates_elided_bytes;
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.prefix_rows_reused += other.prefix_rows_reused;
        self.prefix_bytes_shared += other.prefix_bytes_shared;
        self.greedy_candidate_tiles += other.greedy_candidate_tiles;
        self.greedy_fallback_rows += other.greedy_fallback_rows;
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
}

impl<'m> ContinuousBatcher<'m> {
    /// Creates an engine with `cfg.max_batch` empty slots and a fresh
    /// KV arena sized for `model`.
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
        })
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
        self.stats
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

    /// Drops every cached prefix, returning unshared pages to the
    /// arena's free lists.
    pub fn clear_prefix_cache(&mut self) {
        self.prefix.clear(&mut self.arena);
    }

    /// Length-bucketed admission: fills free (non-quarantined) slots
    /// from the queue, admitting the bucket containing the oldest
    /// waiting request first (so similar-length sources land together
    /// and no request starves). Buckets are formed on source length;
    /// prompts only shape the prefill schedule, not admission. Every
    /// request admitted without a prefix hit — across all the buckets of
    /// the call — is then started by one stacked
    /// [`QuantSeq2Seq::start_sessions`] pass.
    fn refill(&mut self) {
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
        let mut admits: Vec<Admit> = Vec::new();
        while self.pending.front().is_some() {
            let free: Vec<usize> = (0..self.slots.len())
                .filter(|&i| {
                    self.slots[i].is_none()
                        && !self.quarantined[i]
                        && !admits.iter().any(|a| a.slot == i)
                })
                .collect();
            if free.is_empty() {
                break;
            }
            let seqs: Vec<Vec<usize>> = self.pending.iter().map(|q| q.req.src.clone()).collect();
            let buckets = PaddedBatch::buckets(&seqs, self.cfg.bucket_max_waste);
            let oldest_bucket = buckets
                .iter()
                .find(|b| b.indices.contains(&0))
                .expect("queue position 0 is in some bucket");
            // Admit the bucket's members in arrival (queue) order,
            // bounded by the free slots. Positions are removed ascending,
            // so each removal shifts the later ones left by one.
            let whole_bucket = oldest_bucket.indices.len() <= free.len();
            let mut queue_positions: Vec<usize> = oldest_bucket.indices.clone();
            queue_positions.sort_unstable();
            queue_positions.truncate(free.len());
            for (removed, (&slot, qpos)) in free.iter().zip(queue_positions).enumerate() {
                let queued = self
                    .pending
                    .remove(qpos - removed)
                    .expect("position in range");
                let mut target = Vec::with_capacity(1 + queued.req.prompt.len());
                target.push(BOS);
                target.extend(queued.req.prompt.iter().copied());
                // Shared-prefix fast path: attach to the longest cached
                // page-aligned prefix of (src, target) and prefill only
                // the suffix. Capped at `target.len() - 1` rows so the
                // session always re-ingests the row whose logits seed
                // generation — decode from a fork is bit-identical to a
                // cold prefill, so hits change scheduling, never tokens.
                let (hit, reused, prefix_key) = if self.prefix.enabled() {
                    let key = prefix::prefix_key(&queued.req.src, &target);
                    match self.prefix.lookup(&key, target.len() - 1) {
                        Some((snap, rows)) => {
                            // The snapshot may hold more rows than this
                            // prompt shares with it (diverged-tail
                            // reuse): roll the *fork* back to the
                            // matched depth — copy-on-write keeps the
                            // cached entry's pages intact.
                            let mut session = snap.fork(&mut self.arena);
                            if session.pos() > rows {
                                let extra = session.pos() - rows;
                                session.rollback_rows(&mut self.arena, extra);
                            }
                            self.stats.prefix_hits += 1;
                            self.stats.prefix_rows_reused += rows;
                            self.stats.prefix_bytes_shared +=
                                session.resident_kv_bytes(&self.arena);
                            (Some(session), rows, key)
                        }
                        None => {
                            self.stats.prefix_misses += 1;
                            (None, 0, key)
                        }
                    }
                } else {
                    (None, 0, Vec::new())
                };
                admits.push(Admit {
                    slot,
                    queued,
                    pending: target[reused..].iter().copied().collect(),
                    hit,
                    prefix_key,
                });
            }
            if !whole_bucket {
                break; // slots exhausted mid-bucket
            }
            // Whole bucket admitted; maybe room for another.
        }
        // Every cold admission of this refill, across buckets, is
        // encoded and cross-projected in one stacked pass.
        let cold: Vec<&[usize]> = admits
            .iter()
            .filter(|a| a.hit.is_none())
            .map(|a| a.queued.req.src.as_slice())
            .collect();
        let mut started = if cold.is_empty() {
            Vec::new()
        } else {
            self.stats.admission_batches += 1;
            self.stats.sources_encoded += cold.len();
            self.model.start_sessions(&mut self.arena, &cold)
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
    /// When the ABFT checker is live, a step that raises the
    /// process-wide detection counter is rolled back chunk-for-chunk
    /// and recomputed (up to `max_step_retries` times); the
    /// transient-upset replay is bit-identical to a fault-free step, so
    /// detected faults are invisible in the output stream.
    pub fn step(&mut self) -> bool {
        self.refill();
        let plan = self.plan_step();
        if plan.is_empty() {
            return false;
        }
        let fusion0 = graph::fusion_tally();
        let model = self.model;
        let chunk_refs: Vec<&[usize]> = plan.iter().map(|(_, c)| c.as_slice()).collect();
        let verify = faults::hooks_active() && faults::checker_enabled();
        let mut persistent_fault = false;
        let (tokens, greedy) = if verify {
            let mut attempt = 0;
            loop {
                let before = faults::counters().detected;
                let mut sessions = planned_sessions(&mut self.slots, &plan);
                let out =
                    model.prefill_sessions_greedy(&mut self.arena, &mut sessions, &chunk_refs);
                if faults::counters().detected == before {
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
            }
        } else {
            let mut sessions = planned_sessions(&mut self.slots, &plan);
            model.prefill_sessions_greedy(&mut self.arena, &mut sessions, &chunk_refs)
        };
        self.stats.greedy_candidate_tiles += greedy.candidate_tiles;
        self.stats.greedy_fallback_rows += greedy.fallback_rows;
        // High-water mark before retirement hands pages back.
        self.stats.kv_bytes_peak = self.stats.kv_bytes_peak.max(self.arena.kv_bytes_in_use());
        if persistent_fault {
            // The checker cannot attribute a mismatch to a row, so every
            // slot that shared the flagged step is charged; repeat
            // offenders are withdrawn from service below.
            for (i, _) in &plan {
                self.slot_faults[*i] += 1;
                if self.cfg.quarantine_after > 0
                    && self.slot_faults[*i] >= self.cfg.quarantine_after
                    && !self.quarantined[*i]
                {
                    self.quarantined[*i] = true;
                    self.stats.quarantined += 1;
                }
            }
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
                // Prefill just completed: snapshot it for future
                // requests sharing this (src, prompt) prefix. Rolled
                // back to a page boundary, the fork shares every page
                // it keeps with this live session; `insert` LRU-evicts
                // under the byte budget and drops the fork if the key
                // is already cached.
                if self.prefix.enabled() {
                    let pos = slot.session.pos();
                    let page = self.arena.page_rows();
                    // Align over `pos - 1`, not `pos`: an exact-repeat
                    // request may reuse at most `pos - 1` rows (it must
                    // re-ingest the row whose logits seed generation),
                    // so a snapshot at full page-aligned length would
                    // be unreachable for the very requests it is for.
                    let aligned = ((pos - 1) / page) * page;
                    let key_at = slot.prefix_key.len() - (pos - aligned);
                    if aligned > 0 && !self.prefix.contains(&slot.prefix_key[..key_at]) {
                        let mut snap = slot.session.fork(&mut self.arena);
                        if pos > aligned {
                            snap.rollback_rows(&mut self.arena, pos - aligned);
                        }
                        self.prefix
                            .insert(&slot.prefix_key[..key_at], snap, &mut self.arena);
                    }
                }
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
        // Fused-op work this step performed, read as a delta of the
        // process-wide tally (retried attempts count — they ran).
        let fusion = graph::fusion_tally().since(&fusion0);
        self.stats.ops_fused += fusion.ops_fused as usize;
        self.stats.intermediates_elided_bytes += fusion.intermediates_elided_bytes as usize;
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

/// A shard that panicked during [`run_sharded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the shard that panicked.
    pub shard: usize,
    /// Ids of the requests routed to that shard (their responses are
    /// lost; every other shard is unaffected).
    pub lost_ids: Vec<u64>,
    /// The panic payload, when it carried a message.
    pub message: String,
}

/// Everything [`run_sharded`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRun {
    /// Responses from all surviving shards, sorted by request id.
    pub responses: Vec<Response>,
    /// Per-shard engine counters (a failed shard reports defaults).
    pub stats: Vec<ServingStats>,
    /// Shards that panicked, with the request ids they took down.
    pub failures: Vec<ShardFailure>,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Runs `requests` across `shards` engine instances on scoped threads:
/// requests are length-bucketed ([`PaddedBatch::buckets`]), buckets are
/// dealt to the least-loaded shard (by total member count), and each
/// shard runs its own [`ContinuousBatcher`] (with its own KV arena)
/// over the shared model. Token streams are bit-identical to a single
/// engine (and to sequential decoding) and come back sorted by id,
/// alongside each shard's counters.
///
/// Shards are **fault-isolated**: a panic inside one shard (poisoned
/// weights, out-of-range tokens, a wedged datapath) is caught on that
/// shard's thread; its requests are reported in
/// [`ShardedRun::failures`] and every other shard completes normally.
///
/// # Errors
///
/// [`ServingError::ZeroShards`] / [`ServingError::ZeroSlots`] for
/// degenerate shapes, [`ServingError::EmptySource`] /
/// [`ServingError::DuplicateId`] if any request is invalid (validated
/// up front, before any shard starts).
pub fn run_sharded(
    model: &QuantSeq2Seq,
    cfg: EngineConfig,
    requests: Vec<Request>,
    shards: usize,
) -> Result<ShardedRun, ServingError> {
    if shards == 0 {
        return Err(ServingError::ZeroShards);
    }
    if cfg.max_batch == 0 {
        return Err(ServingError::ZeroSlots);
    }
    let mut ids = HashSet::new();
    for r in &requests {
        if r.src.is_empty() {
            return Err(ServingError::EmptySource { id: r.id });
        }
        if !ids.insert(r.id) {
            return Err(ServingError::DuplicateId { id: r.id });
        }
    }
    if requests.is_empty() {
        return Ok(ShardedRun {
            responses: Vec::new(),
            stats: vec![ServingStats::default(); shards],
            failures: Vec::new(),
        });
    }
    let seqs: Vec<Vec<usize>> = requests.iter().map(|r| r.src.clone()).collect();
    let buckets = PaddedBatch::buckets(&seqs, cfg.bucket_max_waste);
    let mut workloads: Vec<Vec<Request>> = (0..shards).map(|_| Vec::new()).collect();
    for bucket in &buckets {
        let lightest = (0..shards)
            .min_by_key(|&s| workloads[s].len())
            .expect("at least one shard");
        for &i in &bucket.indices {
            workloads[lightest].push(requests[i].clone());
        }
    }
    let results = tensor::par::map_with_threads(&workloads, shards, |reqs| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut engine = ContinuousBatcher::new(model, cfg).expect("config validated above");
            for r in reqs {
                engine.submit(r.clone()).expect("requests validated above");
            }
            (engine.run_to_completion(), engine.stats())
        }))
        .map_err(panic_message)
    });
    let mut run = ShardedRun {
        responses: Vec::with_capacity(requests.len()),
        stats: Vec::with_capacity(shards),
        failures: Vec::new(),
    };
    for (shard, (result, reqs)) in results.into_iter().zip(&workloads).enumerate() {
        match result {
            Ok((responses, stats)) => {
                run.responses.extend(responses);
                run.stats.push(stats);
            }
            Err(message) => {
                run.stats.push(ServingStats::default());
                run.failures.push(ShardFailure {
                    shard,
                    lost_ids: reqs.iter().map(|r| r.id).collect(),
                    message,
                });
            }
        }
    }
    run.responses.sort_by_key(|r| r.id);
    Ok(run)
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

        // Dropping the cache returns every page not held by a live
        // session.
        engine.clear_prefix_cache();
        assert_eq!(engine.prefix_cache_entries(), 0);
        assert_eq!(engine.kv_bytes_in_use(), 0);

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
        assert!(stats.occupancy(2) > 0.0);
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
    fn sharded_run_is_bit_identical_to_single_engine() {
        let (q, srcs) = setup(8);
        let cfg = EngineConfig::with_max_batch(4);
        let mut single = ContinuousBatcher::new(&q, cfg).unwrap();
        for r in requests(&srcs, 8) {
            single.submit(r).unwrap();
        }
        let want = decoded(&single.run_to_completion());
        for shards in [1usize, 2, 3, 8] {
            let run = run_sharded(&q, cfg, requests(&srcs, 8), shards).unwrap();
            assert_eq!(decoded(&run.responses), want, "shards {shards}");
            assert_eq!(run.stats.len(), shards);
            assert!(run.failures.is_empty());
            let mut total = ServingStats::default();
            for s in &run.stats {
                total.merge(s);
            }
            assert_eq!(total.retired, srcs.len());
        }
    }

    #[test]
    fn zero_slots_rejected() {
        let (q, _) = setup(2);
        assert_eq!(
            ContinuousBatcher::new(&q, EngineConfig::with_max_batch(0)).err(),
            Some(ServingError::ZeroSlots)
        );
        assert_eq!(
            run_sharded(&q, EngineConfig::with_max_batch(0), Vec::new(), 2).err(),
            Some(ServingError::ZeroSlots)
        );
    }

    #[test]
    fn zero_shards_rejected() {
        let (q, srcs) = setup(2);
        assert_eq!(
            run_sharded(&q, EngineConfig::default(), requests(&srcs, 4), 0).err(),
            Some(ServingError::ZeroShards)
        );
    }

    #[test]
    fn empty_source_rejected() {
        let (q, srcs) = setup(2);
        let mut engine = ContinuousBatcher::new(&q, EngineConfig::default()).unwrap();
        assert_eq!(
            engine.submit(Request::new(0, vec![], 4)).err(),
            Some(ServingError::EmptySource { id: 0 })
        );
        let bad = vec![
            Request::new(3, srcs[0].clone(), 4),
            Request::new(4, vec![], 4),
        ];
        assert_eq!(
            run_sharded(&q, EngineConfig::default(), bad, 2).err(),
            Some(ServingError::EmptySource { id: 4 })
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
        let dup = vec![
            Request::new(9, srcs[0].clone(), 4),
            Request::new(9, srcs[1].clone(), 4),
        ];
        assert_eq!(
            run_sharded(&q, EngineConfig::default(), dup, 2).err(),
            Some(ServingError::DuplicateId { id: 9 })
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
    fn panicking_shard_is_isolated() {
        let (q, srcs) = setup(4);
        let cfg = EngineConfig::with_max_batch(2);
        // An out-of-vocab token panics inside that shard's embedding
        // lookup; the huge length keeps it in its own bucket (and so its
        // own shard) away from the well-formed requests.
        let mut reqs = requests(&srcs, 6);
        reqs.push(Request::new(99, vec![usize::MAX / 2; 64], 6));
        let run = run_sharded(&q, cfg, reqs, 2).unwrap();
        assert_eq!(run.failures.len(), 1);
        assert!(run.failures[0].lost_ids.contains(&99));
        let lost: HashSet<u64> = run.failures[0].lost_ids.iter().copied().collect();
        // Every request outside the failed shard came back, bit-identical
        // to a sequential decode.
        for (i, src) in srcs.iter().enumerate() {
            if lost.contains(&(i as u64)) {
                continue;
            }
            let resp = run
                .responses
                .iter()
                .find(|r| r.id == i as u64)
                .expect("surviving shard's response");
            assert_eq!(resp.tokens, q.greedy_decode_incremental(src, 6));
        }
        assert_eq!(run.responses.len() + lost.len(), srcs.len() + 1);
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
        // (shed / expired_in_queue / cancelled) — fails loudly.
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
    }
}
