//! KV-cached incremental decoding for the quantized model, over a
//! shared **paged** KV arena.
//!
//! The workspace's one incremental decoder: the projected
//! self-attention K/V *codes* of every decoder layer are cached, and the
//! fixed cross-attention K/V codes are computed once per source
//! sentence. Every integer operation per row is identical to the full
//! recompute (the datapath is row-independent), so decodes are
//! **bit-identical** to [`QuantSeq2Seq::greedy_decode`] — asserted by
//! tests — while doing O(L) layer passes instead of O(L²).
//!
//! Self-attention K/V live in a [`KvArena`] — two shared
//! [`tensor::kvpool::KvPool`]s of fixed-size pages with free-list
//! recycling. A session holds only block tables ([`KvSeq`]); pages are
//! allocated on demand as tokens are consumed (no `max_len`
//! preallocation) and returned copy-free when the session is
//! [released](QuantIncrementalSession::release). Since the pages store
//! exactly the same i8 codes a flat cache held, paging is lossless:
//! every decode remains bit-identical. Cross-attention K/V are exact-size
//! flat matrices (their length is the source length, known up front),
//! shared by reference count between a session and its forks — which
//! also lets forks attend them together ([`crate::attention_cohorts`]).
//!
//! Sessions are opened in batches: [`QuantSeq2Seq::start_sessions`]
//! encodes all of its sources as one stacked pass — each encoder weight
//! GEMM and each decoder layer's cross-attention `W_K`/`W_V` run once
//! over every source's rows, the way the array streams `s` rows through
//! resident weights — while attention stays per source. Each new
//! session's cross K/V are then copied into allocations of its own, so
//! sessions started together are never mistaken for forks of one
//! session. [`QuantSeq2Seq::start_session`] is the same body at one
//! source, and a session is bit-identical whichever batch opened it.
//!
//! There is **one step body**, [`QuantSeq2Seq::prefill_sessions`] (and
//! its greedy twin): every session hands in a chunk of tokens, the
//! chunk rows of all sessions are stacked into one matrix, and each
//! layer's projections, output matmul and FFN run as single multi-row
//! GEMMs while [`cached_mha_rows`] fans the per-session attention out
//! across threads. A decode step is a one-row chunk
//! ([`QuantSeq2Seq::step_sessions`]; [`QuantSeq2Seq::step_session`] is
//! the same at one session). The GEMM kernels never reorder a row's
//! accumulation and the intra-chunk causal prefix leaves exactly-zero
//! probability codes for a row's future, so a row's result depends on
//! neither the batch composition nor the chunk shape it arrived in —
//! the property the `serving` crate's continuous batcher is built on,
//! pinned against the full-prefix recompute
//! ([`QuantSeq2Seq::forward_logits`]) by `tests/incremental_paths.rs`.

use std::sync::Arc;

use tensor::kvpool::{KvPool, KvSeq};
use tensor::phase::{self, Phase};
use tensor::Mat;
use transformer::greedy::GreedyStats;
use transformer::tasks::{BOS, EOS};

use crate::exec::{cached_mha_rows, CacheRef};
use crate::model::{split_rows, QuantSeq2Seq};

/// The shared paged store for projected self-attention K/V codes: one
/// page pool for keys, one for values, serving every session and every
/// decoder layer (all caches are `d_model` wide). Create one per
/// serving engine (or one per decode for the convenience entry points)
/// and pass it to every session call.
///
/// Page height comes from the [`tensor::Policy`] active at construction
/// (`ACCEL_KV_PAGE`, else [`tensor::kvpool::DEFAULT_PAGE_ROWS`], by
/// default).
#[derive(Debug)]
pub struct KvArena {
    pub(crate) k: KvPool<i8>,
    pub(crate) v: KvPool<i8>,
}

impl KvArena {
    /// An arena for caches `d_model` columns wide, with the page height
    /// of the calling thread's [`tensor::Policy`].
    pub(crate) fn new(d_model: usize) -> Self {
        Self::with_page_rows(d_model, tensor::Policy::current().kv_page_rows)
    }

    /// An arena sized for `model`'s decoder caches.
    pub fn for_model(model: &QuantSeq2Seq) -> Self {
        Self::new(model.tgt_embedding().d_model())
    }

    /// An arena with an explicit page height (tests pin this so their
    /// page-boundary assertions hold under any policy).
    pub fn with_page_rows(d_model: usize, page_rows: usize) -> Self {
        Self {
            k: KvPool::new(page_rows, d_model),
            v: KvPool::new(page_rows, d_model),
        }
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.k.page_rows()
    }

    /// Bytes resident in pages currently held by live sessions (whole
    /// pages, K and V pools together) — the serving memory budget's
    /// denominator.
    pub fn kv_bytes_in_use(&self) -> usize {
        self.k.bytes_in_use() + self.v.bytes_in_use()
    }

    /// Pages held by live sessions across both pools.
    #[cfg(test)]
    pub(crate) fn pages_in_use(&self) -> usize {
        self.k.pages_in_use() + self.v.pages_in_use()
    }
}

/// One decoder layer's caches. The cross-attention K/V belong to the
/// source sentence, never change after [`QuantSeq2Seq::start_session`],
/// and are shared by every fork of the session (one allocation — which
/// is also what lets forks attend them together, see
/// [`crate::attention_cohorts`]).
#[derive(Debug)]
struct QLayerCache {
    self_k: KvSeq,
    self_v: KvSeq,
    cross_k: Arc<Mat<i8>>,
    cross_v: Arc<Mat<i8>>,
}

/// An INT8 decoding session over one source sentence. Self-attention
/// K/V are block tables into the [`KvArena`] the session was started
/// with; every session method must be given that same arena. Call
/// [`release`](Self::release) when done to return the pages (dropping
/// the session without releasing leaks its pages until the arena is
/// dropped).
#[derive(Debug)]
pub struct QuantIncrementalSession {
    memory_rows: usize,
    layers: Vec<QLayerCache>,
    pos: usize,
}

impl QuantSeq2Seq {
    /// Opens an incremental decoding session in `arena`: encodes `src`
    /// and precomputes each decoder layer's cross-attention K/V codes —
    /// [`QuantSeq2Seq::start_sessions`] over one source. Self-attention
    /// KV pages are allocated on demand as tokens are consumed — a fresh
    /// session holds no pages.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty or `arena` is not `d_model` wide.
    pub fn start_session(&self, arena: &mut KvArena, src: &[usize]) -> QuantIncrementalSession {
        self.start_sessions(arena, &[src])
            .pop()
            .expect("one session per source")
    }

    /// Opens one session per source (in order) as **one** stacked pass:
    /// the sources are encoded together (each encoder weight GEMM once
    /// over all their rows, attention per source), and each decoder
    /// layer's cross-attention `W_K`/`W_V` projections run once over the
    /// stacked encoder output. Each session's
    /// cross-attention K/V are then copied into allocations of its own,
    /// so sessions started together never share storage — only a
    /// [`fork`](QuantIncrementalSession::fork) does, which is what
    /// [`crate::attention_cohorts`] keys on. Every session is
    /// bit-identical to [`QuantSeq2Seq::start_session`] on its source
    /// alone. No sources, no sessions.
    ///
    /// # Panics
    ///
    /// Panics if any source is empty or `arena` is not `d_model` wide.
    pub fn start_sessions(
        &self,
        arena: &mut KvArena,
        srcs: &[&[usize]],
    ) -> Vec<QuantIncrementalSession> {
        assert!(
            srcs.iter().all(|s| !s.is_empty()),
            "source must be non-empty"
        );
        assert_eq!(
            arena.k.cols(),
            self.tgt_embedding().d_model(),
            "arena width does not match the model's d_model"
        );
        if srcs.is_empty() {
            return Vec::new();
        }
        let groups: Vec<usize> = srcs.iter().map(|s| s.len()).collect();
        let memory = {
            let _span = phase::span(Phase::Admission);
            self.encode_stacked(srcs)
        };
        let _span = phase::span(Phase::CrossKv);
        let mut sessions: Vec<QuantIncrementalSession> = groups
            .iter()
            .map(|&rows| QuantIncrementalSession {
                memory_rows: rows,
                layers: Vec::with_capacity(self.decoder_layers().len()),
                pos: 0,
            })
            .collect();
        for layer in self.decoder_layers() {
            let (_, wk, wv, _) = layer.cross_mha.projections();
            let keys = split_rows(&wk.forward(&memory), &groups);
            let vals = split_rows(&wv.forward(&memory), &groups);
            for ((session, k), v) in sessions.iter_mut().zip(keys).zip(vals) {
                session.layers.push(QLayerCache {
                    self_k: KvSeq::new(),
                    self_v: KvSeq::new(),
                    cross_k: Arc::new(k),
                    cross_v: Arc::new(v),
                });
            }
        }
        sessions
    }

    /// Feeds one target token and returns the next-token logits (FP32,
    /// from the output projection): [`QuantSeq2Seq::prefill_sessions`]
    /// on one session and a one-token chunk. Bit-identical to the
    /// full-prefix decode at the same position.
    pub fn step_session(
        &self,
        arena: &mut KvArena,
        session: &mut QuantIncrementalSession,
        token: usize,
    ) -> Vec<f32> {
        self.prefill_sessions(arena, &mut [session], &[&[token]])
            .remove(0)
    }

    /// Advances several sessions by one token each —
    /// [`QuantSeq2Seq::prefill_sessions`] with one-token chunks: the
    /// active rows are stacked into one `b × d_model` matrix and each
    /// layer's `W_K`/`W_V`/`W_Q`/`W_G` projections, FFN sublayers and the
    /// final output projection run **once** over all rows, while the
    /// per-session attention (whose cache lengths differ) fans out across
    /// threads. Row `r`'s logits are bit-identical to advancing session
    /// `r` alone — the GEMM kernels never reorder a row's accumulation —
    /// so continuous batching cannot change any decode.
    ///
    /// Sessions may sit at different positions; each token is embedded at
    /// its own session's position.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty or its length differs from
    /// `tokens`'.
    pub fn step_sessions(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        tokens: &[usize],
    ) -> Vec<Vec<f32>> {
        assert_eq!(sessions.len(), tokens.len(), "one token per session");
        let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
        self.prefill_sessions(arena, sessions, &chunks)
    }

    /// Consumes a multi-token **chunk** per session in one pass — the
    /// chunked-prefill step. Chunk rows are stacked across sessions into
    /// one matrix, so each layer's projections, output matmul and FFN
    /// run as a single GEMM over `sum(chunk lengths)` rows; per-session
    /// attention ([`cached_mha_rows`], with its intra-chunk causal
    /// prefix) fans out across threads. Returns each session's
    /// **last-row** logits — the next-token distribution after its chunk
    /// — bit-identical to feeding the same tokens one [`step_session`]
    /// at a time (softmax columns beyond a row's prefix carry
    /// exactly-zero probability codes, which contribute nothing to the
    /// context GEMM). Since only those rows are emitted, the last
    /// decoder layer runs past its `W_K`/`W_V` projections (which every
    /// chunk row needs for the caches) on each session's final row only.
    ///
    /// Chunks may have different lengths; a length-1 chunk is exactly a
    /// decode step, so prefill chunks and decode steps can share one
    /// batched call.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty, lengths differ, or any chunk is
    /// empty.
    ///
    /// [`step_session`]: QuantSeq2Seq::step_session
    pub fn prefill_sessions(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        chunks: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        let last = self.prefill_last_rows(arena, sessions, chunks);
        let logits = self.output_projection_rows(&last);
        (0..logits.rows()).map(|i| logits.row(i).to_vec()).collect()
    }

    /// [`QuantSeq2Seq::prefill_sessions`] for greedy decoding: the same
    /// pass over the same sessions, returning each session's next token
    /// — `tensor::ops::argmax` of the logits `prefill_sessions` would
    /// return, exactly, ties included — without forming the
    /// `b x vocab` logits (`transformer::greedy`), plus what the greedy
    /// head's screen did. The last decoder layer runs only each
    /// session's final chunk row, as in `prefill_sessions`.
    ///
    /// # Panics
    ///
    /// As [`QuantSeq2Seq::prefill_sessions`]; a NaN logit panics as
    /// `ops::argmax` does.
    pub fn prefill_sessions_greedy(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        chunks: &[&[usize]],
    ) -> (Vec<usize>, GreedyStats) {
        let last = self.prefill_last_rows(arena, sessions, chunks);
        self.output_projection_argmax(&last)
    }

    /// The decoder pass behind both heads: consumes every session's
    /// chunk and returns the dequantized last row of each (one row per
    /// session, in order) — the output projection's input. Every layer
    /// pushes K/V for all chunk rows; past that, the last layer runs
    /// each session's final row alone (a decode step's rows as they are).
    fn prefill_last_rows(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        chunks: &[&[usize]],
    ) -> Mat<f32> {
        assert_eq!(sessions.len(), chunks.len(), "one chunk per session");
        assert!(!sessions.is_empty(), "empty step batch");
        assert!(
            chunks.iter().all(|c| !c.is_empty()),
            "prefill chunks must be non-empty"
        );
        let b = sessions.len();
        let d_model = self.tgt_embedding().d_model();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let mut groups: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let embed = phase::span(Phase::Embed);
        let mut emb = Mat::zeros(total, d_model);
        let mut r = 0;
        for (session, chunk) in sessions.iter().zip(chunks) {
            for (j, &token) in chunk.iter().enumerate() {
                self.tgt_embedding()
                    .embed_into(token, session.pos + j, emb.row_mut(r));
                r += 1;
            }
        }
        let mut x = self.decoder_layers()[0].self_mha.quantize_input_q(&emb);
        drop(embed);
        let n_layers = self.decoder_layers().len();
        for (l, layer) in self.decoder_layers().iter().enumerate() {
            // Extend every session's projected self-attention cache with
            // its chunk's rows of this step's batched K/V projections.
            let (_, wk, wv, _) = layer.self_mha.projections();
            let k_new = wk.forward(&x);
            let v_new = wv.forward(&x);
            let push = phase::span(Phase::KvPush);
            let mut r0 = 0;
            for (session, chunk) in sessions.iter_mut().zip(chunks) {
                let cache = &mut session.layers[l];
                for j in 0..chunk.len() {
                    arena.k.push_row(&mut cache.self_k, k_new.row(r0 + j));
                    arena.v.push_row(&mut cache.self_v, v_new.row(r0 + j));
                }
                r0 += chunk.len();
            }
            drop(push);
            if l + 1 == n_layers && total > b {
                // Only each session's final row reaches the head: run the
                // rest of the last layer on those b rows, one-row causal
                // groups attending the whole cache as that row did.
                let mut last = Mat::zeros(b, d_model);
                let mut r0 = 0;
                for (i, rows) in groups.iter_mut().enumerate() {
                    r0 += *rows;
                    last.row_mut(i).copy_from_slice(x.row(r0 - 1));
                    *rows = 1;
                }
                x = last;
            }
            let (self_k, self_v): (Vec<_>, Vec<_>) = sessions
                .iter()
                .map(|s| s.self_attention_caches(arena, l))
                .unzip();
            let a = cached_mha_rows(&layer.self_mha, &x, &groups, &self_k, &self_v, true);
            let (cross_k, cross_v): (Vec<_>, Vec<_>) =
                sessions.iter().map(|s| s.cross_attention_caches(l)).unzip();
            let bm = cached_mha_rows(&layer.cross_mha, &a, &groups, &cross_k, &cross_v, false);
            let (c, _) = layer.ffn.forward(&bm);
            x = c;
        }
        for (session, chunk) in sessions.iter_mut().zip(chunks) {
            session.pos += chunk.len();
        }
        let _embed = phase::span(Phase::Embed);
        let last_ffn = &self.decoder_layers()[n_layers - 1].ffn;
        last_ffn.dequantize_output(&x)
    }

    /// Greedy decoding through the INT8 KV cache (private arena; pages
    /// are reclaimed when it drops).
    pub fn greedy_decode_incremental(&self, src: &[usize], max_len: usize) -> Vec<usize> {
        let mut arena = KvArena::for_model(self);
        let mut session = self.start_session(&mut arena, src);
        let mut out = Vec::new();
        let mut token = BOS;
        for _ in 0..max_len {
            let logits = self.step_session(&mut arena, &mut session, token);
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            out.push(next);
            token = next;
        }
        out
    }

    /// Sequential (token-at-a-time) reference for prompted decoding:
    /// feeds `BOS` then every prompt token as one-token steps of one
    /// session, then greedily generates up to `max_new` tokens. Returns
    /// only the generated tokens. The serving path — any batch, any
    /// chunk size, any page size — must match this bit for bit; it is
    /// the differential suites' golden path.
    pub fn greedy_decode_with_prompt(
        &self,
        src: &[usize],
        prompt: &[usize],
        max_new: usize,
    ) -> Vec<usize> {
        let mut arena = KvArena::for_model(self);
        let mut session = self.start_session(&mut arena, src);
        let mut logits = self.step_session(&mut arena, &mut session, BOS);
        for &t in prompt {
            logits = self.step_session(&mut arena, &mut session, t);
        }
        let mut out = Vec::new();
        for _ in 0..max_new {
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            out.push(next);
            logits = self.step_session(&mut arena, &mut session, next);
        }
        out
    }
}

impl QuantIncrementalSession {
    /// Target tokens consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Encoder memory length this session attends over.
    pub fn memory_rows(&self) -> usize {
        self.memory_rows
    }

    /// Decoder layer `layer`'s self-attention `(K, V)` caches, as the
    /// step's attention reads them.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not a decoder layer.
    pub fn self_attention_caches<'a>(
        &'a self,
        arena: &'a KvArena,
        layer: usize,
    ) -> (CacheRef<'a>, CacheRef<'a>) {
        let c = &self.layers[layer];
        (
            CacheRef::paged(&arena.k, &c.self_k),
            CacheRef::paged(&arena.v, &c.self_v),
        )
    }

    /// Decoder layer `layer`'s cross-attention `(K, V)` caches — the
    /// same allocations in every fork of this session.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not a decoder layer.
    pub fn cross_attention_caches(&self, layer: usize) -> (CacheRef<'_>, CacheRef<'_>) {
        let c = &self.layers[layer];
        (CacheRef::flat(&c.cross_k), CacheRef::flat(&c.cross_v))
    }

    /// Bytes of paged KV storage resident for this session (whole
    /// pages, K and V, all layers).
    pub fn resident_kv_bytes(&self, arena: &KvArena) -> usize {
        self.layers
            .iter()
            .map(|c| {
                (arena.k.resident_rows(&c.self_k) + arena.v.resident_rows(&c.self_v))
                    * arena.k.cols()
            })
            .sum()
    }

    /// Rewinds the session by `rows` steps: drops the newest `rows` rows
    /// from every layer's projected self-attention K/V cache and moves
    /// `pos` back.
    ///
    /// The caches hold *inputs* to the datapath (the projected codes of
    /// tokens already consumed), so after a rollback, feeding the same
    /// tokens again is bit-identical to the first attempt — the recovery
    /// primitive the serving layer's retry-on-detected-fault path is
    /// built on (a faulted chunk is rolled back and replayed whole,
    /// whether it held one decode row or a prefill chunk). Truncation
    /// crosses page boundaries: a page emptied by the rollback goes back
    /// to the arena's free list.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or the session has consumed fewer than
    /// `rows` tokens.
    pub fn rollback_rows(&mut self, arena: &mut KvArena, rows: usize) {
        assert!(rows > 0, "rollback of zero rows");
        assert!(
            self.pos >= rows,
            "rollback of {rows} rows on a session at pos {}",
            self.pos
        );
        self.pos -= rows;
        for cache in &mut self.layers {
            arena.k.truncate(&mut cache.self_k, self.pos);
            arena.v.truncate(&mut cache.self_v, self.pos);
        }
    }

    /// Returns every KV page this session holds to the arena's free
    /// list (copy-free). The session is back to a fresh state
    /// (`pos == 0`) but remains usable.
    pub fn release(&mut self, arena: &mut KvArena) {
        self.pos = 0;
        for cache in &mut self.layers {
            arena.k.release(&mut cache.self_k);
            arena.v.release(&mut cache.self_v);
        }
    }

    /// Forks this session: the child sees the same consumed prefix at
    /// the same position, **sharing** every full KV page with the
    /// parent (refcount bump — near-zero copy; only partially-filled
    /// tail pages are duplicated) and sharing the per-source cross-
    /// attention K/V allocations. Parent and child then advance, roll
    /// back, and release fully independently — divergent pushes
    /// copy-on-write, so neither can perturb the other's bits. This is
    /// the primitive the serving layer's shared-prefix cache hits fork
    /// on admission.
    pub fn fork(&self, arena: &mut KvArena) -> QuantIncrementalSession {
        QuantIncrementalSession {
            memory_rows: self.memory_rows,
            layers: self
                .layers
                .iter()
                .map(|c| QLayerCache {
                    self_k: arena.k.fork(&c.self_k),
                    self_v: arena.v.fork(&c.self_v),
                    cross_k: Arc::clone(&c.cross_k),
                    cross_v: Arc::clone(&c.cross_v),
                })
                .collect(),
            pos: self.pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::attention_cohorts;
    use crate::softmax::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen};

    /// A session's position and every layer's self-attention `[K, V]`
    /// rows, read through their page runs.
    #[allow(clippy::type_complexity)]
    fn state(arena: &KvArena, s: &QuantIncrementalSession) -> (usize, Vec<[Vec<i8>; 2]>) {
        let rows = |pool: &KvPool<i8>, seq: &KvSeq| -> Vec<i8> {
            let runs = pool.page_runs(seq, 0..seq.rows());
            runs.flat_map(|(_, run)| run.iter().copied()).collect()
        };
        let layer = |c: &QLayerCache| [rows(&arena.k, &c.self_k), rows(&arena.v, &c.self_v)];
        (s.pos, s.layers.iter().map(layer).collect())
    }

    #[allow(clippy::type_complexity)]
    fn setup() -> (QuantSeq2Seq, Vec<(Vec<usize>, Vec<usize>)>) {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(21);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
        let corpus = gen.corpus(5, &mut StdRng::seed_from_u64(22));
        (
            QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware),
            corpus,
        )
    }

    #[test]
    fn incremental_decode_is_bit_identical_to_full() {
        let (q, corpus) = setup();
        for (src, _) in &corpus {
            let full = q.greedy_decode(src, BOS, EOS, 8);
            let inc = q.greedy_decode_incremental(src, 8);
            assert_eq!(full, inc, "src {src:?}");
        }
    }

    #[test]
    fn step_logits_match_teacher_forced_last_row() {
        let (q, corpus) = setup();
        let (src, tgt) = &corpus[0];
        let mut tin = vec![BOS];
        tin.extend_from_slice(tgt);
        let full = q.forward_logits(src, &tin);
        let mut arena = KvArena::for_model(&q);
        let mut session = q.start_session(&mut arena, src);
        let mut got = Vec::new();
        for &t in &tin {
            got = q.step_session(&mut arena, &mut session, t);
        }
        let want = full.row(tin.len() - 1);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g, w, "logits must be bit-identical");
        }
    }

    #[test]
    fn session_bookkeeping() {
        let (q, corpus) = setup();
        let (src, _) = &corpus[1];
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        assert_eq!(s.pos(), 0);
        assert_eq!(s.memory_rows(), src.len());
        let _ = q.step_session(&mut arena, &mut s, BOS);
        assert_eq!(s.pos(), 1);
    }

    #[test]
    fn kv_pages_allocate_on_demand_and_release() {
        // The old path reserved max_len rows per layer up front; the
        // paged arena must hold zero pages for a fresh session, grow one
        // page per pool per layer on the first step, and return
        // everything on release.
        let (q, corpus) = setup();
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        assert_eq!(s.resident_kv_bytes(&arena), 0);
        let _ = q.step_session(&mut arena, &mut s, BOS);
        let n_layers = 2;
        let one_page = 4 * d_model;
        assert_eq!(arena.kv_bytes_in_use(), n_layers * 2 * one_page);
        // Steps 2..4 fit in the same pages; step 5 opens new ones.
        for t in 0..3 {
            let _ = q.step_session(&mut arena, &mut s, 3 + t);
        }
        assert_eq!(arena.kv_bytes_in_use(), n_layers * 2 * one_page);
        let _ = q.step_session(&mut arena, &mut s, 5);
        assert_eq!(arena.kv_bytes_in_use(), 2 * n_layers * 2 * one_page);
        assert_eq!(s.resident_kv_bytes(&arena), arena.kv_bytes_in_use());
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        // A new session reuses the freed pages without fresh allocation.
        let allocated = arena.k.bytes_allocated() + arena.v.bytes_allocated();
        let mut s2 = q.start_session(&mut arena, &corpus[1].0);
        for t in 0..5 {
            let _ = q.step_session(&mut arena, &mut s2, 3 + t);
        }
        assert_eq!(
            arena.k.bytes_allocated() + arena.v.bytes_allocated(),
            allocated
        );
    }

    type Run = (KvArena, QuantIncrementalSession, Vec<f32>);
    type Sessions<'a> = [&'a mut QuantIncrementalSession];

    /// `tokens` fed to a fresh session on `src` one step at a time in an
    /// arena of 3-row pages (mid-chunk page boundaries everywhere): the
    /// arena, the session and the last step's logits.
    fn sequential(q: &QuantSeq2Seq, src: &[usize], tokens: &[usize]) -> Run {
        let mut arena = KvArena::with_page_rows(q.tgt_embedding().d_model(), 3);
        let (mut s, mut logits) = (q.start_session(&mut arena, src), vec![]);
        for &t in tokens {
            logits = q.step_session(&mut arena, &mut s, t);
        }
        (arena, s, logits)
    }

    /// Advances four sessions at different positions in one arena (a
    /// fresh one, one stepped once, two forks sharing a 7-row snapshot's
    /// pages) by `chunks` in one `call`; checks each one's logits,
    /// position and K and V rows against its tokens fed one at a time.
    fn four_sessions_match(
        chunks: [&[usize]; 4],
        call: impl FnOnce(&QuantSeq2Seq, &mut KvArena, &mut Sessions) -> Vec<Vec<f32>>,
    ) -> (QuantSeq2Seq, KvArena, [QuantIncrementalSession; 4]) {
        let (q, corpus) = setup();
        let head = &[&[BOS][..], &corpus[0].1, &corpus[1].1].concat()[..7];
        let (mut arena, mut snap, _) = sequential(&q, &corpus[0].0, &[]);
        let _ = q.prefill_sessions(&mut arena, &mut [&mut snap], &[head]);
        let (f1, f2) = (snap.fork(&mut arena), snap.fork(&mut arena));
        let mut d = q.start_session(&mut arena, &corpus[2].0);
        let _ = q.step_session(&mut arena, &mut d, BOS);
        let mut sessions = [q.start_session(&mut arena, &corpus[1].0), d, f1, f2];
        let got = call(&q, &mut arena, &mut sessions.each_mut());
        let fed: [(usize, &[usize]); 4] = [(1, &[]), (2, &[BOS]), (0, head), (0, head)];
        for (i, (c, fed)) in fed.into_iter().enumerate() {
            let (arena_ref, r, want) = sequential(&q, &corpus[c].0, &[fed, chunks[i]].concat());
            assert_eq!(got[i], want, "session {i}");
            assert_eq!(state(&arena, &sessions[i]), state(&arena_ref, &r));
        }
        (q, arena, sessions)
    }

    #[test]
    fn batched_step_is_bit_identical_to_single_steps() {
        let chunks: [&[usize]; 4] = [&[3], &[4], &[5], &[6]];
        let _ = four_sessions_match(chunks, |q, a, s| q.step_sessions(a, s, &[3, 4, 5, 6]));
    }

    #[test]
    fn chunked_prefill_is_bit_identical_to_sequential_steps() {
        // One prompt fed in one chunk, in page-straddling chunks and one
        // token at a time: bit-identical logits and K and V caches.
        let (q, corpus) = setup();
        let (src, prompt) = (
            &corpus[0].0,
            [&[BOS][..], &corpus[0].1, &corpus[1].1].concat(),
        );
        let (arena_ref, s_ref, want) = sequential(&q, src, &prompt);
        for split in [prompt.len(), 1, 3, 5] {
            let (mut arena, mut s, _) = sequential(&q, src, &[]);
            let mut got = vec![];
            for chunk in prompt.chunks(split) {
                got = q.prefill_sessions(&mut arena, &mut [&mut s], &[chunk]);
            }
            assert_eq!(want, got[0], "chunk size {split}");
            assert_eq!(state(&arena, &s), state(&arena_ref, &s_ref), "{split}");
        }
    }

    #[test]
    fn mixed_prefill_and_decode_chunks_are_bit_identical() {
        // The two forks attend their shared pages as a cohort in every
        // layer — the last one too, where each runs its final row alone.
        let chunks: [&[usize]; 4] = [&[BOS, 3, 4, 5], &[7], &[5, 6, 7], &[4, 3]];
        let (q, kv, s) = four_sessions_match(chunks, |q, a, x| q.prefill_sessions(a, x, &chunks));
        let last = q.decoder_layers().len() - 1;
        let caches = s[2..].iter().map(|s| s.self_attention_caches(&kv, last));
        let (k, v): (Vec<_>, Vec<_>) = caches.unzip();
        let cohort = attention_cohorts(&[1, 1], &k, &v, true);
        assert_eq!((cohort[0].members.len(), cohort[0].shared), (2, 6));
    }

    #[test]
    fn prompted_decode_matches_chunked_prefill_continuation() {
        let (q, corpus) = setup();
        let (src, tgt) = &corpus[2];
        let want = q.greedy_decode_with_prompt(src, tgt, 6);
        // Chunked path: prefill [BOS] + prompt in one chunk, then decode.
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        let mut chunk = vec![BOS];
        chunk.extend_from_slice(tgt);
        let mut logits = q
            .prefill_sessions(&mut arena, &mut [&mut s], &[&chunk])
            .remove(0);
        let mut got = Vec::new();
        for _ in 0..6 {
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            got.push(next);
            logits = q.step_session(&mut arena, &mut s, next);
        }
        assert_eq!(want, got);
    }

    #[test]
    fn rollback_then_restep_is_bit_identical() {
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        let first = q.step_session(&mut arena, &mut s, BOS);
        let second = q.step_session(&mut arena, &mut s, 4);
        // Rewind the second step and replay it: logits and caches must
        // come back bit-identical.
        s.rollback_rows(&mut arena, 1);
        assert_eq!(s.pos(), 1);
        let replay = q.step_session(&mut arena, &mut s, 4);
        assert_eq!(second, replay);
        // Rewind everything and replay both steps.
        s.rollback_rows(&mut arena, 1);
        s.rollback_rows(&mut arena, 1);
        assert_eq!(s.pos(), 0);
        for cache in &s.layers {
            assert_eq!(cache.self_k.rows(), 0);
            assert_eq!(cache.self_v.rows(), 0);
        }
        assert_eq!(first, q.step_session(&mut arena, &mut s, BOS));
        assert_eq!(second, q.step_session(&mut arena, &mut s, 4));
    }

    #[test]
    fn chunk_rollback_across_page_boundary_is_bit_identical() {
        // Consume a chunk that straddles a page boundary, roll the whole
        // chunk back (pages must return to the free list), and replay:
        // the logits must be bit-identical to the first attempt.
        let (q, corpus) = setup();
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        let warm: Vec<usize> = vec![BOS, 3];
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&warm]);
        let chunk: Vec<usize> = vec![4, 5, 6, 7]; // rows 2..6: straddles page 0/1
        let first = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let pages_after = arena.pages_in_use();
        s.rollback_rows(&mut arena, chunk.len());
        assert_eq!(s.pos(), 2);
        assert!(arena.pages_in_use() < pages_after, "rollback frees pages");
        let replay = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        assert_eq!(first, replay);
        assert_eq!(arena.pages_in_use(), pages_after);
    }

    #[test]
    fn forked_session_decodes_bit_identically_and_shares_pages() {
        // Fork a session at a page-aligned position: zero extra KV
        // bytes, and the fork's continued decode is bit-identical to an
        // independent cold session fed the same tokens — while the
        // parent's own continuation stays undisturbed.
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let d_model = q.tgt_embedding().d_model();
        let chunk: Vec<usize> = vec![BOS, 3, 4, 5, 6, 7, 3, 4]; // 2 pages of 4
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, src);
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let bytes_before = arena.kv_bytes_in_use();
        let mut f = s.fork(&mut arena);
        assert_eq!(f.pos(), s.pos());
        assert_eq!(
            arena.kv_bytes_in_use(),
            bytes_before,
            "page-aligned fork must not copy KV"
        );
        // Cold reference for the fork's continuation.
        let mut arena_ref = KvArena::with_page_rows(d_model, 4);
        let mut r = q.start_session(&mut arena_ref, src);
        let _ = q.prefill_sessions(&mut arena_ref, &mut [&mut r], &[&chunk]);
        // Diverge: fork takes token 5, parent takes token 6.
        let got_f = q.step_session(&mut arena, &mut f, 5);
        let want_f = q.step_session(&mut arena_ref, &mut r, 5);
        assert_eq!(want_f, got_f, "forked decode diverged from cold start");
        let mut arena_ref2 = KvArena::with_page_rows(d_model, 4);
        let mut r2 = q.start_session(&mut arena_ref2, src);
        let _ = q.prefill_sessions(&mut arena_ref2, &mut [&mut r2], &[&chunk]);
        let got_p = q.step_session(&mut arena, &mut s, 6);
        let want_p = q.step_session(&mut arena_ref2, &mut r2, 6);
        assert_eq!(want_p, got_p, "parent decode perturbed by fork");
        // Independent teardown releases every page.
        f.release(&mut arena);
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn fork_then_truncate_gives_page_aligned_prefix_sharing() {
        // The prefix-cache insertion path: fork a live session, roll
        // the fork back to a page boundary, keep it as the cached
        // snapshot. The snapshot must hold only shared pages (zero
        // extra bytes) and replaying from it must be bit-identical.
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, src);
        let chunk: Vec<usize> = vec![BOS, 3, 4, 5, 6, 7]; // 6 rows: page + tail
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let bytes_live = arena.kv_bytes_in_use();
        let mut snap = s.fork(&mut arena);
        snap.rollback_rows(&mut arena, 2); // back to the page boundary
        assert_eq!(snap.pos(), 4);
        assert_eq!(
            arena.kv_bytes_in_use(),
            bytes_live,
            "aligned snapshot must cost zero extra pages"
        );
        // A hit: fork the snapshot and replay the suffix on it.
        let mut hit = snap.fork(&mut arena);
        let mut logits = Vec::new();
        for &t in &chunk[4..] {
            logits = q.step_session(&mut arena, &mut hit, t);
        }
        let (_, _, want) = sequential(&q, src, &chunk); // cold reference
        assert_eq!(want, logits, "replay from shared snapshot diverged");
        hit.release(&mut arena);
        snap.release(&mut arena);
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "rollback of 1 rows on a session at pos 0")]
    fn rollback_on_fresh_session_panics() {
        let (q, corpus) = setup();
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        s.rollback_rows(&mut arena, 1);
    }

    #[test]
    #[should_panic(expected = "arena width does not match")]
    fn start_session_rejects_an_arena_of_the_wrong_width() {
        let (q, corpus) = setup();
        let mut arena = KvArena::new(q.tgt_embedding().d_model() + 8);
        let _ = q.start_session(&mut arena, &corpus[0].0);
    }

    #[test]
    #[should_panic(expected = "one token per session")]
    fn batched_step_rejects_length_mismatch() {
        let (q, corpus) = setup();
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        let _ = q.step_sessions(&mut arena, &mut [&mut s], &[BOS, BOS]);
    }

    #[test]
    fn works_in_fp32_softmax_mode_too() {
        let (mut q, corpus) = setup();
        q.set_softmax_mode(SoftmaxMode::Fp32);
        let (src, _) = &corpus[2];
        assert_eq!(
            q.greedy_decode(src, BOS, EOS, 8),
            q.greedy_decode_incremental(src, 8)
        );
    }
}
