//! KV-cached incremental decoding over a paged KV arena.
//!
//! [`crate::model::Seq2SeqTransformer::greedy_decode`] recomputes the
//! whole target prefix every step — O(L²) layer work per sentence. This
//! module keeps the projected self-attention keys/values of every
//! decoder layer (and the cross-attention K/V, which never change) in a
//! session cache, so each step runs the decoder on exactly one new row.
//! Results are equivalent to full recomputation (causal masking makes
//! position `t` independent of positions `> t`); tests assert agreement.
//!
//! Self-attention K/V live in an [`FpKvArena`] — shared fixed-size-page
//! pools ([`tensor::kvpool`]) with free-list recycling, allocated on
//! demand instead of the old `max_len`-row preallocation. The arena has
//! two storage modes ([`PagedKvMode`]):
//!
//! * **`Fp32`** — pages hold the f32 rows verbatim. Gathering a cache
//!   back out reproduces the exact bytes a flat `Mat` held, so this mode
//!   is **bit-identical** to the pre-paging decode path (gated by the
//!   same bit-identity tests).
//! * **`Int8`** — pages hold INT8 codes plus a per-row scale
//!   (symmetric max-abs quantization via [`fixedmath::QuantParams`]),
//!   cutting resident KV bytes ~4×. Dequantization is lossy; tests pin
//!   an SQNR floor and bounded decode drift rather than bit-identity.
//!
//! Sessions hold only block tables; call
//! [`IncrementalSession::release`] (or drop the arena) to recycle pages.
//!
//! There is one step body, [`step_batch`]: the active rows of any
//! number of sessions are stacked so each layer's projections and FFN
//! run as one GEMM, and the cached-attention ResBlock is a plain
//! function over per-session caches. [`IncrementalSession::step`] is
//! `step_batch` on one session.

use fixedmath::quant::QuantParams;
use tensor::kvpool::{page_rows_from_env, KvPool, KvSeq, DEFAULT_PAGE_ROWS};
use tensor::{ops, Mat};

use crate::attention::attention_forward;
use crate::mha::MhaResBlock;
use crate::model::Seq2SeqTransformer;

/// How an [`FpKvArena`] stores cached K/V rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagedKvMode {
    /// Pages hold f32 rows verbatim — bit-identical to flat caches.
    Fp32,
    /// Pages hold INT8 codes + a per-row f32 scale (~4× smaller,
    /// lossy within a pinned SQNR budget).
    Int8,
}

/// A sequence's handle inside one [`FpKvArena`] side: the data block
/// table plus (Int8 mode only) the parallel per-row scale table.
#[derive(Debug, Default)]
struct PagedKv {
    data: KvSeq,
    scale: KvSeq,
}

/// One side (K or V) of the arena: an f32 page pool for `Fp32` mode,
/// or an i8 code pool plus a 1-column f32 scale pool for `Int8` mode.
/// Pools allocate nothing until rows are pushed, so the unused mode's
/// pools cost zero bytes.
#[derive(Debug)]
struct PagedStore {
    mode: PagedKvMode,
    f: KvPool<f32>,
    q: KvPool<i8>,
    s: KvPool<f32>,
}

impl PagedStore {
    fn new(d_model: usize, page_rows: usize, mode: PagedKvMode) -> Self {
        Self {
            mode,
            f: KvPool::new(page_rows, d_model),
            q: KvPool::new(page_rows, d_model),
            s: KvPool::new(page_rows, 1),
        }
    }

    fn push(&mut self, kv: &mut PagedKv, row: &[f32]) {
        match self.mode {
            PagedKvMode::Fp32 => self.f.push_row(&mut kv.data, row),
            PagedKvMode::Int8 => {
                let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let qp = QuantParams::from_max_abs(max_abs);
                let codes: Vec<i8> = row.iter().map(|&v| qp.quantize(v)).collect();
                self.q.push_row(&mut kv.data, &codes);
                self.s.push_row(&mut kv.scale, &[qp.scale()]);
            }
        }
    }

    /// Materializes the cached rows as a dense f32 matrix: an exact
    /// gather in `Fp32` mode, `code × scale` dequantization in `Int8`.
    fn to_mat(&self, kv: &PagedKv) -> Mat<f32> {
        match self.mode {
            PagedKvMode::Fp32 => self.f.to_mat(&kv.data),
            PagedKvMode::Int8 => {
                let rows = kv.data.rows();
                let mut out = Mat::zeros(rows, self.q.cols());
                for r in 0..rows {
                    let scale = self.s.row(&kv.scale, r)[0];
                    for (o, &c) in out.row_mut(r).iter_mut().zip(self.q.row(&kv.data, r)) {
                        *o = c as f32 * scale;
                    }
                }
                out
            }
        }
    }

    fn truncate(&mut self, kv: &mut PagedKv, rows: usize) {
        match self.mode {
            PagedKvMode::Fp32 => self.f.truncate(&mut kv.data, rows),
            PagedKvMode::Int8 => {
                self.q.truncate(&mut kv.data, rows);
                self.s.truncate(&mut kv.scale, rows);
            }
        }
    }

    /// Forks a handle: full pages are shared (refcount bump), the
    /// partial tail page is copied; divergent pushes copy-on-write.
    fn fork(&mut self, kv: &PagedKv) -> PagedKv {
        match self.mode {
            PagedKvMode::Fp32 => PagedKv {
                data: self.f.fork(&kv.data),
                scale: KvSeq::new(),
            },
            PagedKvMode::Int8 => PagedKv {
                data: self.q.fork(&kv.data),
                scale: self.s.fork(&kv.scale),
            },
        }
    }

    fn release(&mut self, kv: &mut PagedKv) {
        self.truncate(kv, 0);
    }

    fn bytes_in_use(&self) -> usize {
        self.f.bytes_in_use() + self.q.bytes_in_use() + self.s.bytes_in_use()
    }
}

/// The FP32 model's paged KV arena: shared page pools for every
/// session's and layer's self-attention K/V. Create one per engine (or
/// rely on [`greedy_decode_incremental`]'s private arena) and pass it
/// to every session call. Page height defaults to
/// [`DEFAULT_PAGE_ROWS`], overridable via `ACCEL_KV_PAGE`.
#[derive(Debug)]
pub struct FpKvArena {
    k: PagedStore,
    v: PagedStore,
}

impl FpKvArena {
    /// A bit-identical `Fp32`-mode arena for caches `d_model` wide.
    pub fn new(d_model: usize) -> Self {
        Self::with_mode(d_model, PagedKvMode::Fp32)
    }

    /// An arena with an explicit storage mode.
    pub fn with_mode(d_model: usize, mode: PagedKvMode) -> Self {
        Self::with_page_rows(d_model, mode, page_rows_from_env(DEFAULT_PAGE_ROWS))
    }

    /// An arena with an explicit page height (tests pin this so their
    /// page-boundary assertions hold under any `ACCEL_KV_PAGE`).
    pub fn with_page_rows(d_model: usize, mode: PagedKvMode, page_rows: usize) -> Self {
        Self {
            k: PagedStore::new(d_model, page_rows, mode),
            v: PagedStore::new(d_model, page_rows, mode),
        }
    }

    /// An `Fp32`-mode arena sized for `model`'s decoder caches.
    pub fn for_model(model: &Seq2SeqTransformer) -> Self {
        Self::new(model.config().d_model)
    }

    /// The storage mode.
    pub fn mode(&self) -> PagedKvMode {
        self.k.mode
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.k.f.page_rows()
    }

    /// Bytes resident in pages held by live sessions (whole pages, K
    /// and V, codes and scales).
    pub fn kv_bytes_in_use(&self) -> usize {
        self.k.bytes_in_use() + self.v.bytes_in_use()
    }
}

/// Per-layer cache: paged projected self-attention K/V so far, and the
/// fixed cross-attention K/V from the encoder memory (exact-size flat
/// matrices — their length is the source length, known up front).
#[derive(Debug)]
struct LayerCache {
    self_k: PagedKv,
    self_v: PagedKv,
    cross_k: Mat<f32>,
    cross_v: Mat<f32>,
}

/// A decoding session over one source sentence. Self-attention K/V are
/// block tables into the [`FpKvArena`] the session was started with;
/// every session method must be given that same arena.
#[derive(Debug)]
pub struct IncrementalSession {
    layers: Vec<LayerCache>,
    pos: usize,
}

/// Applies a full MHA ResBlock to a stack of rows, one per session,
/// each attending over its own session's projected K/V cache: the `W_Q`
/// and `W_O` projections run once over all rows; the per-session
/// attention (different cache lengths, so heads cannot be batched
/// across sessions) fans out across threads. The GEMM kernels never
/// reorder a row's accumulation, so row `r` is bit-identical to a
/// single-row run on row `r` alone.
fn resblock_rows(block: &MhaResBlock, x: &Mat<f32>, kvs: &[(&Mat<f32>, &Mat<f32>)]) -> Mat<f32> {
    assert_eq!(x.rows(), kvs.len(), "one K/V cache pair per row");
    let (wq, _, _, wo) = block.mha().projections();
    let h = block.mha().heads();
    let d_k = wq.d_in() / h;
    let scale = 1.0 / (d_k as f32).sqrt();
    let q = wq.forward_inference(x);
    let rows: Vec<usize> = (0..x.rows()).collect();
    let att_rows = tensor::par::par_map(&rows, |&r| {
        let (keys, vals) = kvs[r];
        let mut heads = Vec::with_capacity(h);
        for i in 0..h {
            let c0 = i * d_k;
            let qi = q.submatrix(r, c0, 1, d_k).expect("head panel");
            let ki = keys.submatrix(0, c0, keys.rows(), d_k).expect("head panel");
            let vi = vals.submatrix(0, c0, vals.rows(), d_k).expect("head panel");
            let (out, _) = attention_forward(&qi, &ki, &vi, None, scale);
            heads.push(out);
        }
        Mat::hconcat(&heads).expect("heads share rows")
    });
    let concat = Mat::vconcat(&att_rows).expect("rows share width");
    // The W_O projection and the residual add fuse into one drain (the
    // fused-graph `LinearAdd(Wo)` rewrite, applied by hand).
    let res = if tensor::envcfg::fuse_enabled() {
        let bytes = concat.rows() * wo.d_out() * std::mem::size_of::<f32>();
        graph::tally::note_fused(1, bytes);
        wo.forward_inference_add(&concat, x)
    } else {
        let sub = wo.forward_inference(&concat);
        ops::add(x, &sub).expect("residual shape")
    };
    block.layernorm().forward_inference(&res)
}

impl IncrementalSession {
    /// Encodes `src` and prepares per-layer caches in `arena`. A fresh
    /// session holds no KV pages; they are allocated on demand as
    /// tokens are consumed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn new(model: &Seq2SeqTransformer, arena: &mut FpKvArena, src: &[usize]) -> Self {
        assert!(!src.is_empty(), "source must be non-empty");
        assert_eq!(
            arena.k.f.cols(),
            model.config().d_model,
            "arena width does not match the model's d_model"
        );
        let src_x = model.src_embedding().forward_inference(src);
        let memory = model.encoder().forward_inference(&src_x, None);
        let layers = model
            .decoder()
            .layers()
            .iter()
            .map(|layer| {
                let (_, cross, _) = layer.blocks();
                let (_, wk, wv, _) = cross.mha().projections();
                LayerCache {
                    self_k: PagedKv::default(),
                    self_v: PagedKv::default(),
                    cross_k: wk.forward_inference(&memory),
                    cross_v: wv.forward_inference(&memory),
                }
            })
            .collect();
        Self { layers, pos: 0 }
    }

    /// Number of target tokens consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Returns every KV page this session holds to the arena's free
    /// list (copy-free). The session is back to a fresh state.
    pub fn release(&mut self, arena: &mut FpKvArena) {
        self.pos = 0;
        for cache in &mut self.layers {
            arena.k.release(&mut cache.self_k);
            arena.v.release(&mut cache.self_v);
        }
    }

    /// Rewinds the session by `rows` steps, dropping the newest cached
    /// K/V rows from every layer (pages recycle only when their last
    /// reference is dropped — rolling back into a page shared with a
    /// fork never mutates it).
    ///
    /// # Panics
    ///
    /// Panics if the session has consumed fewer than `rows` tokens.
    pub fn rollback_rows(&mut self, arena: &mut FpKvArena, rows: usize) {
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

    /// Forks this session: the child sees the same consumed prefix at
    /// the same position, sharing every full KV page with the parent
    /// (only partial tail pages are copied) and cloning the fixed
    /// cross-attention K/V. Parent and child advance independently;
    /// divergent pushes copy-on-write.
    pub fn fork(&self, arena: &mut FpKvArena) -> IncrementalSession {
        IncrementalSession {
            layers: self
                .layers
                .iter()
                .map(|c| LayerCache {
                    self_k: arena.k.fork(&c.self_k),
                    self_v: arena.v.fork(&c.self_v),
                    cross_k: c.cross_k.clone(),
                    cross_v: c.cross_v.clone(),
                })
                .collect(),
            pos: self.pos,
        }
    }

    /// Feeds one target token (at the next position) and returns the
    /// next-token vocabulary logits: [`step_batch`] on this session alone.
    ///
    /// # Panics
    ///
    /// Panics if the token is out of vocabulary.
    pub fn step(
        &mut self,
        model: &Seq2SeqTransformer,
        arena: &mut FpKvArena,
        token: usize,
    ) -> Vec<f32> {
        step_batch(model, arena, &mut [self], &[token]).remove(0)
    }
}

/// Advances several sessions by one token each, batching the GEMMs: the
/// active rows are stacked into one `b × d_model` matrix, and each
/// layer's projections, FFN sublayers and the output projection run once
/// over all rows — the one step body of FP32 incremental decoding.
/// Row `r`'s logits are bit-identical to advancing session `r` alone
/// (the GEMM kernels never reorder a row's accumulation), for any batch
/// composition. Sessions may sit at different positions.
///
/// # Panics
///
/// Panics if `sessions` is empty or its length differs from `tokens`'.
pub fn step_batch(
    model: &Seq2SeqTransformer,
    arena: &mut FpKvArena,
    sessions: &mut [&mut IncrementalSession],
    tokens: &[usize],
) -> Vec<Vec<f32>> {
    assert_eq!(sessions.len(), tokens.len(), "one token per session");
    assert!(!sessions.is_empty(), "empty step batch");
    let b = sessions.len();
    let d_model = model.config().d_model;
    let mut x = Mat::zeros(b, d_model);
    for (r, (session, &token)) in sessions.iter().zip(tokens).enumerate() {
        model
            .tgt_embedding()
            .embed_into(token, session.pos, x.row_mut(r));
    }
    for (l, layer) in model.decoder().layers().iter().enumerate() {
        let (self_blk, cross_blk, ffn_blk) = layer.blocks();
        let (_, wk, wv, _) = self_blk.mha().projections();
        let k_new = wk.forward_inference(&x);
        let v_new = wv.forward_inference(&x);
        for (r, session) in sessions.iter_mut().enumerate() {
            arena.k.push(&mut session.layers[l].self_k, k_new.row(r));
            arena.v.push(&mut session.layers[l].self_v, v_new.row(r));
        }
        let self_mats: Vec<(Mat<f32>, Mat<f32>)> = sessions
            .iter()
            .map(|s| {
                (
                    arena.k.to_mat(&s.layers[l].self_k),
                    arena.v.to_mat(&s.layers[l].self_v),
                )
            })
            .collect();
        let self_kvs: Vec<(&Mat<f32>, &Mat<f32>)> =
            self_mats.iter().map(|kv| (&kv.0, &kv.1)).collect();
        let a = resblock_rows(self_blk, &x, &self_kvs);
        let cross_kvs: Vec<(&Mat<f32>, &Mat<f32>)> = sessions
            .iter()
            .map(|s| (&s.layers[l].cross_k, &s.layers[l].cross_v))
            .collect();
        let bm = resblock_rows(cross_blk, &a, &cross_kvs);
        x = ffn_blk.forward_inference(&bm);
    }
    for session in sessions.iter_mut() {
        session.pos += 1;
    }
    let logits = model.output_projection().forward_inference(&x);
    (0..b).map(|r| logits.row(r).to_vec()).collect()
}

/// Greedy decoding through the KV cache — output-equivalent to
/// [`Seq2SeqTransformer::greedy_decode`] but O(L) layer passes instead
/// of O(L²). Uses a private `Fp32`-mode (bit-identical) arena.
pub fn greedy_decode_incremental(
    model: &Seq2SeqTransformer,
    src: &[usize],
    bos: usize,
    eos: usize,
    max_len: usize,
) -> Vec<usize> {
    greedy_decode_incremental_paged(model, src, bos, eos, max_len, PagedKvMode::Fp32)
}

/// Greedy decoding through a paged KV cache in an explicit storage
/// mode — the entry point the INT8-page accuracy harness drives.
pub fn greedy_decode_incremental_paged(
    model: &Seq2SeqTransformer,
    src: &[usize],
    bos: usize,
    eos: usize,
    max_len: usize,
    mode: PagedKvMode,
) -> Vec<usize> {
    let mut arena = FpKvArena::with_mode(model.config().d_model, mode);
    let mut session = IncrementalSession::new(model, &mut arena, src);
    let mut out = Vec::new();
    let mut token = bos;
    for _ in 0..max_len {
        let logits = session.step(model, &mut arena, token);
        let next = tensor::ops::argmax(&logits);
        if next == eos {
            break;
        }
        out.push(next);
        token = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::tasks::{BOS, EOS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Seq2SeqTransformer {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        Seq2SeqTransformer::new(&cfg, &mut rng)
    }

    #[test]
    fn incremental_logits_match_full_recompute() {
        let mut m = model(1);
        let src = [3usize, 7, 4, 9];
        let prefix = [1usize, 5, 8, 6];
        // full recompute: teacher-forced logits of the last position
        let memory_logits = m.forward_train(&src, &prefix);
        let want = memory_logits.row(prefix.len() - 1).to_vec();
        // incremental
        let mut arena = FpKvArena::for_model(&m);
        let mut session = IncrementalSession::new(&m, &mut arena, &src);
        let mut got = Vec::new();
        for &t in &prefix {
            got = session.step(&m, &mut arena, t);
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn incremental_greedy_equals_full_greedy() {
        for seed in [2u64, 3, 4] {
            let mut m = model(seed);
            let src = [4usize, 5, 6, 7, 8];
            let full = m.greedy_decode(&src, BOS, EOS, 8);
            let inc = greedy_decode_incremental(&m, &src, BOS, EOS, 8);
            assert_eq!(full, inc, "seed {seed}");
        }
    }

    #[test]
    fn fp32_pages_are_bit_identical_to_flat_caches() {
        // The paged Fp32 store must reproduce the exact bytes a flat
        // cache held: step logits across page boundaries must equal a
        // flat-cache reference computed by hand.
        let m = model(11);
        let src = [3usize, 7, 4];
        let prefix = [1usize, 5, 8, 6, 2, 9, 4, 3]; // crosses 3-row pages
        let mut arena = FpKvArena::with_page_rows(m.config().d_model, PagedKvMode::Fp32, 3);
        let mut session = IncrementalSession::new(&m, &mut arena, &src);
        // Flat reference: rebuild the caches as plain matrices.
        let mut flat_arena = FpKvArena::with_page_rows(m.config().d_model, PagedKvMode::Fp32, 64);
        let mut flat = IncrementalSession::new(&m, &mut flat_arena, &src);
        for &t in &prefix {
            let got = session.step(&m, &mut arena, t);
            let want = flat.step(&m, &mut flat_arena, t);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "paged Fp32 logits must be bit-identical");
        }
    }

    #[test]
    fn int8_pages_hold_sqnr_and_shrink_kv() {
        // Int8 pages must cut resident KV bytes ~4x and reconstruct K/V
        // within a pinned SQNR floor (symmetric per-row max-abs int8
        // quantization comfortably clears 20 dB on generic rows).
        let m = model(12);
        let d_model = m.config().d_model;
        let src = [3usize, 7, 4, 9];
        let prefix = [1usize, 5, 8, 6, 2, 9];
        let mut fa = FpKvArena::with_page_rows(d_model, PagedKvMode::Fp32, 4);
        let mut qa = FpKvArena::with_page_rows(d_model, PagedKvMode::Int8, 4);
        let mut fs = IncrementalSession::new(&m, &mut fa, &src);
        let mut qs = IncrementalSession::new(&m, &mut qa, &src);
        for &t in &prefix {
            let _ = fs.step(&m, &mut fa, t);
            let _ = qs.step(&m, &mut qa, t);
        }
        // ~4x: i8 codes + 4-byte/row scale vs 4-byte/element rows.
        let ratio = fa.kv_bytes_in_use() as f64 / qa.kv_bytes_in_use() as f64;
        assert!(
            ratio > 3.5,
            "Int8 pages must shrink KV ~4x, got {ratio:.2}x"
        );
        // SQNR of the reconstructed K cache vs the exact one.
        for l in 0..fs.layers.len() {
            let exact = fa.k.to_mat(&fs.layers[l].self_k);
            let recon = qa.k.to_mat(&qs.layers[l].self_k);
            let (mut sig, mut err) = (0.0f64, 0.0f64);
            for (e, r) in exact.as_slice().iter().zip(recon.as_slice()) {
                sig += (*e as f64).powi(2);
                err += (*e as f64 - *r as f64).powi(2);
            }
            let sqnr_db = 10.0 * (sig / err.max(1e-30)).log10();
            assert!(sqnr_db > 20.0, "layer {l} K SQNR {sqnr_db:.1} dB < 20 dB");
        }
    }

    #[test]
    fn int8_mode_decodes_close_to_fp32() {
        // Int8 paged decode is lossy but must stay within a pinned drift
        // budget: on tiny random models the greedy decodes agree on a
        // clear majority of prompts (bit-identity is not expected).
        let mut agree = 0usize;
        let mut total = 0usize;
        for seed in [2u64, 3, 4, 5, 6] {
            let m = model(seed);
            let src = [4usize, 5, 6, 7, 8];
            let fp = greedy_decode_incremental_paged(&m, &src, BOS, EOS, 8, PagedKvMode::Fp32);
            let q8 = greedy_decode_incremental_paged(&m, &src, BOS, EOS, 8, PagedKvMode::Int8);
            total += 1;
            if fp == q8 {
                agree += 1;
            }
        }
        assert!(
            agree * 2 > total,
            "Int8 paged decodes diverged on {agree}/{total} prompts"
        );
    }

    #[test]
    fn resblock_single_row_matches_full_block() {
        // One row attending over a cache equals the full MHA ResBlock on
        // the same data when the cache holds the projected K/V of the
        // whole prefix and the query is the last row.
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(16);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let (_, wk, wv, _) = block.mha().projections();
        let keys = wk.forward_inference(&x);
        let vals = wv.forward_inference(&x);
        let last = x.submatrix(3, 0, 1, cfg.d_model).unwrap();
        let got = resblock_rows(&block, &last, &[(&keys, &vals)]);
        // Unmasked full block: its row 3 sees all 4 keys, as the cached
        // row does.
        let full = block.forward_inference(&x, &x, &x, None);
        assert_eq!(got.row(0), full.row(3));
    }

    #[test]
    fn resblock_batch_rows_are_independent() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(17);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 3, cfg.d_model, 1.0);
        let (_, wk, wv, _) = block.mha().projections();
        let caches: Vec<(Mat<f32>, Mat<f32>)> = (0..3)
            .map(|i| {
                let m = tensor::init::normal(&mut rng, 2 + i, cfg.d_model, 1.0);
                (wk.forward_inference(&m), wv.forward_inference(&m))
            })
            .collect();
        let kvs: Vec<(&Mat<f32>, &Mat<f32>)> = caches.iter().map(|c| (&c.0, &c.1)).collect();
        let got = resblock_rows(&block, &x, &kvs);
        for r in 0..3 {
            let row = x.submatrix(r, 0, 1, cfg.d_model).unwrap();
            let want = resblock_rows(&block, &row, &kvs[r..=r]);
            assert_eq!(got.row(r), want.row(0), "row {r}");
        }
    }

    #[test]
    fn batched_step_is_bit_identical_to_single_steps() {
        let m = model(8);
        let srcs: [&[usize]; 3] = [&[3, 7, 4], &[5, 6], &[9, 2, 4, 6]];
        let mut arena_s = FpKvArena::for_model(&m);
        let mut arena_b = FpKvArena::for_model(&m);
        let mut singles: Vec<IncrementalSession> = srcs
            .iter()
            .map(|s| IncrementalSession::new(&m, &mut arena_s, s))
            .collect();
        let mut batched: Vec<IncrementalSession> = srcs
            .iter()
            .map(|s| IncrementalSession::new(&m, &mut arena_b, s))
            .collect();
        // Desynchronize: advance the first session one extra step.
        let a = singles[0].step(&m, &mut arena_s, BOS);
        let got = step_batch(&m, &mut arena_b, &mut [&mut batched[0]], &[BOS]);
        assert_eq!(a, got[0], "single-session batch must match step()");
        for tokens in [[1usize, 5, 8], [2, 6, 4]] {
            let want: Vec<Vec<f32>> = singles
                .iter_mut()
                .zip(&tokens)
                .map(|(s, &t)| s.step(&m, &mut arena_s, t))
                .collect();
            let mut refs: Vec<&mut IncrementalSession> = batched.iter_mut().collect();
            let got = step_batch(&m, &mut arena_b, &mut refs, &tokens);
            assert_eq!(want, got, "batched logits must be bit-identical");
        }
    }

    #[test]
    #[should_panic(expected = "one token per session")]
    fn batched_step_rejects_length_mismatch() {
        let m = model(9);
        let mut arena = FpKvArena::for_model(&m);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4]);
        let _ = step_batch(&m, &mut arena, &mut [&mut s], &[BOS, BOS]);
    }

    #[test]
    fn session_tracks_position() {
        let m = model(5);
        let mut arena = FpKvArena::for_model(&m);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4]);
        assert_eq!(s.pos(), 0);
        let _ = s.step(&m, &mut arena, BOS);
        let _ = s.step(&m, &mut arena, 5);
        assert_eq!(s.pos(), 2);
    }

    #[test]
    fn cross_kv_is_precomputed_once() {
        let m = model(6);
        let mut arena = FpKvArena::for_model(&m);
        let s = IncrementalSession::new(&m, &mut arena, &[3, 4, 5]);
        for cache in &s.layers {
            assert_eq!(cache.cross_k.rows(), 3);
            assert_eq!(cache.self_k.data.rows(), 0);
        }
    }

    #[test]
    fn kv_pages_allocate_on_demand_and_release() {
        // The old path reserved max_len rows per layer up front; a fresh
        // session must now hold zero pages, grow on demand, and return
        // everything to the free list on release.
        let m = model(10);
        let d_model = m.config().d_model;
        let mut arena = FpKvArena::with_page_rows(d_model, PagedKvMode::Fp32, 4);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4, 5]);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        let _ = s.step(&m, &mut arena, BOS);
        let one_page = 4 * d_model * std::mem::size_of::<f32>();
        assert_eq!(arena.kv_bytes_in_use(), 2 * 2 * one_page); // layers × {K,V}
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn forked_session_steps_bit_identically_in_both_modes() {
        // Fork after a prefix that leaves a partial tail page, then
        // diverge parent and child: each continuation must be
        // bit-identical to an independent cold session fed the same
        // tokens (Fp32), or byte-identical on the stored codes (Int8 —
        // the pages are forked, so the codes are literally the same).
        for mode in [PagedKvMode::Fp32, PagedKvMode::Int8] {
            let m = model(13);
            let src = [3usize, 7, 4];
            let prefix = [1usize, 5, 8, 6, 2]; // 5 rows on 4-row pages
            let d_model = m.config().d_model;
            let mut arena = FpKvArena::with_page_rows(d_model, mode, 4);
            let mut s = IncrementalSession::new(&m, &mut arena, &src);
            for &t in &prefix {
                let _ = s.step(&m, &mut arena, t);
            }
            let mut f = s.fork(&mut arena);
            assert_eq!(f.pos(), s.pos());
            let mut arena_ref = FpKvArena::with_page_rows(d_model, mode, 4);
            let mut r = IncrementalSession::new(&m, &mut arena_ref, &src);
            for &t in &prefix {
                let _ = r.step(&m, &mut arena_ref, t);
            }
            let got = f.step(&m, &mut arena, 9);
            let want = r.step(&m, &mut arena_ref, 9);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "forked continuation diverged ({mode:?})");
            // The parent takes a different token; the fork's write must
            // not have leaked into its shared prefix pages.
            let mut arena_ref2 = FpKvArena::with_page_rows(d_model, mode, 4);
            let mut r2 = IncrementalSession::new(&m, &mut arena_ref2, &src);
            for &t in &prefix {
                let _ = r2.step(&m, &mut arena_ref2, t);
            }
            let got_p = s.step(&m, &mut arena, 2);
            let want_p = r2.step(&m, &mut arena_ref2, 2);
            let same_p = got_p
                .iter()
                .zip(&want_p)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same_p, "parent perturbed by fork ({mode:?})");
            // Roll the fork back across the shared boundary and replay.
            f.rollback_rows(&mut arena, 2);
            let _ = f.step(&m, &mut arena, 9);
            f.release(&mut arena);
            s.release(&mut arena);
            assert_eq!(arena.kv_bytes_in_use(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_source_rejected() {
        let m = model(7);
        let mut arena = FpKvArena::new(32);
        let _ = IncrementalSession::new(&m, &mut arena, &[]);
    }
}
