//! Replay probes: one lower-layer public function timed alone on the
//! shapes a workload implies, from outside the crates. Each probe
//! reports a median; a workload runs only the probes whose shapes it
//! produces, and every other per-layer metric prints 0 for it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use frontdoor::frame::{encode_client, encode_server};
use frontdoor::{Admission, ClientFrame, Decoder, DoorConfig, FrontDoor, ServerFrame, Submit};
use quantized::incremental::{KvArena, QuantIncrementalSession};
use quantized::softmax::scaled_masked_softmax;
use quantized::{QLinear, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::kvpool::{KvPool, KvSeq};
use tensor::prepack::{matmul_i8_prepacked, matmul_prepacked, PackedF32, PackedI8};
use tensor::Mat;
use transformer::tasks::{BOS, FIRST_CONTENT};

use crate::config::{model_config, KV_PAGE_ROWS};
use crate::setup::Model;
use crate::stats::median;
use crate::wire::door_config;

/// Named probe results.
pub type Results = Vec<(&'static str, f64)>;

/// What every probe needs.
pub struct Ctx<'m> {
    /// The canonical model.
    pub model: &'m Model,
    /// Wall-time budget of one probe.
    pub budget: Duration,
}

/// A probe: measures one or more per-layer metrics.
pub type Probe = fn(&Ctx) -> Results;

/// Calls `iteration` over the probe budget (at least three times after
/// a discarded warm-up) and returns the median of each of the `N`
/// section times it reports, in seconds. The iteration times its own
/// sections, so whatever it does between them (rolling a session back,
/// releasing a fork) stays untimed.
fn sample_medians<const N: usize>(
    budget: Duration,
    mut iteration: impl FnMut() -> [f64; N],
) -> [f64; N] {
    iteration();
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let started = Instant::now();
    while samples[0].len() < 3 || started.elapsed() < budget {
        for (section, s) in samples.iter_mut().zip(iteration()) {
            section.push(s);
        }
    }
    samples.map(|section| median(&section))
}

/// Median seconds per call of `f` over the probe budget.
fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    let [s] = sample_medians(budget, || {
        let t0 = Instant::now();
        f();
        [t0.elapsed().as_secs_f64()]
    });
    s
}

fn rng(tag: u64) -> StdRng {
    StdRng::seed_from_u64(0x0B5E_55ED ^ tag)
}

fn codes(rows: usize, cols: usize, tag: u64) -> Mat<i8> {
    tensor::init::uniform_i8(&mut rng(tag), rows, cols)
}

fn sentence(len: usize, tag: u64) -> Vec<usize> {
    let vocab = model_config().vocab;
    let mut r = rng(tag);
    (0..len)
        .map(|_| r.random_range(FIRST_CONTENT..vocab))
        .collect()
}

/// Decoder layer 0's eight weight matrices that run every step:
/// self-attention `W_Q W_K W_V W_G`, cross-attention `W_Q W_G`, and the
/// two FFN sublayers.
fn step_weights(model: &Model) -> Vec<&QLinear> {
    let layer = &model.quant.decoder_layers()[0];
    let (sq, sk, sv, sg) = layer.self_mha.projections();
    let (cq, _, _, cg) = layer.cross_mha.projections();
    let (f1, f2) = layer.ffn.sublayers();
    vec![sq, sk, sv, sg, cq, cg, f1, f2]
}

fn wgemm(ctx: &Ctx, m: usize, us: &'static str, gops: &'static str) -> Results {
    let packed: Vec<PackedI8> = step_weights(ctx.model)
        .iter()
        .map(|l| PackedI8::from_i8(l.weight_q()))
        .collect();
    let inputs: Vec<Mat<i8>> = packed
        .iter()
        .enumerate()
        .map(|(i, p)| codes(m, p.k(), i as u64))
        .collect();
    let macs: usize = packed.iter().map(|p| m * p.k() * p.n()).sum();
    let weight_bytes: usize = packed.iter().map(|p| p.k() * p.n()).sum();
    let s = time_median(ctx.budget, || {
        for (a, b) in inputs.iter().zip(&packed) {
            black_box(matmul_i8_prepacked(a, b).expect("shapes agree"));
        }
    });
    vec![
        (us, s * 1e6),
        (gops, 2.0 * macs as f64 / s / 1e9),
        ("tensor.wgemm_bytes_per_layer", weight_bytes as f64),
    ]
}

/// `tensor.wgemm_m1_*`: one decoder layer's weight GEMVs.
pub fn wgemm_m1(ctx: &Ctx) -> Results {
    wgemm(ctx, 1, "tensor.wgemm_m1_us", "tensor.wgemm_m1_gops")
}

/// `tensor.wgemm_m16_*`: the same at sixteen stacked rows.
pub fn wgemm_m16(ctx: &Ctx) -> Results {
    wgemm(ctx, 16, "tensor.wgemm_m16_us", "tensor.wgemm_m16_gops")
}

/// `tensor.wgemm_m64_*`: the same at one prefill chunk.
pub fn wgemm_m64(ctx: &Ctx) -> Results {
    wgemm(ctx, 64, "tensor.wgemm_m64_us", "tensor.wgemm_m64_gops")
}

fn outproj(ctx: &Ctx, m: usize, gemm: &'static str, linear: &'static str) -> Results {
    let lin = &ctx.model.outproj;
    let x = tensor::init::normal(&mut rng(m as u64), m, lin.d_in(), 1.0);
    let packed = PackedF32::from_f32(lin.weight());
    let g = time_median(ctx.budget, || {
        black_box(matmul_prepacked(&x, &packed).expect("shapes agree"));
    });
    let l = time_median(ctx.budget, || {
        black_box(lin.forward_inference(&x));
    });
    vec![(gemm, g * 1e6), (linear, l * 1e6)]
}

/// The FP32 `512 -> 8192` output projection at one row, as a bare GEMM
/// and through `Linear::forward_inference`.
pub fn outproj_m1(ctx: &Ctx) -> Results {
    outproj(
        ctx,
        1,
        "tensor.gemm_f32_m1_512x8192_us",
        "transformer.outproj_m1_us",
    )
}

/// The same at sixteen rows.
pub fn outproj_m16(ctx: &Ctx) -> Results {
    outproj(
        ctx,
        16,
        "tensor.gemm_f32_m16_512x8192_us",
        "transformer.outproj_m16_us",
    )
}

/// `transformer.embed_row_ns`: one token embedded at its position.
pub fn embed_row(ctx: &Ctx) -> Results {
    let emb = ctx.model.quant.tgt_embedding();
    let toks = sentence(256, 1);
    let s = time_median(ctx.budget, || {
        for (pos, &t) in toks.iter().enumerate() {
            black_box(emb.embed_at(t, pos));
        }
    });
    vec![("transformer.embed_row_ns", s * 1e9 / toks.len() as f64)]
}

/// `b` sessions over one 32-token source, each holding `ctx` rows of
/// which the first `shared` live in pages all of them share (forks of
/// one parent, as after a prefix-cache hit) and the rest are their own.
fn sessions_at(
    model: &Model,
    arena: &mut KvArena,
    b: usize,
    ctx: usize,
    shared: usize,
) -> Vec<QuantIncrementalSession> {
    let q = &model.quant;
    let mut prompt = vec![BOS];
    prompt.extend(sentence(ctx - 1, 7));
    let mut sessions = vec![q.start_session(arena, &sentence(32, 100))];
    let ingest = |arena: &mut KvArena, sessions: &mut [QuantIncrementalSession], rows: &[usize]| {
        for chunk in rows.chunks(64) {
            let mut refs: Vec<&mut QuantIncrementalSession> = sessions.iter_mut().collect();
            let chunks: Vec<&[usize]> = refs.iter().map(|_| chunk).collect();
            q.prefill_sessions(arena, &mut refs, &chunks);
        }
    };
    ingest(arena, &mut sessions, &prompt[..shared]);
    for _ in 1..b {
        let child = sessions[0].fork(arena);
        sessions.push(child);
    }
    ingest(arena, &mut sessions, &prompt[shared..]);
    sessions
}

/// Median seconds of one `step_sessions` call over `b` sessions held at
/// `ctx` rows (each step is rolled back, untimed).
fn step_time(ctx: &Ctx, b: usize, at: usize, shared: usize) -> f64 {
    let q = &ctx.model.quant;
    let mut arena = KvArena::for_model(q);
    let mut sessions = sessions_at(ctx.model, &mut arena, b, at, shared);
    let tokens = sentence(b, 9);
    let [s] = sample_medians(ctx.budget, || {
        let t0 = Instant::now();
        {
            let mut refs: Vec<&mut QuantIncrementalSession> = sessions.iter_mut().collect();
            black_box(q.step_sessions(&mut arena, &mut refs, &tokens));
        }
        let dt = t0.elapsed().as_secs_f64();
        for s in &mut sessions {
            s.rollback_rows(&mut arena, 1);
        }
        [dt]
    });
    s
}

/// `quantized.step_b1_ms`: one decode step of one session at the
/// decode workloads' mean context.
pub fn step_b1(ctx: &Ctx) -> Results {
    vec![("quantized.step_b1_ms", step_time(ctx, 1, 16, 0) * 1e3)]
}

/// `quantized.step_b16_ms`: one decode step of sixteen sessions.
pub fn step_b16(ctx: &Ctx) -> Results {
    vec![("quantized.step_b16_ms", step_time(ctx, 16, 16, 0) * 1e3)]
}

/// `quantized.step_b16_ctx256_ms` (sixteen sessions at 272 rows, 224 of
/// them shared) and the share of it that the longer context accounts
/// for.
pub fn step_b16_ctx256(ctx: &Ctx) -> Results {
    let short = step_time(ctx, 16, 16, 0);
    // `prefix_decode`'s sessions: 224 rows in shared pages, the rest of
    // the prompt and half the answer their own.
    let long = step_time(ctx, 16, 272, 224);
    vec![
        ("quantized.step_b16_ms", short * 1e3),
        ("quantized.step_b16_ctx256_ms", long * 1e3),
        ("quantized.attn_ctx_share_b16", 1.0 - short / long),
    ]
}

/// `quantized.prefill_chunk64_ms`: one 64-row chunk into a session
/// already holding 128 rows.
pub fn prefill_chunk64(ctx: &Ctx) -> Results {
    let q = &ctx.model.quant;
    let mut arena = KvArena::for_model(q);
    let mut sessions = sessions_at(ctx.model, &mut arena, 1, 128, 0);
    let chunk = sentence(64, 11);
    let [s] = sample_medians(ctx.budget, || {
        let t0 = Instant::now();
        {
            let mut refs: Vec<&mut QuantIncrementalSession> = sessions.iter_mut().collect();
            black_box(q.prefill_sessions(&mut arena, &mut refs, &[&chunk]));
        }
        let dt = t0.elapsed().as_secs_f64();
        sessions[0].rollback_rows(&mut arena, 64);
        [dt]
    });
    vec![("quantized.prefill_chunk64_ms", s * 1e3)]
}

/// `quantized.encode_s32_ms` and `quantized.start_session_ms`: what an
/// admission adds to its step.
pub fn admission(ctx: &Ctx) -> Results {
    let q = &ctx.model.quant;
    let src = sentence(32, 13);
    let enc = time_median(ctx.budget, || {
        black_box(q.encode(&src));
    });
    let mut arena = KvArena::for_model(q);
    let start = time_median(ctx.budget, || {
        black_box(q.start_session(&mut arena, &src));
    });
    vec![
        ("quantized.encode_s32_ms", enc * 1e3),
        ("quantized.start_session_ms", start * 1e3),
    ]
}

/// `quantized.fork_session_us` and `quantized.rollback_rows_us`: what a
/// prefix hit does instead of a prefill, at a 256-row snapshot.
pub fn fork_rollback(ctx: &Ctx) -> Results {
    let q = &ctx.model.quant;
    let mut arena = KvArena::for_model(q);
    let parent = sessions_at(ctx.model, &mut arena, 1, 256, 0).remove(0);
    let [fork, roll] = sample_medians(ctx.budget, || {
        let t0 = Instant::now();
        let mut child = parent.fork(&mut arena);
        let t1 = Instant::now();
        // A diverged-tail hit rolls the fork back into a shared page.
        child.rollback_rows(&mut arena, 32);
        let t2 = Instant::now();
        child.release(&mut arena);
        [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()]
    });
    vec![
        ("quantized.fork_session_us", fork * 1e6),
        ("quantized.rollback_rows_us", roll * 1e6),
    ]
}

/// `quantized.softmax_ns_per_elem`: the hardware softmax over one
/// head's scores (16 rows x 64 columns).
pub fn softmax(ctx: &Ctx) -> Results {
    let block = &ctx.model.quant.decoder_layers()[0].self_mha;
    let mut r = rng(17);
    let d = Mat::from_fn(16, 64, |_, _| r.random_range(-40_000i32..40_000));
    let s = time_median(ctx.budget, || {
        black_box(scaled_masked_softmax(
            &d,
            block.d_scale(),
            block.d_k(),
            None,
            SoftmaxMode::Hardware,
        ));
    });
    vec![("quantized.softmax_ns_per_elem", s * 1e9 / d.len() as f64)]
}

/// `quantized.layernorm_ns_per_row`: the integer LayerNorm at 512 wide.
pub fn layernorm(ctx: &Ctx) -> Results {
    let ln = ctx.model.quant.decoder_layers()[0].ffn.layernorm();
    let mut r = rng(19);
    let g = Mat::from_fn(16, ln.dim(), |_, _| r.random_range(-20_000i32..20_000));
    let s = time_median(ctx.budget, || {
        black_box(ln.forward(&g));
    });
    vec![("quantized.layernorm_ns_per_row", s * 1e9 / g.rows() as f64)]
}

/// `fixedmath.exp_unit_ns` and `fixedmath.rsqrt_ns`: the two units the
/// softmax and LayerNorm probes are built on.
pub fn fixed_units(ctx: &Ctx) -> Results {
    let mut r = rng(23);
    let xs: Vec<i32> = (0..4096).map(|_| r.random_range(-32_768i32..0)).collect();
    let ys: Vec<i64> = (0..4096).map(|_| r.random_range(1i64..1 << 30)).collect();
    let e = time_median(ctx.budget, || {
        for &x in &xs {
            black_box(fixedmath::explog::exp_unit(black_box(x)));
        }
    });
    let q = time_median(ctx.budget, || {
        for &y in &ys {
            black_box(fixedmath::rsqrt::rsqrt_fx(black_box(y)));
        }
    });
    vec![
        ("fixedmath.exp_unit_ns", e * 1e9 / xs.len() as f64),
        ("fixedmath.rsqrt_ns", q * 1e9 / ys.len() as f64),
    ]
}

/// `tensor.head_dots_i8_ns_per_row` and `tensor.scaled_add_i8_ns_per_row`:
/// the fused decode-attention drain's two kernels, per cached row.
pub fn attention_kernels(ctx: &Ctx) -> Results {
    let cfg = model_config();
    let q = codes(1, cfg.d_model, 29);
    let cache = codes(256, cfg.d_model, 31);
    let mut scores = vec![0i32; cfg.h];
    let dots = time_median(ctx.budget, || {
        for r in 0..cache.rows() {
            tensor::simd::head_dots_i8(q.row(0), cache.row(r), cfg.d_k(), &mut scores);
            black_box(&scores);
        }
    });
    let mut acc = vec![0i32; cfg.d_model];
    let add = time_median(ctx.budget, || {
        for r in 0..cache.rows() {
            tensor::simd::scaled_add_i8(&mut acc, cache.row(r), black_box(3));
        }
        black_box(&acc);
    });
    vec![
        (
            "tensor.head_dots_i8_ns_per_row",
            dots * 1e9 / cache.rows() as f64,
        ),
        (
            "tensor.scaled_add_i8_ns_per_row",
            add * 1e9 / cache.rows() as f64,
        ),
    ]
}

/// `tensor.kv_push_row_ns`, `tensor.kv_row_read_ns`, `tensor.kv_release_us`:
/// page writes, page reads and page returns over a 256-row sequence.
pub fn kv_pages(ctx: &Ctx) -> Results {
    let cols = model_config().d_model;
    let rows = codes(256, cols, 37);
    let mut pool: KvPool<i8> = KvPool::new(KV_PAGE_ROWS, cols);
    let mut seq = KvSeq::new();
    let [push, read, release] = sample_medians(ctx.budget, || {
        let t0 = Instant::now();
        for r in 0..rows.rows() {
            pool.push_row(&mut seq, rows.row(r));
        }
        let t1 = Instant::now();
        let mut sum = 0i64;
        for r in 0..seq.rows() {
            sum += i64::from(pool.row(&seq, r)[r % cols]);
        }
        black_box(sum);
        let t2 = Instant::now();
        pool.release(&mut seq);
        let t3 = Instant::now();
        [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ]
    });
    let n = rows.rows() as f64;
    vec![
        ("tensor.kv_push_row_ns", push * 1e9 / n),
        ("tensor.kv_row_read_ns", read * 1e9 / n),
        ("tensor.kv_release_us", release * 1e6),
    ]
}

/// `tensor.kv_fork_us` and `tensor.kv_cow_copy_ns`: sharing a 256-row
/// sequence, then the first write into a page it shares.
pub fn kv_fork(ctx: &Ctx) -> Results {
    let cols = model_config().d_model;
    let rows = codes(250, cols, 41);
    let mut pool: KvPool<i8> = KvPool::new(KV_PAGE_ROWS, cols);
    let mut parent = KvSeq::new();
    for r in 0..rows.rows() {
        pool.push_row(&mut parent, rows.row(r));
    }
    let [fork, cow] = sample_medians(ctx.budget, || {
        let t0 = Instant::now();
        let mut child = pool.fork(&parent);
        let t1 = Instant::now();
        // Roll back into the last shared full page, then write: the push
        // copies that page before touching it.
        pool.truncate(&mut child, 230);
        let t2 = Instant::now();
        pool.push_row(&mut child, rows.row(0));
        let t3 = Instant::now();
        pool.release(&mut child);
        [(t1 - t0).as_secs_f64(), (t3 - t2).as_secs_f64()]
    });
    vec![
        ("tensor.kv_fork_us", fork * 1e6),
        ("tensor.kv_cow_copy_ns", cow * 1e9),
    ]
}

/// `graph.fuse_pass_us`: the rewrite pass over the cached-KV MHA graph
/// every decode step's executor runs.
pub fn fuse_pass(ctx: &Ctx) -> Results {
    let block = &ctx.model.quant.decoder_layers()[0].self_mha;
    let g = graph::mha_cached_graph(&block.graph_config());
    let s = time_median(ctx.budget, || {
        black_box(graph::fuse(&g));
    });
    vec![("graph.fuse_pass_us", s * 1e6)]
}

fn wire_submit() -> Submit {
    Submit {
        id: 1,
        tenant: 0,
        priority: 1,
        deadline_ms: 0,
        max_new: 16,
        src: sentence(32, 43).iter().map(|&t| t as u32).collect(),
        prompt: Vec::new(),
    }
}

/// `frontdoor.encode_submit_ns`, `frontdoor.decode_frame_ns`,
/// `frontdoor.admission_offer_ns`: the codec and the admission
/// controller on `wire_open`'s request shape.
pub fn wire_codec(ctx: &Ctx) -> Results {
    let submit = wire_submit();
    let frame = ClientFrame::Submit(submit.clone());
    let enc = time_median(ctx.budget, || {
        for _ in 0..64 {
            black_box(encode_client(&frame));
        }
    });
    let token = encode_server(&ServerFrame::Token { id: 1, token: 4242 });
    let mut decoder = Decoder::new();
    let dec = time_median(ctx.budget, || {
        for _ in 0..64 {
            decoder.feed(&token);
            black_box(decoder.next_server().expect("well-formed frame"));
        }
    });
    let mut admission = Admission::new(door_config().admission);
    let offer = time_median(ctx.budget, || {
        for i in 0..32 {
            let mut s = submit.clone();
            s.id = i;
            black_box(admission.offer(s, Instant::now()).is_ok());
        }
        while admission.pop().is_some() {}
    });
    vec![
        ("frontdoor.encode_submit_ns", enc * 1e9 / 64.0),
        ("frontdoor.decode_frame_ns", dec * 1e9 / 64.0),
        ("frontdoor.admission_offer_ns", offer * 1e9 / 32.0),
    ]
}

/// `frontdoor.poll_once_idle_us`: one turn of the event loop with
/// nothing to do (poll timeout 0, so the turn's own cost shows).
pub fn poll_idle(ctx: &Ctx) -> Results {
    let cfg = DoorConfig {
        idle_poll_ms: 0,
        ..door_config()
    };
    let mut door = FrontDoor::new(&ctx.model.quant, cfg).expect("bind a loopback port");
    let s = time_median(ctx.budget, || {
        for _ in 0..16 {
            door.poll_once().expect("idle turn");
        }
    });
    vec![("frontdoor.poll_once_idle_us", s * 1e6 / 16.0)]
}

/// `hwsim.*` and the analytic `accel.sa_util_*`: the Algorithm-1
/// scheduler on the paper's point.
pub fn schedule(ctx: &Ctx) -> Results {
    let cfg = accel::AccelConfig::paper_default();
    let s = time_median(ctx.budget, || {
        black_box(accel::scheduler::schedule_mha(&cfg));
    });
    let mha = accel::scheduler::schedule_mha(&cfg);
    let ffn = accel::scheduler::schedule_ffn(&cfg);
    vec![
        ("hwsim.schedule_mha_us", s * 1e6),
        ("hwsim.timeline_events", mha.timeline.events().len() as f64),
        (
            "hwsim.sim_cycles_per_host_us",
            mha.cycles.get() as f64 / (s * 1e6),
        ),
        ("accel.sa_util_mha", mha.sa_utilization),
        ("accel.sa_util_ffn", ffn.sa_utilization),
    ]
}

/// `accel.explore_default_ms`: the cross-backend design-space survey.
pub fn explore(ctx: &Ctx) -> Results {
    let s = time_median(ctx.budget, || {
        black_box(accel::explorer::explore_default());
    });
    vec![("accel.explore_default_ms", s * 1e3)]
}
