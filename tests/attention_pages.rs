//! Differential suite for attention that reads the KV pages in place.
//!
//! `quantized::cached_mha_rows` walks every K and V cache as page-resident
//! runs and scores / sums them with the all-head block kernels
//! (`tensor::simd::{attn_scores_i8, attn_pv_i8}`), in a per-thread
//! scratch. This suite holds it bit for bit against a frozen copy of the
//! paths it replaced:
//!
//! * the one-row decode drain — per cache row, `head_dots_i8` for every
//!   head's score, then `scaled_add_i8` folding the row into the head
//!   accumulators;
//! * the per-head segments — a gathered `K`/`V` head panel per head and a
//!   `matmul_i8_nt` / `matmul_i8` GEMM, for multi-row chunks and for a
//!   cohort's shared rows over its members' stacked rows.
//!
//! Covered: contexts 1..=300 across every page boundary ±1 at page
//! heights 1, 3, 16 and 64; partial tail pages; forks rolled back into a
//! shared page and re-pushed (copy-on-write); flat cross caches of 16–48
//! rows; cohorts of 2–16 members with shared rows; causal chunks of 1–64
//! rows, alone or cut across workers (a call's rows are cut into
//! per-worker tasks, mid-chunk and mid-cohort, once a cohort holds more
//! than its share); every policy of `Policy::sweep` (each INT8 tier the
//! host has, at one and two workers).

use std::ops::Range;

use quantized::softmax::{scaled_masked_softmax, scaled_prefix_softmax};
use quantized::{attention_cohorts, cached_mha_rows, CacheRef, Cohort};
use quantized::{QuantMhaResBlock, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::kvpool::{KvPool, KvSeq};
use tensor::simd::Int8Kernel;
use tensor::{gemm, Mat, Policy};
use transformer::config::ModelConfig;
use transformer::mha::MhaResBlock;

/// Runs `body` under every policy of the sweep (page heights here are
/// the tests' own), naming them on the first call.
fn each_tier(mut body: impl FnMut(&str)) {
    static NAMED: std::sync::Once = std::sync::Once::new();
    let sweep = Policy::sweep();
    NAMED.call_once(|| eprintln!("attention_pages ran on: {sweep:?}"));
    for policy in sweep {
        policy.run(|| body(&format!("{policy:?}")));
    }
}

/// A calibrated MHA ResBlock of width `d_model` with `h` heads.
fn block(d_model: usize, h: usize, mode: SoftmaxMode) -> QuantMhaResBlock {
    let cfg = ModelConfig {
        name: "pages".into(),
        d_model,
        d_ff: 2 * d_model,
        h,
        n_layers: 1,
        vocab: 32,
        max_len: 512,
    };
    let mut rng = StdRng::seed_from_u64(0xA77E);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, 8, d_model, 1.0))
        .collect();
    QuantMhaResBlock::from_f32(&mha, &calib, &calib, mode)
}

/// `rows` projected K and V code rows, as a real cache holds.
fn kv_rows(block: &QuantMhaResBlock, rng: &mut StdRng, rows: usize) -> (Mat<i8>, Mat<i8>) {
    let (_, wk, wv, _) = block.projections();
    let x = tensor::init::uniform_i8(rng, rows, wk.weight_q().rows());
    (wk.forward(&x), wv.forward(&x))
}

// ---------------------------------------------------------------------
// Frozen copy of the replaced paths (head panels gathered row by row,
// exactly the bytes `KvPool::gather_panel` copied).
// ---------------------------------------------------------------------

fn panel(cache: &CacheRef<'_>, rows: Range<usize>, c0: usize, width: usize) -> Mat<i8> {
    Mat::from_fn(rows.len(), width, |r, c| cache.row(rows.start + r)[c0 + c])
}

struct GroupAttention {
    acc: Mat<i32>,
    shared_probs: Mat<i8>,
}

#[derive(Clone, Copy)]
struct SharedScores<'a> {
    rows: usize,
    heads: &'a [Mat<i32>],
    s0: usize,
}

#[allow(clippy::too_many_arguments)]
fn private_attention(
    block: &QuantMhaResBlock,
    q: &Mat<i8>,
    r0: usize,
    rows: usize,
    keys: &CacheRef<'_>,
    vals: &CacheRef<'_>,
    causal: bool,
    shared_scores: SharedScores<'_>,
) -> GroupAttention {
    let (h, d_k) = (block.heads(), block.d_k());
    let d = h * d_k;
    let ctx = keys.rows();
    let shared = shared_scores.rows;
    if rows == 1 {
        let qrow = &q.row(r0)[..d];
        let mut scores = Mat::zeros(h, ctx);
        for i in 0..shared_scores.heads.len() {
            scores.row_mut(i)[..shared]
                .copy_from_slice(shared_scores.heads[i].row(shared_scores.s0));
        }
        let mut col = vec![0i32; h];
        for t in shared..ctx {
            tensor::simd::head_dots_i8(qrow, &keys.row(t)[..d], d_k, &mut col);
            for (i, &s) in col.iter().enumerate() {
                scores[(i, t)] = s;
            }
        }
        let probs =
            scaled_masked_softmax(&scores, block.d_scale(), d_k, None, block.softmax_mode());
        let mut acc = Mat::zeros(1, d);
        let out = acc.row_mut(0);
        for t in shared..ctx {
            let vrow = &vals.row(t)[..d];
            for i in 0..h {
                let c0 = i * d_k;
                tensor::simd::scaled_add_i8(
                    &mut out[c0..c0 + d_k],
                    &vrow[c0..c0 + d_k],
                    probs[(i, t)],
                );
            }
        }
        let mut shared_probs = Mat::zeros(h, shared);
        for i in 0..h {
            shared_probs
                .row_mut(i)
                .copy_from_slice(&probs.row(i)[..shared]);
        }
        return GroupAttention { acc, shared_probs };
    }
    let live: Vec<usize> = (0..rows)
        .map(|j| if causal { ctx - rows + j + 1 } else { ctx })
        .collect();
    let mut acc = Mat::zeros(rows, d);
    let mut shared_probs = Mat::zeros(h * rows, shared);
    for i in 0..h {
        let c0 = i * d_k;
        let qi = q.submatrix(r0, c0, rows, d_k).unwrap();
        let ki = panel(keys, shared..ctx, c0, d_k);
        let vi = panel(vals, shared..ctx, c0, d_k);
        let own = gemm::matmul_i8_nt(&qi, &ki).unwrap();
        let softmax = |scores: &Mat<i32>| {
            scaled_prefix_softmax(scores, block.d_scale(), d_k, &live, block.softmax_mode())
        };
        let own_probs = if shared == 0 {
            softmax(&own)
        } else {
            let mut scores = Mat::zeros(rows, ctx);
            for j in 0..rows {
                let row = scores.row_mut(j);
                row[..shared].copy_from_slice(shared_scores.heads[i].row(shared_scores.s0 + j));
                row[shared..].copy_from_slice(own.row(j));
            }
            let probs = softmax(&scores);
            let mut own_probs = Mat::zeros(rows, ctx - shared);
            for j in 0..rows {
                let (s, o) = probs.row(j).split_at(shared);
                shared_probs.row_mut(i * rows + j).copy_from_slice(s);
                own_probs.row_mut(j).copy_from_slice(o);
            }
            own_probs
        };
        let p_acc = gemm::matmul_i8(&own_probs, &vi).unwrap();
        for j in 0..rows {
            acc.row_mut(j)[c0..c0 + d_k].copy_from_slice(p_acc.row(j));
        }
    }
    GroupAttention { acc, shared_probs }
}

fn cohort_attention(
    block: &QuantMhaResBlock,
    q: &Mat<i8>,
    groups: &[usize],
    keys: &[CacheRef<'_>],
    vals: &[CacheRef<'_>],
    causal: bool,
    cohorts: &[Cohort],
) -> Mat<i8> {
    let (h, d_k) = (block.heads(), block.d_k());
    let offsets: Vec<usize> = groups
        .iter()
        .scan(0usize, |acc, &g| {
            let r0 = *acc;
            *acc += g;
            Some(r0)
        })
        .collect();
    let mut place = vec![(0usize, 0usize); groups.len()];
    for (c, cohort) in cohorts.iter().enumerate() {
        let mut s0 = 0;
        for &g in &cohort.members {
            place[g] = (c, s0);
            s0 += groups[g];
        }
    }
    let stack_q = |cohort: &Cohort, c0: usize| {
        let stacked: usize = cohort.members.iter().map(|&g| groups[g]).sum();
        let mut qs = Mat::zeros(stacked, d_k);
        let mut r = 0;
        for &g in &cohort.members {
            for j in 0..groups[g] {
                qs.row_mut(r)
                    .copy_from_slice(&q.row(offsets[g] + j)[c0..c0 + d_k]);
                r += 1;
            }
        }
        qs
    };
    let scores: Vec<Vec<Mat<i32>>> = cohorts
        .iter()
        .map(|cohort| {
            if cohort.shared == 0 {
                return Vec::new();
            }
            (0..h)
                .map(|i| {
                    let k = panel(&keys[cohort.members[0]], 0..cohort.shared, i * d_k, d_k);
                    gemm::matmul_i8_nt(&stack_q(cohort, i * d_k), &k).unwrap()
                })
                .collect()
        })
        .collect();
    let mut parts: Vec<GroupAttention> = (0..groups.len())
        .map(|g| {
            let (c, s0) = place[g];
            let shared = SharedScores {
                rows: cohorts[c].shared,
                heads: &scores[c],
                s0,
            };
            private_attention(
                block, q, offsets[g], groups[g], &keys[g], &vals[g], causal, shared,
            )
        })
        .collect();
    let shared_pv: Vec<Vec<Mat<i32>>> = cohorts
        .iter()
        .map(|cohort| {
            if cohort.shared == 0 {
                return Vec::new();
            }
            let stacked: usize = cohort.members.iter().map(|&g| groups[g]).sum();
            (0..h)
                .map(|i| {
                    let mut probs = Mat::zeros(stacked, cohort.shared);
                    let mut r = 0;
                    for &g in &cohort.members {
                        for j in 0..groups[g] {
                            probs
                                .row_mut(r)
                                .copy_from_slice(parts[g].shared_probs.row(i * groups[g] + j));
                            r += 1;
                        }
                    }
                    let v = panel(&vals[cohort.members[0]], 0..cohort.shared, i * d_k, d_k);
                    gemm::matmul_i8(&probs, &v).unwrap()
                })
                .collect()
        })
        .collect();
    let mut p = Mat::zeros(q.rows(), q.cols());
    for (g, part) in parts.iter_mut().enumerate() {
        let (c, s0) = place[g];
        for (i, pv) in shared_pv[c].iter().enumerate() {
            let c0 = i * d_k;
            for j in 0..groups[g] {
                let acc = &mut part.acc.row_mut(j)[c0..c0 + d_k];
                for (a, &s) in acc.iter_mut().zip(pv.row(s0 + j)) {
                    *a += s;
                }
            }
        }
        for j in 0..groups[g] {
            block.requantize_p_into(part.acc.row(j), p.row_mut(offsets[g] + j));
        }
    }
    p
}

/// The frozen `cached_mha_rows`: same projections and drain around the
/// replaced attention.
fn frozen_mha_rows(
    block: &QuantMhaResBlock,
    x: &Mat<i8>,
    groups: &[usize],
    keys: &[CacheRef<'_>],
    vals: &[CacheRef<'_>],
    causal: bool,
) -> Mat<i8> {
    let (wq, _, _, wo) = block.projections();
    let q = wq.forward(x);
    let cohorts = attention_cohorts(groups, keys, vals, causal);
    let p = cohort_attention(block, &q, groups, keys, vals, causal, &cohorts);
    block.layernorm().forward(&wo.forward_add(&p, x))
}

/// `cached_mha_rows` against the frozen paths, every tier.
fn check(
    block: &QuantMhaResBlock,
    x: &Mat<i8>,
    groups: &[usize],
    keys: &[CacheRef<'_>],
    vals: &[CacheRef<'_>],
    causal: bool,
    what: &str,
) {
    let scalar = Policy {
        int8_cap: Int8Kernel::Scalar,
        ..Policy::current()
    };
    let want = scalar.run(|| frozen_mha_rows(block, x, groups, keys, vals, causal));
    each_tier(|tier| {
        let got = cached_mha_rows(block, x, groups, keys, vals, causal);
        let mut r0 = 0;
        for (g, &rows) in groups.iter().enumerate() {
            for j in 0..rows {
                assert_eq!(
                    got.row(r0 + j),
                    want.row(r0 + j),
                    "{what}, {tier}: group {g} (ctx {}) row {j}",
                    keys[g].rows()
                );
            }
            r0 += rows;
        }
    });
}

/// Pushes `rows` into fresh sequences of the K and V pools.
fn paged(kp: &mut KvPool<i8>, vp: &mut KvPool<i8>, kv: &(Mat<i8>, Mat<i8>)) -> (KvSeq, KvSeq) {
    let (mut ks, mut vs) = (KvSeq::new(), KvSeq::new());
    for r in 0..kv.0.rows() {
        kp.push_row(&mut ks, kv.0.row(r));
        vp.push_row(&mut vs, kv.1.row(r));
    }
    (ks, vs)
}

#[test]
fn decode_rows_match_the_frozen_drain_at_every_page_boundary() {
    // d_k = 64, the SIMD kernels' width, at two heads to keep the
    // frozen GEMMs cheap.
    let block = block(128, 2, SoftmaxMode::Hardware);
    let mut rng = StdRng::seed_from_u64(1);
    for page in [1usize, 3, 16, 64] {
        let mut ctxs: Vec<usize> = (1..=8).collect();
        for k in 1..=300 / page + 1 {
            ctxs.extend([k * page - 1, k * page, k * page + 1]);
        }
        ctxs.push(300);
        ctxs.retain(|&c| (1..=300).contains(&c));
        ctxs.sort_unstable();
        ctxs.dedup();
        let mut kp = KvPool::new(page, 128);
        let mut vp = KvPool::new(page, 128);
        let seqs: Vec<(KvSeq, KvSeq)> = ctxs
            .iter()
            .map(|&ctx| paged(&mut kp, &mut vp, &kv_rows(&block, &mut rng, ctx)))
            .collect();
        let keys: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&kp, &s.0)).collect();
        let vals: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&vp, &s.1)).collect();
        let x = tensor::init::uniform_i8(&mut rng, ctxs.len(), 128);
        let groups = vec![1; ctxs.len()];
        check(
            &block,
            &x,
            &groups,
            &keys,
            &vals,
            true,
            &format!("{page}-row pages"),
        );
    }
}

#[test]
fn forked_cohorts_match_the_frozen_segments() {
    let block = block(128, 2, SoftmaxMode::Hardware);
    let mut rng = StdRng::seed_from_u64(2);
    for (page, base_rows, members) in [
        (16usize, 230usize, 16usize),
        (3, 40, 2),
        (64, 200, 5),
        (1, 33, 3),
    ] {
        let mut kp = KvPool::new(page, 128);
        let mut vp = KvPool::new(page, 128);
        let base = paged(&mut kp, &mut vp, &kv_rows(&block, &mut rng, base_rows));
        let mut seqs: Vec<(KvSeq, KvSeq)> = Vec::new();
        let mut groups = Vec::new();
        for m in 0..members {
            let (mut ks, mut vs) = (kp.fork(&base.0), vp.fork(&base.1));
            if m % 3 == 2 {
                // Roll back into the last shared page, then re-push: the
                // write copies that page, so this member shares less.
                let full = base_rows / page * page;
                let keep = full.saturating_sub(page / 2 + 1).max(1);
                kp.truncate(&mut ks, keep);
                vp.truncate(&mut vs, keep);
            }
            // Private rows, then a chunk of 1..=64 of them as the group.
            let own = kv_rows(&block, &mut rng, 1 + (m * 7) % 64);
            for r in 0..own.0.rows() {
                kp.push_row(&mut ks, own.0.row(r));
                vp.push_row(&mut vs, own.1.row(r));
            }
            groups.push(if m % 2 == 0 { 1 } else { own.0.rows() });
            seqs.push((ks, vs));
        }
        let keys: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&kp, &s.0)).collect();
        let vals: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&vp, &s.1)).collect();
        let cohorts = attention_cohorts(&groups, &keys, &vals, true);
        if base_rows >= 2 * page {
            assert!(
                cohorts.iter().any(|c| c.members.len() >= 2 && c.shared > 0),
                "{page}-row pages: the forks form a cohort: {cohorts:?}"
            );
        }
        let x = tensor::init::uniform_i8(&mut rng, groups.iter().sum(), 128);
        let what = format!("{page}-row pages, {members} forks");
        check(&block, &x, &groups, &keys, &vals, true, &what);
    }
}

#[test]
fn flat_cross_caches_match_the_frozen_segments() {
    let block = block(128, 2, SoftmaxMode::Hardware);
    let mut rng = StdRng::seed_from_u64(3);
    let caches: Vec<(Mat<i8>, Mat<i8>)> = [16usize, 31, 48]
        .iter()
        .map(|&rows| kv_rows(&block, &mut rng, rows))
        .collect();
    // Groups 0, 2, 3 and 5 share cache 0 (a cohort over all 16 rows),
    // 1 and 4 share cache 2; group 6 attends cache 1 alone.
    let pick = [0usize, 2, 0, 0, 2, 0, 1];
    let groups = [1usize, 5, 64, 1, 1, 17, 3];
    let keys: Vec<CacheRef<'_>> = pick.iter().map(|&c| CacheRef::flat(&caches[c].0)).collect();
    let vals: Vec<CacheRef<'_>> = pick.iter().map(|&c| CacheRef::flat(&caches[c].1)).collect();
    let cohorts = attention_cohorts(&groups, &keys, &vals, false);
    assert_eq!(
        cohorts.iter().filter(|c| c.members.len() > 1).count(),
        2,
        "{cohorts:?}"
    );
    let x = tensor::init::uniform_i8(&mut rng, groups.iter().sum(), 128);
    check(
        &block,
        &x,
        &groups,
        &keys,
        &vals,
        false,
        "flat cross caches",
    );
}

#[test]
fn scalar_widths_and_fp32_softmax_match_too() {
    // d_k = 16 never takes a SIMD kernel; FP32 softmax mode changes the
    // probabilities the block kernels sum.
    for (d_model, h, mode) in [
        (64usize, 4usize, SoftmaxMode::Hardware),
        (128, 2, SoftmaxMode::Fp32),
    ] {
        let block = block(d_model, h, mode);
        let mut rng = StdRng::seed_from_u64(4);
        let mut kp = KvPool::new(4, d_model);
        let mut vp = KvPool::new(4, d_model);
        let base = paged(&mut kp, &mut vp, &kv_rows(&block, &mut rng, 21));
        let mut seqs = Vec::new();
        for extra in [0usize, 3, 9] {
            let (mut ks, mut vs) = (kp.fork(&base.0), vp.fork(&base.1));
            let own = kv_rows(&block, &mut rng, extra + 1);
            for r in 0..own.0.rows() {
                kp.push_row(&mut ks, own.0.row(r));
                vp.push_row(&mut vs, own.1.row(r));
            }
            seqs.push((ks, vs));
        }
        let keys: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&kp, &s.0)).collect();
        let vals: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&vp, &s.1)).collect();
        let groups = [1usize, 4, 2];
        let x = tensor::init::uniform_i8(&mut rng, 7, d_model);
        let what = format!("d_model {d_model}, {h} heads, {mode:?}");
        check(&block, &x, &groups, &keys, &vals, true, &what);
    }
}

#[test]
fn lone_chunks_cut_across_workers_match_the_frozen_segments() {
    // One group alone in the call: at more than one worker its rows are
    // cut into tasks, and with `causal` each earlier cut attends a
    // shorter prefix.
    let block = block(128, 2, SoftmaxMode::Hardware);
    let mut rng = StdRng::seed_from_u64(5);
    let mut kp = KvPool::new(16, 128);
    let mut vp = KvPool::new(16, 128);
    for (ctx, rows) in [(100usize, 64usize), (64, 64), (37, 5), (2, 2)] {
        let seq = paged(&mut kp, &mut vp, &kv_rows(&block, &mut rng, ctx));
        let keys = [CacheRef::paged(&kp, &seq.0)];
        let vals = [CacheRef::paged(&vp, &seq.1)];
        let x = tensor::init::uniform_i8(&mut rng, rows, 128);
        let what = format!("causal chunk of {rows} over {ctx} rows");
        check(&block, &x, &[rows], &keys, &vals, true, &what);
    }
    let cross = kv_rows(&block, &mut rng, 48);
    let x = tensor::init::uniform_i8(&mut rng, 33, 128);
    let keys = [CacheRef::flat(&cross.0)];
    let vals = [CacheRef::flat(&cross.1)];
    check(
        &block,
        &x,
        &[33],
        &keys,
        &vals,
        false,
        "33 rows over a flat cache",
    );
}

#[test]
fn checker_on_blocks_match_the_frozen_segments_too() {
    // Under a serving engine's ABFT checker the block's `W_Q` and `W_O`
    // passes take the unfused drains; attention has no fault seam and
    // reads its pages as it does with the checker off.
    let block = block(128, 2, SoftmaxMode::Hardware);
    let mut rng = StdRng::seed_from_u64(6);
    let mut kp = KvPool::new(16, 128);
    let mut vp = KvPool::new(16, 128);
    let seqs: Vec<(KvSeq, KvSeq)> = [17usize, 40]
        .iter()
        .map(|&ctx| paged(&mut kp, &mut vp, &kv_rows(&block, &mut rng, ctx)))
        .collect();
    let keys: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&kp, &s.0)).collect();
    let vals: Vec<CacheRef<'_>> = seqs.iter().map(|s| CacheRef::paged(&vp, &s.1)).collect();
    let x = tensor::init::uniform_i8(&mut rng, 4, 128);
    let mut state = faults::FaultState::new(None, true);
    state.run(|| check(&block, &x, &[1, 3], &keys, &vals, true, "checker on"));
    assert!(state.counters.checked > 0, "the checker must have run");
    assert_eq!(state.counters.detected, 0, "nothing was injected");
}
