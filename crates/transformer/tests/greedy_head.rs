//! The certified greedy head (`transformer::greedy`) against the thing
//! it replaces: `Linear::argmax_rows(x)` must equal
//! `ops::argmax(forward_inference(x).row(r))` for every row — always,
//! not usually — and the certificate it rests on (every reference logit
//! inside its screened interval) must hold column by column.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::{init, ops, Mat};
use transformer::greedy::GreedyStats;
use transformer::linear::Linear;
use transformer::opt::HasParams;

/// `transformer::greedy`'s cap on the tiles one row verifies.
const MAX_VERIFY_TILES: usize = 128;

/// What the head must return: the full projection, then `ops::argmax`.
fn reference(lin: &Linear, x: &Mat<f32>) -> Vec<usize> {
    let logits = lin.forward_inference(x);
    (0..x.rows()).map(|r| ops::argmax(logits.row(r))).collect()
}

/// `2^e` as an `f32`.
fn pow2(e: i32) -> f32 {
    2f32.powi(e)
}

/// A layer and a batch with the awkward cases mixed in: rows scaled by
/// `2^-60..2^60`, all-zero rows, all-zero columns, columns of very
/// different magnitude, and (for `bias_scale > 0`) a bias that dwarfs
/// `x W` on the small rows.
fn case(m: usize, k: usize, n: usize, bias_scale: f32, seed: u64) -> (Linear, Mat<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = init::uniform(&mut rng, k, n, -1.0, 1.0);
    for j in 0..n {
        let col_scale = match rng.random_range(0..6) {
            0 => 0.0,
            1 => pow2(rng.random_range(-12..=4)),
            _ => 1.0,
        };
        for p in 0..k {
            w[(p, j)] *= col_scale;
        }
    }
    let b: Vec<f32> = (0..n)
        .map(|_| rng.random_range(-1.0f32..1.0) * bias_scale)
        .collect();
    let mut x = init::normal(&mut rng, m, k, 1.0);
    for r in 0..m {
        let row_scale = match rng.random_range(0..8) {
            0 => 0.0,
            1 | 2 => pow2(rng.random_range(-60..=60)),
            _ => 1.0,
        };
        for v in x.row_mut(r) {
            *v *= row_scale;
        }
    }
    (Linear::from_parts("head", w, b), x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (b) The head equals the reference on every row, across shapes on
    /// and off every block size: `k` off the quad (4) and tile-step (64)
    /// grids, `n` below one tile and off the tile grid, `m` up to 33.
    #[test]
    fn head_equals_full_projection_argmax(
        m in 1usize..=33,
        k_pick in 0usize..8,
        n_pick in 0usize..8,
        bias_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 7, 64, 65, 100, 128, 130][k_pick];
        let n = [1usize, 5, 15, 16, 17, 40, 64, 150][n_pick];
        let bias_scale = [0.0f32, 0.1, 1.0e6][bias_pick];
        let (lin, x) = case(m, k, n, bias_scale, seed);
        let (got, stats) = lin.argmax_rows(&x);
        prop_assert_eq!(&got, &reference(&lin, &x), "m={} k={} n={}", m, k, n);
        // Every row is accounted for exactly once.
        let zero_rows = (0..m).filter(|&r| x.row(r).iter().all(|&v| v == 0.0)).count();
        prop_assert!(stats.fallback_rows >= zero_rows);
        prop_assert!(stats.candidate_tiles >= m - stats.fallback_rows);
    }

    /// (a) Certificate soundness: every column's reference logit lies in
    /// the interval the screen computes for it.
    #[test]
    fn every_logit_lies_in_its_interval(
        m in 1usize..=9,
        k_pick in 0usize..5,
        n_pick in 0usize..4,
        bias_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let k = [3usize, 64, 100, 128, 512][k_pick];
        let n = [7usize, 16, 50, 200][n_pick];
        let bias_scale = [0.0f32, 0.1, 1.0e6][bias_pick];
        let (lin, x) = case(m, k, n, bias_scale, seed);
        let logits = lin.forward_inference(&x);
        for (r, row) in lin.greedy_intervals(&x).iter().enumerate() {
            let zero = x.row(r).iter().all(|&v| v == 0.0);
            prop_assert_eq!(row.is_none(), zero, "only all-zero rows are excluded here");
            let Some(row) = row else { continue };
            prop_assert_eq!(row.len(), n);
            for (j, &(lo, hi)) in row.iter().enumerate() {
                let l = f64::from(logits[(r, j)]);
                prop_assert!(
                    lo <= l && l <= hi,
                    "row {} col {}: logit {:e} outside [{:e}, {:e}] (k={} n={})",
                    r, j, l, lo, hi, k, n
                );
            }
        }
    }
}

/// (c) Exact ties: duplicated columns have bit-equal logits, and the
/// last one wins — also across tiles, and when the tie is with `-0.0`.
#[test]
fn exact_ties_go_to_the_last_index() {
    let mut rng = StdRng::seed_from_u64(0x71E);
    let (k, n) = (96, 70);
    let mut w = init::uniform(&mut rng, k, n, -0.2, 0.2);
    let x = init::normal(&mut rng, 5, k, 1.0);
    // One dominant column, copied into three other places.
    for p in 0..k {
        let v = 3.0 * x[(0, p)].signum() * w[(p, 9)].abs();
        for j in [9, 10, 37, 66] {
            w[(p, j)] = v;
        }
    }
    let lin = Linear::from_parts("ties", w, vec![0.25; n]);
    let one = x.submatrix(0, 0, 1, k).unwrap();
    let (got, stats) = lin.argmax_rows(&one);
    assert_eq!(got, vec![66], "last of the tied maximisers");
    assert_eq!(got, reference(&lin, &one));
    assert_eq!(stats.fallback_rows, 0);
    assert!(stats.candidate_tiles >= 3, "the copies span three tiles");
    assert_eq!(lin.argmax_rows(&x).0, reference(&lin, &x));

    // All logits zero but for sign: columns of +w and -w against a row
    // that cancels exactly, so the row holds +0.0 and -0.0 only.
    let w = Mat::from_fn(2, 40, |p, j| if (p + j) % 2 == 0 { 1.0f32 } else { -1.0 });
    let lin = Linear::from_parts("zeros", w, vec![0.0; 40]);
    let x = Mat::from_vec(1, 2, vec![0.5f32, 0.5]).unwrap();
    assert_eq!(lin.argmax_rows(&x).0, vec![39]);
    assert_eq!(lin.argmax_rows(&x).0, reference(&lin, &x));
}

/// (c) Near ties: the runner-up differs from the maximiser by one ulp in
/// one weight, either way. The screen cannot separate them; the exact
/// recomputation must.
#[test]
fn one_ulp_near_ties_follow_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x0017);
    let (k, n) = (128, 48);
    let mut decided = std::collections::BTreeSet::new();
    for trial in 0..64 {
        let mut w = init::uniform(&mut rng, k, n, -0.2, 0.2);
        let x = init::normal(&mut rng, 1, k, 1.0);
        for p in 0..k {
            w[(p, 5)] = 3.0 * x[(0, p)].signum() * w[(p, 5)].abs();
            w[(p, 30)] = w[(p, 5)];
        }
        let p = trial % k;
        let bits = w[(p, 30)].to_bits();
        w[(p, 30)] = f32::from_bits(if trial % 2 == 0 { bits + 1 } else { bits - 1 });
        let lin = Linear::from_parts("near", w, vec![0.0; n]);
        let got = lin.argmax_rows(&x).0;
        assert_eq!(got, reference(&lin, &x), "trial {trial}");
        decided.insert(got[0]);
    }
    assert_eq!(
        decided.into_iter().collect::<Vec<_>>(),
        vec![5, 30],
        "both outcomes occur, so the nudge is what decides"
    );
}

/// (d) Rows the screen does not take run the full projection — and are
/// counted.
#[test]
fn guarded_rows_fall_back_and_are_counted() {
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let (k, n) = (64, 40);
    let lin = Linear::new("guards", k, n, &mut rng);
    let mut x = init::normal(&mut rng, 6, k, 1.0);
    x.row_mut(1).fill(0.0);
    x[(2, 7)] = f32::INFINITY;
    x[(3, 9)] = f32::NEG_INFINITY;
    x[(4, 11)] = pow2(100);
    // Rows 2 and 3 have +-inf logits in every column the weight's sign
    // allows; the reference still has a well-defined arg-max.
    let (got, stats) = lin.argmax_rows(&x);
    assert_eq!(got, reference(&lin, &x));
    assert_eq!(stats.fallback_rows, 4, "zero, +inf, -inf and 2^100 rows");
    assert!(stats.candidate_tiles >= 2, "rows 0 and 5 are screened");
    // Just under the limit is screened.
    x[(4, 11)] = pow2(99);
    assert_eq!(lin.argmax_rows(&x).1.fallback_rows, 3);
    // A non-finite weight or bias switches the screen off for every row.
    let mut w = lin.weight().clone();
    w[(3, 3)] = f32::INFINITY;
    let off = Linear::from_parts("off", w, lin.bias().to_vec());
    let x = init::normal(&mut rng, 3, k, 1.0).map(|v| v.abs());
    let (got, stats) = off.argmax_rows(&x);
    assert_eq!(got, vec![3; 3]);
    assert_eq!(
        stats,
        GreedyStats {
            candidate_tiles: 0,
            fallback_rows: 3
        }
    );
}

/// (d) More candidate tiles than the cap: the row takes the full
/// projection instead of verifying most of the vocabulary tile by tile.
#[test]
fn too_many_candidates_fall_back() {
    let n = (MAX_VERIFY_TILES + 1) * 16;
    // Every column identical: all `n` logits tie, so every tile is a
    // candidate.
    let w = Mat::from_fn(8, n, |p, _| 0.1 * (p as f32 + 1.0));
    let lin = Linear::from_parts("flat", w, vec![0.0; n]);
    let x = Mat::from_fn(2, 8, |r, p| 1.0 + (r + p) as f32);
    let (got, stats) = lin.argmax_rows(&x);
    assert_eq!(got, vec![n - 1; 2]);
    assert_eq!(stats.fallback_rows, 2);
    // One tile fewer fits under the cap and gives the same answer.
    let n = MAX_VERIFY_TILES * 16;
    let w = Mat::from_fn(8, n, |p, _| 0.1 * (p as f32 + 1.0));
    let lin = Linear::from_parts("flat", w, vec![0.0; n]);
    let (got, stats) = lin.argmax_rows(&x);
    assert_eq!(got, vec![n - 1; 2]);
    assert_eq!(
        stats,
        GreedyStats {
            candidate_tiles: 2 * MAX_VERIFY_TILES,
            fallback_rows: 0
        }
    );
}

/// (d) A NaN activation still panics with `ops::argmax`'s message.
#[test]
#[should_panic(expected = "argmax over NaN")]
fn nan_activation_panics_as_argmax_does() {
    let mut rng = StdRng::seed_from_u64(0x0A0);
    let lin = Linear::new("nan", 32, 20, &mut rng);
    let mut x = init::normal(&mut rng, 3, 32, 1.0);
    x[(1, 4)] = f32::NAN;
    let _ = lin.argmax_rows(&x);
}

/// (e) The screen is derived state: `visit_params` drops it, a clone
/// starts without one, and both rebuild from the weights they hold.
#[test]
fn screen_follows_the_weights() {
    let mut rng = StdRng::seed_from_u64(0x5C2);
    let (k, n) = (64, 33);
    let mut lin = Linear::new("live", k, n, &mut rng);
    let x = init::normal(&mut rng, 4, k, 1.0);
    let before = lin.argmax_rows(&x).0; // builds the screen
    assert_eq!(before, reference(&lin, &x));
    let clone = lin.clone();
    // Turn the weights upside down: every arg-max becomes an arg-min.
    lin.visit_params(&mut |name, w, _| {
        if name.ends_with(".w") {
            for v in w {
                *v = -*v;
            }
        }
    });
    let after = lin.argmax_rows(&x).0;
    assert_eq!(
        after,
        reference(&lin, &x),
        "stale screen after visit_params"
    );
    assert_ne!(after, before);
    // The clone kept the old weights and answers for them.
    assert_eq!(clone.argmax_rows(&x).0, before);
    let intervals = clone.greedy_intervals(&x);
    let logits = clone.forward_inference(&x);
    for (r, row) in intervals.iter().enumerate() {
        for (j, &(lo, hi)) in row.as_ref().expect("screened").iter().enumerate() {
            let l = f64::from(logits[(r, j)]);
            assert!(lo <= l && l <= hi, "row {r} col {j}");
        }
    }
}

/// The head gives the same tokens and the same counts whichever INT8
/// tier and however many workers run it.
#[test]
fn result_is_independent_of_kernel_tier_and_threads() {
    let (lin, x) = case(19, 128, 150, 0.1, 77);
    let want = reference(&lin, &x);
    let base = lin.argmax_rows(&x);
    assert_eq!(base.0, want);
    for threads in [1usize, 2, 5] {
        for simd in [None, Some(false)] {
            tensor::par::set_thread_override(Some(threads));
            tensor::simd::set_simd_override(simd);
            let got = lin.argmax_rows(&x);
            tensor::simd::set_simd_override(None);
            tensor::par::set_thread_override(None);
            assert_eq!(got, base, "threads {threads} simd {simd:?}");
        }
    }
}
