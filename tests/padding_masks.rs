//! Padding-mask behaviour end to end: variable-length sequences padded
//! to the array's row count must produce the same results for the valid
//! positions as running the unpadded sequence — in FP32, in the INT8
//! datapath, and through the paper's accelerator backend.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{ops, Mat};
use transformer_accel::accel::{AccelConfig, Backend, PaperBackend};
use transformer_accel::graph::mha_graph;
use transformer_accel::quantized::{QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::mha::MhaResBlock;

fn setup() -> (MhaResBlock, QuantMhaResBlock, Mat<f32>) {
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0x9AD);
    let block = MhaResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..4)
        .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
        .collect();
    let qblock = QuantMhaResBlock::from_f32(&block, &calib, &calib, SoftmaxMode::Hardware);
    (block, qblock, calib[0].clone())
}

/// Builds the `[padded_len, padded_len]` key-padding mask for a sequence
/// whose first `valid` positions are real.
fn key_padding_mask(padded_len: usize, valid: usize) -> Mat<bool> {
    let flags: Vec<bool> = (0..padded_len).map(|i| i < valid).collect();
    ops::padding_mask(padded_len, &flags)
}

#[test]
fn fp32_padded_rows_match_unpadded() {
    let (mut block, _, x) = setup();
    let valid = 5;
    let x_short = x.submatrix(0, 0, valid, x.cols()).unwrap();
    let want = block.forward(&x_short, &x_short, &x_short, None);

    // zero-pad to 8 rows; mask out the padding keys
    let x_padded = x_short.padded(8, x.cols());
    let mask = key_padding_mask(8, valid);
    let got = block.forward(&x_padded, &x_padded, &x_padded, Some(&mask));
    for r in 0..valid {
        for c in 0..x.cols() {
            assert!(
                (got[(r, c)] - want[(r, c)]).abs() < 1e-4,
                "fp32 mismatch at ({r},{c})"
            );
        }
    }
}

#[test]
fn quantized_padded_rows_match_unpadded() {
    let (_, qblock, x) = setup();
    let valid = 5;
    let x_short = x.submatrix(0, 0, valid, x.cols()).unwrap();
    let xq_short = qblock.quantize_input_q(&x_short);
    let (want, _) = qblock.forward(&xq_short, &xq_short, None);

    let x_padded = x_short.padded(8, x.cols());
    let xq_padded = qblock.quantize_input_q(&x_padded);
    let mask = key_padding_mask(8, valid);
    let (got, _) = qblock.forward(&xq_padded, &xq_padded, Some(&mask));
    // the INT8 datapath is bit-exact per row: valid rows must be
    // identical codes
    for r in 0..valid {
        assert_eq!(got.row(r), want.row(r), "quantized row {r} differs");
    }
}

#[test]
fn accelerator_honours_padding_masks() {
    let (_, qblock, x) = setup();
    let accel = PaperBackend::new(AccelConfig {
        model: ModelConfig::tiny_for_tests(),
        s: 8,
        ..AccelConfig::paper_default()
    });
    let prog = accel.lower_mha(&mha_graph(&qblock.graph_config()), 8);

    let valid = 6;
    let x_short = x.submatrix(0, 0, valid, x.cols()).unwrap();
    let x_padded = x_short.padded(8, x.cols());
    let xq = qblock.quantize_input_q(&x_padded);
    let mask = key_padding_mask(8, valid);
    let out = accel.run_mha(&prog, &qblock, &xq, &xq, Some(&mask));

    let xq_short = qblock.quantize_input_q(&x_short);
    let (want, _) = qblock.forward(&xq_short, &xq_short, None);
    for r in 0..valid {
        assert_eq!(out.row(r), want.row(r), "accelerator row {r} differs");
    }
    // padded run is scheduled at the full 8 rows
    assert!(accel.cycles(&prog, 8) > 0);
}
