//! Fault-injection campaign smoke test for the block-circulant path.
//!
//! The serving campaign's ABFT checksums guard the GEMM backends; the
//! circulant backend's frequency-domain datapath carries its *own*
//! checker (accumulation checksum + IFFT DC identity — see
//! `accel::circulant` module docs). This suite is the campaign-side
//! contract: a seeded sweep of single-bit spectral flips must all be
//! flagged, a clean run must stay silent, and the advertised
//! compression ratio must match what the backend actually stores.
//!
//! Like the serving fault matrix, the sweep picks its seed up from
//! `ACCEL_FAULT_SEED` (via [`tensor::envcfg::fault_seed`]) so CI can rerun it at
//! several seeds without a recompile.

use accel::circulant::{
    circulantize_ffn, dc_check_tolerance, CircFault, CirculantBackend, CirculantConfig,
};
use accel::config::AccelConfig;
use accel::Backend;
use graph::ffn_graph;
use quantized::QuantFfnResBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Mat;
use transformer::config::ModelConfig;
use transformer::ffn::FfnResBlock;

const BLOCK: usize = 8;

fn backend() -> CirculantBackend {
    let mut base = AccelConfig::paper_default();
    base.model = ModelConfig::tiny_for_tests();
    base.s = 8;
    CirculantBackend::new(CirculantConfig {
        base,
        block: BLOCK,
        lanes: 4,
    })
}

fn fixture(seed: u64) -> (QuantFfnResBlock, Mat<i8>) {
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = FfnResBlock::new(&cfg, &mut rng);
    circulantize_ffn(&mut block, BLOCK);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
        .collect();
    let q = QuantFfnResBlock::from_f32(&block, &calib);
    let xq = q.quantize_input(&calib[0]);
    (q, xq)
}

#[test]
fn seeded_flip_campaign_is_fully_detected() {
    let be = backend();
    let (q, xq) = fixture(0x5EED);
    let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
    let mut rng = StdRng::seed_from_u64(tensor::envcfg::fault_seed().unwrap_or(0xCAFA_0117));
    let d_model = 32usize;
    let d_ff = 64usize;
    for trial in 0..32 {
        let layer = rng.random_range(1u8..=2);
        let out_blocks = if layer == 1 { d_ff } else { d_model } / BLOCK;
        // Bits 14..30: above the checksum tolerance, so every flip is
        // inside the checker's guaranteed-detection band.
        let fault = CircFault {
            layer,
            row: rng.random_range(0..8),
            out_block: rng.random_range(0..out_blocks),
            bin: rng.random_range(0..BLOCK),
            bit: rng.random_range(14u32..30),
        };
        let (_, report) = be.run_ffn_checked(&prog, &q, &xq, Some(fault));
        assert!(
            report.violations >= 1,
            "trial {trial}: undetected flip {fault:?}"
        );
    }
}

#[test]
fn clean_campaign_run_raises_no_alarms() {
    let be = backend();
    let (q, xq) = fixture(0x5EED);
    let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
    let (_, report) = be.run_ffn_checked(&prog, &q, &xq, None);
    assert_eq!(report.violations, 0, "false positives break the campaign");
    assert!(report.blocks_checked > 0);
    // The detection band really is above the rounding tolerance.
    assert!(1i64 << 14 > dc_check_tolerance(BLOCK) * BLOCK as i64);
}

#[test]
fn advertised_compression_matches_stored_words() {
    let be = backend();
    let caps = be.caps();
    assert_eq!(caps.weight_compression, BLOCK as f64);
    let dense_words = 2 * 32 * 64;
    assert_eq!(
        be.stored_weight_words() * BLOCK,
        dense_words,
        "stored kernel words must be exactly 1/b of the dense count"
    );
}
