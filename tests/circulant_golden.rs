//! Golden digests of the block-circulant FFN run.
//!
//! `accel::circulant`'s own tests compare the backend with a frozen copy
//! of its first datapath, but they run only under `-p accel`. This suite
//! puts the circulant path in tier-1: FNV-1a digests of
//! `(output codes, CircCheckReport)` from `run_ffn_checked` for a clean
//! run and a fixed list of faulted runs, on the tiny shape and at the
//! paper's 512/2048 `s = 64` point. The digests were generated at the
//! last commit whose spectral MAC ran all `b` bins and whose drain ran
//! one scalar IFFT per output block; the half-spectrum MAC and the
//! planar batched transforms must reproduce every one of them.

use transformer_accel::accel::circulant::{
    circulantize_ffn, CircCheckReport, CircFault, CirculantBackend, CirculantConfig,
};
use transformer_accel::accel::{AccelConfig, Backend};
use transformer_accel::graph::ffn_graph;
use transformer_accel::quantized::QuantFfnResBlock;
use transformer_accel::tensor::{self, Mat};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;

use rand::rngs::StdRng;
use rand::SeedableRng;

const BLOCK: usize = 8;

/// The runs each point is digested over: clean, a flip in every bin of
/// both layers (row 2, output block 1, bit 17), and a flip aimed at an
/// output block neither layer of either shape has, which must never
/// fire.
fn faults() -> Vec<Option<CircFault>> {
    let hit = |layer, bin| CircFault {
        layer,
        row: 2,
        out_block: 1,
        bin,
        bit: 17,
    };
    let mut faults = vec![None];
    for layer in [1u8, 2] {
        faults.extend((0..BLOCK).map(|bin| Some(hit(layer, bin))));
    }
    faults.push(Some(CircFault {
        out_block: 2048 / BLOCK,
        ..hit(2, 3)
    }));
    faults
}

/// FNV-1a over the output codes, then the report's two counters.
fn digest(y: &Mat<i8>, report: CircCheckReport) -> u64 {
    let counters = [report.blocks_checked, report.violations];
    let bytes = y
        .as_slice()
        .iter()
        .map(|&c| c as u8)
        .chain(counters.iter().flat_map(|c| c.to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of every run in [`faults`] against a circulantized FFN block
/// and an `s`-row input drawn from `seed`.
fn digests(be: &CirculantBackend, seed: u64) -> Vec<u64> {
    let cfg = &be.config().base;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = FfnResBlock::new(&cfg.model, &mut rng);
    circulantize_ffn(&mut block, BLOCK);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, cfg.s, cfg.model.d_model, 1.0))
        .collect();
    let q = QuantFfnResBlock::from_f32(&block, &calib);
    let xq = q.quantize_input(&calib[0]);
    let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
    faults()
        .into_iter()
        .map(|fault| {
            let (y, report) = be.run_ffn_checked(&prog, &q, &xq, fault);
            digest(&y, report)
        })
        .collect()
}

fn assert_golden(got: &[u64], want: &[u64]) {
    let listing: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, want, "computed digests:\n{}", listing.join(",\n"));
}

#[rustfmt::skip]
const TINY_GOLDEN: [u64; 18] = [
    0xc3921ffa28c143b0, // clean
    0x4b00c09ce53e615c, 0xc7ef58b8c75c7c4c, 0x5e661b68ef6a56d6, 0xfec4d1f555a48638,
    0x44dd05d81b8350ef, 0xfec4d1f555a48638, 0x5e661b68ef6a56d6, 0xc7ef58b8c75c7c4c, // layer 1, bins 0..8
    0xe78ed0c8513ea50c, 0xf4c5f5faede1ebd6, 0xeeb8548269cce73a, 0xeaeb407b39d76800,
    0x5f78102263594b75, 0xeaeb407b39d76800, 0xeeb8548269cce73a, 0xf4c5f5faede1ebd6, // layer 2, bins 0..8
    0xc3921ffa28c143b0, // never fires: equals the clean run
];

#[rustfmt::skip]
const PAPER_GOLDEN: [u64; 18] = [
    0x315ec9ce7c437dde, // clean
    0x0b89b84246ad7c9e, 0xeaec81b232d55e0f, 0x59e4bedab36d4574, 0x1a86043dd48e43cd,
    0x9223d135766e30de, 0x1a86043dd48e43cd, 0x59e4bedab36d4574, 0xeaec81b232d55e0f, // layer 1, bins 0..8
    0x70060b72975fd62b, 0x2f59a11157e45639, 0xeda0fb929b0d5047, 0x5b18d7f0007785d3,
    0x067cebf763308690, 0x5b18d7f0007785d3, 0xeda0fb929b0d5047, 0x2f59a11157e45639, // layer 2, bins 0..8
    0x315ec9ce7c437dde, // never fires: equals the clean run
];

#[test]
fn tiny_shape_runs_equal_the_pinned_digests() {
    let mut base = AccelConfig::paper_default();
    base.model = ModelConfig::tiny_for_tests();
    base.s = 8;
    let be = CirculantBackend::new(CirculantConfig {
        base,
        block: BLOCK,
        lanes: 4,
    });
    assert_golden(&digests(&be, 0x601D), &TINY_GOLDEN);
}

#[test]
fn paper_point_runs_equal_the_pinned_digests() {
    let be = CirculantBackend::ftrans_default();
    assert_eq!(be.config().block, BLOCK);
    assert_golden(&digests(&be, 0x601E), &PAPER_GOLDEN);
}
