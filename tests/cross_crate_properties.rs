//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary shapes, scales and contents across the whole stack.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::partition::{partitioned_matmul_i8, qk_matmul_i8};
use transformer_accel::accel::systolic::SystolicArray;
use transformer_accel::quantized::softmax::{scaled_masked_softmax, SoftmaxMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn systolic_simulation_equals_reference_gemm(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sa = SystolicArray::new(12, 12);
        let a = tensor::init::uniform_i8(&mut rng, m, k);
        let b = tensor::init::uniform_i8(&mut rng, k, n);
        let sim = sa.simulate(&a, &b);
        prop_assert_eq!(sim.out, tensor::gemm::matmul_i8(&a, &b).unwrap());
        // closed-form timing
        prop_assert_eq!(sim.compute.get(), (k + m + n - 2) as u64);
    }

    #[test]
    fn partitioned_gemm_equals_monolithic(
        rows in 1usize..10,
        k_panels in 1usize..4,
        n_panels in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let k = 64 * k_panels;
        let n = 64 * n_panels;
        let x = tensor::init::uniform_i8(&mut rng, rows, k);
        let w = tensor::init::uniform_i8(&mut rng, k, n);
        prop_assert_eq!(
            partitioned_matmul_i8(&x, &w).unwrap(),
            tensor::gemm::matmul_i8(&x, &w).unwrap()
        );
    }

    #[test]
    fn qk_padding_and_tiling_is_exact(s in 1usize..150, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51D);
        let q = tensor::init::uniform_i8(&mut rng, s, 64);
        let k = tensor::init::uniform_i8(&mut rng, s, 64);
        prop_assert_eq!(
            qk_matmul_i8(&q, &k).unwrap(),
            tensor::gemm::matmul_i8_nt(&q, &k).unwrap()
        );
    }

    #[test]
    fn hw_softmax_is_a_probability_vector_up_to_approximation(
        s in 1usize..32,
        seed in 0u64..500,
        scale_exp in -16i32..-8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50F);
        let d = tensor::Mat::from_fn(s, s, |_, _| {
            use rand::Rng;
            rng.random_range(-100_000..100_000i32)
        });
        let scale = (2.0f32).powi(scale_exp);
        let p = scaled_masked_softmax(&d, scale, 64, None, SoftmaxMode::Hardware);
        for r in 0..s {
            let sum: i32 = p.row(r).iter().map(|&x| x as i32).sum();
            // every code non-negative; row sums near 127 with the
            // documented ~±15% approximation slack
            prop_assert!(p.row(r).iter().all(|&x| x >= 0));
            prop_assert!((104..=152).contains(&sum), "row {r} sums to {sum}");
        }
    }

    #[test]
    fn schedules_scale_monotonically_with_model_width(h in 1usize..9, seed in 0u64..10) {
        let _ = seed;
        use transformer_accel::accel::{scheduler, AccelConfig};
        let mut cfg = AccelConfig::paper_default();
        cfg.model.h = h;
        cfg.model.d_model = 64 * h;
        cfg.model.d_ff = 256 * h;
        let cycles = scheduler::schedule_mha(&cfg).cycles.get();
        cfg.model.h = h + 1;
        cfg.model.d_model = 64 * (h + 1);
        cfg.model.d_ff = 256 * (h + 1);
        let bigger = scheduler::schedule_mha(&cfg).cycles.get();
        prop_assert!(bigger > cycles, "{bigger} vs {cycles}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_is_bit_identical_across_random_64h_configs(
        h in 1usize..4,
        s in 2usize..12,
        seed in 0u64..100,
    ) {
        use transformer_accel::accel::engine::ArrayEngine;
        use transformer_accel::accel::isa::mha_program;
        use transformer_accel::quantized::QuantMhaResBlock;
        use transformer_accel::transformer::config::ModelConfig;
        use transformer_accel::transformer::mha::MhaResBlock;
        let cfg = ModelConfig {
            name: "prop".into(),
            d_model: 64 * h,
            d_ff: 256 * h,
            h,
            n_layers: 1,
            vocab: 16,
            max_len: s,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<_> = (0..2)
            .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
            .collect();
        let q = QuantMhaResBlock::from_f32(&block, &calib, &calib, SoftmaxMode::Hardware);
        let xq = q.quantize_input_q(&calib[0]);
        let (want, _) = q.forward(&xq, &xq, None);
        let run = ArrayEngine::new(s).run_mha(&mha_program(h, s), &q, &xq, &xq, None);
        prop_assert_eq!(run.out, want);
    }
}

#[test]
fn quantized_mha_error_is_bounded_across_random_blocks() {
    use transformer_accel::quantized::QuantMhaResBlock;
    use transformer_accel::transformer::config::ModelConfig;
    use transformer_accel::transformer::mha::MhaResBlock;
    for seed in 0..6u64 {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = MhaResBlock::new(&cfg, &mut rng);
        let calib: Vec<_> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
            .collect();
        let q = QuantMhaResBlock::from_f32(&block, &calib, &calib, SoftmaxMode::Hardware);
        let x = &calib[0];
        let want = block.forward(x, x, x, None);
        let got = q.forward_f32(x, x, None);
        let err = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(err < 0.35, "seed {seed}: err {err}");
    }
}
