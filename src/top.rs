//! Top-level checks: the accelerator driven the way the examples drive
//! it, a ResBlock lowered and run through [`accel::PaperBackend`],
//! timed by [`accel::scheduler`] and priced by the Table-II area model.

mod tests {
    use accel::area::{estimate_power, AreaModel};
    use accel::{scheduler, AccelConfig, Backend, PaperBackend};
    use graph::{ffn_graph, mha_graph, GraphConfig};
    use quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tensor::Mat;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    struct Tiny {
        be: PaperBackend,
        gcfg: GraphConfig,
        mha: QuantMhaResBlock,
        ffn: QuantFfnResBlock,
        calib: Vec<Mat<f32>>,
    }

    /// The tiny model's blocks on a 16-row array.
    fn tiny() -> Tiny {
        let model = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let mha = MhaResBlock::new(&model, &mut rng);
        let ffn = FfnResBlock::new(&model, &mut rng);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, 8, model.d_model, 1.0))
            .collect();
        Tiny {
            gcfg: GraphConfig {
                d_model: model.d_model,
                d_ff: model.d_ff,
                h: model.h,
            },
            mha: QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware),
            ffn: QuantFfnResBlock::from_f32(&ffn, &calib),
            be: PaperBackend::new(AccelConfig {
                model,
                s: 16,
                ..AccelConfig::paper_default()
            }),
            calib,
        }
    }

    #[test]
    fn run_mha_is_bit_identical_to_datapath() {
        let t = tiny();
        let xq = t.mha.quantize_input_q(&t.calib[0]);
        let (want, _) = t.mha.forward(&xq, &xq, None);
        let prog = t.be.lower_mha(&mha_graph(&t.gcfg), xq.rows());
        assert_eq!(t.be.run_mha(&prog, &t.mha, &xq, &xq, None), want);
        assert!(scheduler::schedule_mha(t.be.config()).cycles.get() > 0);
    }

    #[test]
    fn run_ffn_is_bit_identical_to_datapath() {
        let t = tiny();
        let x = t.ffn.quantize_input(&t.calib[1]);
        let (want, _) = t.ffn.forward(&x);
        let prog = t.be.lower_ffn(&ffn_graph(&t.gcfg));
        assert_eq!(t.be.run_ffn(&prog, &t.ffn, &x), want);
        assert!(scheduler::schedule_ffn(t.be.config()).latency_us > 0.0);
    }

    #[test]
    fn oversized_sequence_error() {
        // The array's own row check is the length check: 17 rows on a
        // 16-row array.
        let t = tiny();
        let x = Mat::<i8>::zeros(17, t.gcfg.d_model);
        let prog = t.be.lower_ffn(&ffn_graph(&t.gcfg));
        let err = catch_unwind(AssertUnwindSafe(|| t.be.run_ffn(&prog, &t.ffn, &x)))
            .expect_err("17 rows must not run on a 16-row array");
        let msg = err
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("more rows than the array"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "does not match the block's shape")]
    fn loading_a_block_of_another_shape_is_rejected() {
        // The Transformer-base program over the tiny model's FFN block.
        let t = tiny();
        let be = PaperBackend::paper_default();
        let model = &be.config().model;
        let prog = be.lower_ffn(&ffn_graph(&GraphConfig {
            d_model: model.d_model,
            d_ff: model.d_ff,
            h: model.h,
        }));
        let _ = be.run_ffn(&prog, &t.ffn, &t.ffn.quantize_input(&t.calib[0]));
    }

    #[test]
    fn paper_schedules_are_available_without_weights() {
        let cfg = AccelConfig::paper_default();
        assert_eq!(scheduler::schedule_mha(&cfg).cycles.get(), 20_998);
        assert_eq!(scheduler::schedule_ffn(&cfg).cycles.get(), 35_846);
        let p = estimate_power(&AreaModel::new(cfg.clone()), &cfg);
        assert!((p.total_w() - 16.7).abs() < 0.1);
    }
}
