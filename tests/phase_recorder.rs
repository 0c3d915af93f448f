//! The serving engine's step phase recorder (`tensor::phase`, switched
//! on by `ContinuousBatcher::record_phases`) observes and never steers:
//! the same requests through an engine with the recorder and one
//! without give the same responses and the same `ServingStats`, at one
//! and two workers. The recorder's totals must be usable as a layer
//! table: admitting and decode-only steps both recorded, every kind's
//! phases summing to no more than its steps' wall time, and the spans
//! of a step never overlapping.

use std::time::Duration;

use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serving::{ContinuousBatcher, EngineConfig, Request, Response, ServingStats};
use tensor::phase::{Phase, StepKind};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

/// Two heads of width 64, so attention takes the SIMD block kernels
/// where the host has them.
fn model() -> QuantSeq2Seq {
    let cfg = ModelConfig {
        name: "recorder".into(),
        d_model: 128,
        d_ff: 256,
        h: 2,
        n_layers: 2,
        vocab: 32,
        max_len: 96,
    };
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(0x9A5E));
    let corpus =
        TaskGen::new(Task::Reverse, cfg.vocab, 3, 9).corpus(8, &mut StdRng::seed_from_u64(0x9A5F));
    QuantSeq2Seq::from_trained(&fp32, &corpus, SoftmaxMode::Hardware)
}

/// Twelve requests: two waves of forks of one 40-token prompt head and
/// one source (prefix-cache hits attending shared pages as cohorts),
/// and requests with sources and prompts of their own.
fn requests(vocab: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(0x9A60);
    let mut toks =
        |n: usize| -> Vec<usize> { (0..n).map(|_| rng.random_range(3..vocab)).collect() };
    let shared_src = toks(12);
    let shared_head = toks(40);
    (0..12u64)
        .map(|id| {
            if id % 3 == 2 {
                Request::new(id, toks(5 + id as usize), 10).with_prompt(toks(id as usize))
            } else {
                let mut prompt = shared_head.clone();
                prompt.extend(toks(1 + id as usize % 4));
                Request::new(id, shared_src.clone(), 10).with_prompt(prompt)
            }
        })
        .collect()
}

fn serve(
    model: &QuantSeq2Seq,
    record: bool,
) -> (Vec<Response>, ServingStats, ContinuousBatcher<'_>) {
    let cfg = EngineConfig {
        prefill_chunk: 16,
        max_prefill_rows: 32,
        prefix_cache_bytes: 1 << 20,
        ignore_eos: true,
        ..EngineConfig::with_max_batch(6)
    };
    let mut engine = ContinuousBatcher::new(model, cfg).expect("engine");
    if record {
        engine.record_phases();
    }
    for r in requests(model.src_vocab()) {
        engine.submit(r).expect("valid request");
    }
    let responses = engine.run_to_completion();
    let stats = engine.stats();
    (responses, stats, engine)
}

#[test]
fn recording_changes_nothing_and_totals_add_up() {
    let model = model();
    let _restore = RestoreThreads;
    for threads in [1, 2] {
        tensor::par::set_thread_override(Some(threads));
        let (want, want_stats, plain) = serve(&model, false);
        assert!(plain.phase_recorder().is_none());
        let (got, got_stats, engine) = serve(&model, true);
        assert_eq!(got, want, "{threads} workers: responses");
        assert_eq!(got_stats, want_stats, "{threads} workers: stats");
        assert!(want_stats.prefix_hits > 0, "the forks hit the prefix cache");

        let rec = engine.phase_recorder().expect("switched on");
        let totals = rec.totals();
        let admit = totals[StepKind::Admit as usize];
        let decode = totals[StepKind::Decode as usize];
        assert!(
            admit.steps > 0,
            "{threads} workers: no admitting step recorded"
        );
        assert!(
            decode.steps > 0,
            "{threads} workers: no decode step recorded"
        );
        assert!(admit.phases[Phase::Admission as usize] > Duration::ZERO);
        for phase in [Phase::WeightGemm, Phase::LayerNorm, Phase::GreedyHead] {
            assert!(
                decode.phases[phase as usize] > Duration::ZERO,
                "{threads} workers: decode steps record {}",
                phase.name()
            );
        }
        for kind in StepKind::ALL {
            let t = totals[kind as usize];
            assert!(
                t.phases.iter().sum::<Duration>() <= t.step,
                "{threads} workers, {} steps: phases exceed the step",
                kind.name()
            );
        }
        let spans = rec.spans();
        assert!(!spans.is_empty());
        for w in spans.windows(2) {
            assert!(w[0].start <= w[0].end);
            assert!(
                w[0].end <= w[1].start,
                "{threads} workers: {} overlaps {}",
                w[0].phase.name(),
                w[1].phase.name()
            );
        }
    }
}

struct RestoreThreads;

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        tensor::par::set_thread_override(None);
    }
}
