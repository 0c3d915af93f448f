//! Where a serving step's time goes, read from the engine's own phase
//! recorder (`ContinuousBatcher::record_phases`, `tensor::phase`).
//!
//! Builds the `base6L` model (Transformer-base ResBlocks, 6 layers,
//! 8192-token vocabulary; FP32 init, calibration, INT8 quantization)
//! and drives three closed-loop traffic shapes through one engine each:
//!
//! * `decode_c16` — 16 clients in 4 waves, 16–48-token sources, no
//!   prompt, 32 new tokens;
//! * `prefix_decode` — the same clients with 256-token prompts whose
//!   first 230 tokens (and the source) every request shares, so forks of
//!   one cached prefix attend their shared KV pages as cohorts;
//! * `prefill_long` — 8 clients in one wave with unshared 256-token
//!   prompts and 4 new tokens, so most steps run 64-row prefill chunks.
//!
//! For each it prints milliseconds per step by phase, split by step
//! kind (admitting, prefilling, decode-only), and the share of step time
//! no phase accounts for (the recorder samples one step in
//! `SAMPLE_EVERY`; the figures average the recorded steps). `--overhead`
//! instead runs `decode_c16` traffic with the recorder on and reports
//! the median ratio of a recorded decode step's time to the unrecorded
//! one after it, and that cost amortised over the steps. Runs at one
//! worker thread, as the benchmark does, so every phase executes on the
//! stepping thread; `--threads N` runs at `N` workers instead (work the
//! pool's other workers do then reads as unaccounted).
//!
//! ```text
//! cargo run --release --example phase_profile [-- --requests 96] [-- --threads 2] [-- --overhead]
//! ```

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::serving::{ContinuousBatcher, EngineConfig, Request};
use transformer_accel::tensor::phase::{Phase, StepKind, StepTotals, SAMPLE_EVERY};
use transformer_accel::tensor::Policy;
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, FIRST_CONTENT};

/// One closed-loop traffic shape.
#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    clients: usize,
    waves: usize,
    prompt_len: usize,
    shared_prefix: usize,
    max_new: usize,
}

const DECODE_C16: Shape = Shape {
    name: "decode_c16",
    clients: 16,
    waves: 4,
    prompt_len: 0,
    shared_prefix: 0,
    max_new: 32,
};

const PREFIX_DECODE: Shape = Shape {
    name: "prefix_decode",
    clients: 16,
    waves: 4,
    prompt_len: 256,
    shared_prefix: 230,
    max_new: 32,
};

const PREFILL_LONG: Shape = Shape {
    name: "prefill_long",
    clients: 8,
    waves: 1,
    prompt_len: 256,
    shared_prefix: 0,
    max_new: 4,
};

fn base6l() -> ModelConfig {
    ModelConfig {
        name: "base6L".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 6,
        vocab: 8192,
        max_len: 384,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        max_batch: 16,
        prefill_chunk: 64,
        max_prefill_rows: 256,
        prefix_cache_bytes: 64 << 20,
        ignore_eos: true,
        max_queue: 0,
        ..EngineConfig::with_max_batch(16)
    }
}

fn tokens(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n)
        .map(|_| rng.random_range(FIRST_CONTENT..vocab))
        .collect()
}

/// Wall time of one `step` call, and whether it only decoded (admitted
/// nothing, ingested no prompt row).
type StepTime = (Duration, bool);

/// Runs `requests` requests of `shape` closed-loop, with ids from
/// `id0`, calling `before_step(engine, step)` ahead of every step;
/// returns the tokens generated and each step's [`StepTime`].
fn drive(
    engine: &mut ContinuousBatcher<'_>,
    shape: Shape,
    vocab: usize,
    requests: usize,
    id0: u64,
    mut before_step: impl FnMut(&mut ContinuousBatcher<'_>, usize),
) -> (usize, Vec<StepTime>) {
    // Every run of a shape shares one source and prompt head.
    let mut shared = StdRng::seed_from_u64(7);
    let shared_src = tokens(&mut shared, 32, vocab);
    let shared_head = tokens(&mut shared, shape.shared_prefix, vocab);
    let mut rng = StdRng::seed_from_u64(id0);
    let next = |rng: &mut StdRng, id: u64| {
        let (src, prompt) = if shape.shared_prefix > 0 {
            let mut prompt = shared_head.clone();
            prompt.extend(tokens(rng, shape.prompt_len - shape.shared_prefix, vocab));
            (shared_src.clone(), prompt)
        } else {
            let len = rng.random_range(16..=48);
            (
                tokens(rng, len, vocab),
                tokens(rng, shape.prompt_len, vocab),
            )
        };
        Request::new(id, src, shape.max_new).with_prompt(prompt)
    };
    let per_wave = shape.clients / shape.waves;
    let wave_gap = shape.max_new.div_ceil(shape.waves);
    let (mut sent, mut done, mut steps) = (0usize, 0usize, 0usize);
    let (mut generated, mut times) = (0usize, Vec::new());
    while done < requests {
        // Wave `w` of clients joins at step `w * wave_gap`.
        let joined = ((steps / wave_gap.max(1)) + 1).min(shape.waves) * per_wave;
        while sent < requests && sent - done < joined {
            engine
                .submit(next(&mut rng, id0 + sent as u64))
                .expect("valid request");
            sent += 1;
        }
        before_step(engine, steps);
        let before = engine.stats();
        let t0 = Instant::now();
        engine.step();
        let dt = t0.elapsed();
        let after = engine.stats();
        let decode_only =
            after.admitted == before.admitted && after.prefill_rows == before.prefill_rows;
        times.push((dt, decode_only));
        steps += 1;
        let _ = engine.drain_emitted();
        for resp in engine.drain_finished() {
            generated += resp.tokens.len();
            done += 1;
        }
    }
    (generated, times)
}

/// Total wall time of `times`.
fn busy(times: &[StepTime]) -> Duration {
    times.iter().map(|t| t.0).sum()
}

fn ms(d: Duration, steps: u64) -> f64 {
    d.as_secs_f64() * 1e3 / steps.max(1) as f64
}

fn print_totals(kind: StepKind, t: &StepTotals) {
    if t.steps == 0 {
        return;
    }
    let step_ms = ms(t.step, t.steps);
    println!(
        "  {} steps: {} at {:.3} ms/step",
        kind.name(),
        t.steps,
        step_ms
    );
    for phase in Phase::ALL {
        let d = t.phases[phase as usize];
        if d.is_zero() {
            continue;
        }
        println!(
            "    {:<12} {:>8.3} ms  {:>5.1} %",
            phase.name(),
            ms(d, t.steps),
            100.0 * ms(d, t.steps) / step_ms
        );
    }
    let un = ms(t.unaccounted(), t.steps);
    println!(
        "    {:<12} {:>8.3} ms  {:>5.1} %",
        "unaccounted",
        un,
        100.0 * un / step_ms
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    let requests = value("--requests").unwrap_or(96);
    let threads = value("--threads").unwrap_or(1);
    let overhead = args.iter().any(|a| a == "--overhead");
    let policy = Policy {
        threads,
        ..Policy::current()
    };
    policy.run(|| profile(requests, overhead));
}

/// Builds the model and prints the recorder's tables (or, with
/// `overhead`, the recorder's cost), under the calling thread's policy.
fn profile(requests: usize, overhead: bool) {
    let cfg = base6l();
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(0x0D00_DE06));
    let calib = TaskGen::new(Task::Reverse, cfg.vocab, 16, 48)
        .corpus(4, &mut StdRng::seed_from_u64(0x00CA_11B6));
    let model = QuantSeq2Seq::from_trained(&fp32, &calib, SoftmaxMode::Hardware);
    drop(fp32);

    if overhead {
        // The recorder records one step in `SAMPLE_EVERY`: each recorded
        // decode step is paired with the unrecorded decode step after it
        // (host speed drifts far less between two adjacent steps than
        // between two runs), and the amortised cost is that ratio spread
        // over the steps it samples from.
        println!("decode_c16 decode steps, recorder switched on, adjacent pairs:");
        for run in 0..3 {
            let mut engine = ContinuousBatcher::new(&model, engine_config()).expect("engine");
            engine.record_phases();
            let (_, times) = drive(&mut engine, DECODE_C16, cfg.vocab, requests, 0, |_, _| {});
            let mut ratios: Vec<f64> = times
                .chunks_exact(SAMPLE_EVERY as usize)
                .filter(|p| p[0].1 && p[1].1)
                .map(|p| p[0].0.as_secs_f64() / p[1].0.as_secs_f64())
                .collect();
            ratios.sort_by(f64::total_cmp);
            let per_step = ratios[ratios.len() / 2] - 1.0;
            println!(
                "  run {run}: {} pairs, recorded step {:+.2} %, amortised {:+.2} %",
                ratios.len(),
                100.0 * per_step,
                100.0 * per_step / SAMPLE_EVERY as f64
            );
        }
        return;
    }

    for shape in [DECODE_C16, PREFIX_DECODE, PREFILL_LONG] {
        let mut engine = ContinuousBatcher::new(&model, engine_config()).expect("engine");
        // One untimed pass warms the prefix cache and the allocator.
        drive(&mut engine, shape, cfg.vocab, shape.clients, 0, |_, _| {});
        engine.record_phases();
        let (tokens, times) = drive(&mut engine, shape, cfg.vocab, requests, 1 << 20, |_, _| {});
        println!(
            "{}: {requests} requests, {tokens} tokens, {:.0} tok/s",
            shape.name,
            tokens as f64 / busy(&times).as_secs_f64()
        );
        let totals = engine.phase_recorder().expect("switched on").totals();
        for kind in StepKind::ALL {
            print_totals(kind, &totals[kind as usize]);
        }
    }
}
