//! Runs one workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics), and verifies its outputs.

use std::time::{Duration, Instant};

use serving::ContinuousBatcher;

use crate::config::{engine_config, model_config, Arrival, Kind, Traffic, Workload};
use crate::gen::RequestGen;
use crate::hwmodel;
use crate::inproc::{Driver, Keep, Until};
use crate::measure::{step_ms, summarize, StepKind, Summary, Window};
use crate::probes::{Ctx, Probe};
use crate::report::{unit_of, value_of, Measured, Outcome};
use crate::setup::Model;
use crate::stats::{percentile, sort, supports};
use crate::trace::{self_time_by_name, Tracer};
use crate::verify::{digest, mismatches};

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// 1/20-size run for CI: tiny windows, two verified requests.
    pub smoke: bool,
}

impl Opts {
    /// Requests replayed alone for the output check.
    pub fn verify_sample(&self, t: &Traffic) -> usize {
        if self.smoke {
            t.verify_sample.min(2)
        } else {
            t.verify_sample
        }
    }

    fn probe_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 5 } else { 60 })
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn end_to_end(s: &Summary, setup_s: f64) -> Vec<Measured> {
    vec![
        ("tok_s", s.tok_s),
        ("ttft_ms_p50", s.ttft_ms.0),
        ("itl_ms_p50", s.itl_ms.0),
        ("slo_ok_frac", s.slo_ok_frac),
        ("rss_peak_mb", rss_peak_mb()),
        ("setup_s", setup_s),
    ]
}

/// The latency tails, which the traced run reports as layer metrics:
/// over ten seeds they spread too widely to gate a change on (README,
/// "Departures").
pub fn request_tails(s: &Summary) -> Vec<Measured> {
    vec![
        ("request.ttft_ms_p90", s.ttft_ms.1),
        ("request.itl_ms_p95", s.itl_ms.1),
    ]
}

/// Summarizes `windows` (see [`summarize`] for `open_loop`) and prints
/// the summary: the compensated figures the run reports, the same on
/// the wall clock, and the per-window throughput and host speed in run
/// order, where the host's drift shows before it shows anywhere.
pub fn print_summary(name: &str, label: &str, windows: &[Window], open_loop: bool) -> Summary {
    let s = summarize(windows, open_loop);
    let tail = |n: usize, q: f64| {
        if supports(n, q) {
            String::new()
        } else {
            format!(" (fewer than ten samples beyond p{q:.0})")
        }
    };
    println!(
        "{name} [{label}]: {} windows, {} requests, {} failed",
        s.counts.0, s.counts.1, s.counts.2
    );
    println!(
        "  tok_s        {:>12.2} tok/s  all windows together (wall clock {:.2})",
        s.tok_s, s.wall.0
    );
    println!(
        "  ttft_ms      p50 {:>9.3} ms  per window, averaged (wall clock {:.3})  n={}",
        s.ttft_ms.0, s.wall.1, s.samples.0
    );
    println!(
        "  itl_ms       p50 {:>9.3} ms  per window, averaged (wall clock {:.3})  n={}",
        s.itl_ms.0, s.wall.2, s.samples.1
    );
    println!(
        "  wall-clock tails: ttft p90 {:.3} ms{}  itl p95 {:.3} ms  p99 {:.3} ms{}",
        s.ttft_ms.1,
        tail(s.samples.0, 90.0),
        s.itl_ms.1,
        s.itl_ms.2,
        tail(s.samples.1, 95.0)
    );
    println!("  slo_ok_frac  {:>12.4}", s.slo_ok_frac);
    let series =
        |f: &dyn Fn(&Window) -> String| windows.iter().map(f).collect::<Vec<_>>().join(" ");
    println!(
        "  tok_s by window (wall clock): {}",
        series(&|w| format!("{:.0}", w.tokens as f64 / w.wall_s.max(1e-9)))
    );
    println!(
        "  host speed by window ({:.2} .. {:.2} of typical): {}",
        s.speed_range.0,
        s.speed_range.1,
        series(&|w| format!("{:.2}", w.speed))
    );
    s
}

pub fn run_probes(model: &Model, o: &Opts, set: &[Probe]) -> Vec<Measured> {
    let ctx = Ctx {
        model,
        budget: o.probe_budget(),
    };
    set.iter().flat_map(|probe| probe(&ctx)).collect()
}

pub fn p50(samples: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.collect();
    sort(&mut v);
    percentile(&v, 50.0)
}

pub fn write_trace(name: &str, tr: &Tracer) {
    let path = crate::env::package_dir()
        .join("out")
        .join(format!("trace_{name}.json"));
    match tr.write_chrome(&path) {
        Ok(()) => println!("  trace: {} spans -> {}", tr.spans().len(), path.display()),
        Err(e) => println!("  trace: could not write {}: {e}", path.display()),
    }
    // Request spans are concurrent lifetimes, not calls: summing their
    // self time would count one wall second once per request in flight.
    println!("  self time by call span:");
    for (span, ns, n) in self_time_by_name(tr.spans())
        .into_iter()
        .filter(|(name, ..)| !name.starts_with("request"))
        .take(8)
    {
        println!("    {span:<28} {:>10.3} ms  x{n}", ns as f64 / 1e6);
    }
}

/// Probes each in-process workload replays, and the `quantized.step_*`
/// probe whose shape matches its decode steps.
pub fn probe_set(name: &str) -> (Vec<Probe>, &'static str) {
    use crate::probes::*;
    match name {
        "decode_c1" => (
            vec![
                wgemm_m1,
                outproj_m1,
                embed_row,
                step_b1,
                admission,
                softmax,
                layernorm,
                fixed_units,
                attention_kernels,
                kv_pages,
                fuse_pass,
            ],
            "quantized.step_b1_ms",
        ),
        "decode_c16" => (
            vec![
                wgemm_m16,
                outproj_m16,
                embed_row,
                step_b16,
                admission,
                softmax,
                layernorm,
                fixed_units,
                attention_kernels,
                kv_pages,
                fuse_pass,
            ],
            "quantized.step_b16_ms",
        ),
        "prefill_long" => (
            vec![
                wgemm_m64,
                prefill_chunk64,
                admission,
                kv_pages,
                kv_fork,
                fork_rollback,
                softmax,
                layernorm,
            ],
            "",
        ),
        "prefix_decode" => (
            vec![
                wgemm_m16,
                outproj_m16,
                step_b16_ctx256,
                attention_kernels,
                kv_pages,
                kv_fork,
                fork_rollback,
                admission,
            ],
            "quantized.step_b16_ctx256_ms",
        ),
        _ => (
            vec![
                wgemm_m1, outproj_m1, step_b1, admission, wire_codec, poll_idle,
            ],
            "quantized.step_b1_ms",
        ),
    }
}

/// Per-layer metrics that come from the traced windows of an in-process
/// run: step spans, counter deltas and the modelled-hardware column.
/// Counts are read on the first window only — it is the same window at
/// every run of one seed, however many windows the time budget allows.
fn serving_layer(windows: &[Window], matching_replay_ms: f64) -> Vec<Measured> {
    let first = &windows[0];
    let (s0, s1) = first.stats;
    let steps = (s1.steps - s0.steps).max(1) as f64;
    let (decode_p50, decode_p99, _) = step_ms(windows, StepKind::Decode);
    let hits = (s1.prefix_hits - s0.prefix_hits) as f64;
    let lookups = hits + (s1.prefix_misses - s0.prefix_misses) as f64;
    let reused = (s1.prefix_rows_reused - s0.prefix_rows_reused) as f64;
    let ingested = (s1.prefill_rows - s0.prefill_rows) as f64;
    let wall: f64 = windows.iter().map(|w| w.wall_s).sum();
    let step_s: f64 = windows
        .iter()
        .flat_map(|w| w.steps.iter())
        .map(|s| s.ms / 1e3)
        .sum();
    let all_prefill: usize = windows
        .iter()
        .map(|w| w.stats.1.prefill_rows - w.stats.0.prefill_rows)
        .sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let cycles = hwmodel::trace(&model_config(), &first.composition);
    vec![
        ("serving.step_decode_ms_p50", decode_p50),
        ("serving.step_decode_ms_p99", decode_p99),
        (
            "serving.step_prefill_ms_p50",
            step_ms(windows, StepKind::Prefill).0,
        ),
        (
            "serving.step_admit_ms_p50",
            step_ms(windows, StepKind::Admit).0,
        ),
        ("serving.steps", steps),
        (
            "serving.mean_rows_per_step",
            (s1.rows - s0.rows) as f64 / steps,
        ),
        (
            "serving.occupancy",
            (s1.rows - s0.rows) as f64 / steps / engine_config().max_batch as f64,
        ),
        ("serving.prefill_rows", ingested),
        (
            "serving.submit_us_p50",
            p50(windows.iter().flat_map(|w| w.submit_us.iter().copied())),
        ),
        (
            "serving.drain_us_p50",
            p50(windows.iter().flat_map(|w| w.drain_us.iter().copied())),
        ),
        (
            "serving.overhead_frac",
            if matching_replay_ms > 0.0 && decode_p50 > 0.0 {
                1.0 - matching_replay_ms / decode_p50
            } else {
                0.0
            },
        ),
        ("serving.step_time_frac", ratio(step_s, wall)),
        ("serving.prefix_hit_frac", ratio(hits, lookups)),
        (
            "serving.prefix_rows_reused_frac",
            ratio(reused, reused + ingested),
        ),
        (
            "serving.prefix_bytes_shared",
            (s1.prefix_bytes_shared - s0.prefix_bytes_shared) as f64,
        ),
        ("serving.kv_in_use_mean_bytes", first.kv_in_use_sum / steps),
        ("serving.kv_peak_bytes", s1.kv_bytes_peak as f64),
        ("serving.prefill_rows_s", ratio(all_prefill as f64, wall)),
        (
            "graph.fused_ops_per_step",
            (s1.ops_fused - s0.ops_fused) as f64 / steps,
        ),
        (
            "graph.elided_bytes_per_step",
            (s1.intermediates_elided_bytes - s0.intermediates_elided_bytes) as f64 / steps,
        ),
        (
            "accel.hw_cycles_per_tok",
            ratio(cycles.isolated_cycles.get() as f64, first.tokens as f64),
        ),
    ]
}

/// Prints the first reconciliation: do the replay probes, multiplied by
/// how often a decode step calls them, add up to the measured step?
fn reconcile(name: &str, rows: f64, m: &[Measured], windows: &[Window]) {
    let cfg = model_config();
    let layers = cfg.n_layers as f64;
    let (wgemm, outproj) = if rows > 1.5 {
        ("tensor.wgemm_m16_us", "transformer.outproj_m16_us")
    } else {
        ("tensor.wgemm_m1_us", "transformer.outproj_m1_us")
    };
    // A 32-token request with no prompt sits at 17 rows on average and
    // attends over a 32-token source on average.
    let ctx_rows = 17.0 + 32.0;
    let attn_ns = value_of(m, "tensor.head_dots_i8_ns_per_row")
        + value_of(m, "tensor.scaled_add_i8_ns_per_row");
    let terms = [
        ("weight GEMMs x layers", layers * value_of(m, wgemm) / 1e3),
        ("FP32 output projection", value_of(m, outproj) / 1e3),
        ("attention drain", rows * layers * ctx_rows * attn_ns / 1e6),
        (
            "softmax",
            rows * layers * cfg.h as f64 * ctx_rows * value_of(m, "quantized.softmax_ns_per_elem")
                / 1e6,
        ),
        (
            "layernorm (3 per layer)",
            rows * layers * 3.0 * value_of(m, "quantized.layernorm_ns_per_row") / 1e6,
        ),
        (
            "embedding",
            rows * value_of(m, "transformer.embed_row_ns") / 1e6,
        ),
    ];
    let step = step_ms(windows, StepKind::Decode).0;
    let total: f64 = terms.iter().map(|(_, ms)| ms).sum();
    println!(
        "  reconciliation on {name}: probes x calls per decode step vs serving.step_decode_ms_p50"
    );
    for (label, ms) in terms {
        println!("    {label:<26} {ms:>8.3} ms  {:>5.1}%", 100.0 * ms / step);
    }
    println!(
        "    {:<26} {total:>8.3} ms  {:>5.1}% of {step:.3} ms accounted; whole-step replay {:.3} ms",
        "sum",
        100.0 * total / step,
        value_of(m, if rows > 1.5 { "quantized.step_b16_ms" } else { "quantized.step_b1_ms" }),
    );
}

fn in_process(model: &Model, base_setup_s: f64, w: &Workload, t: Traffic, o: &Opts) -> Outcome {
    let prep = Instant::now();
    let mut engine = ContinuousBatcher::new(&model.quant, engine_config()).expect("sixteen slots");
    let gen = RequestGen::new(o.seed, w.name, model_config().vocab, t);
    let mut driver = Driver::closed(&mut engine, gen, t);
    let mut tr = Tracer::new(false);
    let warm = driver.run(Until::Windows(1), Keep::default(), &mut tr);
    let setup_s = base_setup_s + prep.elapsed().as_secs_f64() * warm[0].scale();

    // A is what this run reports. A traced run alternates traced (A)
    // and untraced (B) windows, so the host's slow drift lands on both
    // sides of the tracing-overhead figure alike.
    let sample = o.verify_sample(&t);
    tr.set_enabled(o.traced);
    let started = Instant::now();
    let left = |started: Instant| o.seconds - started.elapsed().as_secs_f64();
    let mut a = driver.run(
        Until::Windows(sample.div_ceil(t.window_requests)),
        Keep {
            responses: true,
            composition: o.traced,
        },
        &mut tr,
    );
    let mut b = Vec::new();
    if !o.traced && left(started) > 0.0 {
        a.extend(driver.run(Until::Seconds(left(started)), Keep::default(), &mut tr));
    }
    while o.traced && left(started) > 0.0 {
        tr.set_enabled(false);
        b.extend(driver.run(Until::Windows(1), Keep::default(), &mut tr));
        tr.set_enabled(true);
        a.extend(driver.run(Until::Windows(1), Keep::default(), &mut tr));
    }
    driver.abandon();

    let responses: Vec<_> = a.iter().flat_map(|w| w.responses.iter().cloned()).collect();
    let (checked, bad) = mismatches(&model.quant, &responses, sample);
    let sa = print_summary(
        w.name,
        if o.traced { "traced" } else { "untraced" },
        &a,
        false,
    );
    let mut metrics = end_to_end(&sa, setup_s);
    if o.traced {
        let sb = print_summary(w.name, "untraced, for the tracing overhead", &b, false);
        let (set, replay) = probe_set(w.name);
        let probed = run_probes(model, o, &set);
        metrics = serving_layer(&a, value_of(&probed, replay));
        metrics.extend(request_tails(&sa));
        metrics.push(("trace_overhead_frac", 1.0 - sa.tok_s / sb.tok_s));
        println!(
            "  trace overhead: tok_s {:+.2}%  ttft_ms_p50 {:+.2}%",
            100.0 * (sb.tok_s / sa.tok_s - 1.0),
            100.0 * (sa.ttft_ms.0 / sb.ttft_ms.0 - 1.0)
        );
        if w.name == "decode_c16" {
            metrics.push((
                "transformer.outproj_share_c16",
                value_of(&probed, "transformer.outproj_m16_us")
                    / 1e3
                    / value_of(&metrics, "serving.step_decode_ms_p50"),
            ));
        }
        if let Arrival::Closed { clients, .. } = t.arrival {
            if t.prompt_len == 0 {
                reconcile(w.name, clients as f64, &probed, &a);
            }
        }
        metrics.extend(probed);
        write_trace(w.name, &tr);
    }
    let failed = sa.counts.2 + bad;
    Outcome {
        workload: w.name,
        seed: o.seed,
        traced: o.traced,
        correct: failed == 0 && checked > 0,
        attempted: sa.counts.1 + checked,
        failed,
        digest: digest(&responses).hex(),
        metrics,
    }
}

/// Runs one workload. `base_setup_s` is the time from process start to
/// a built model; the workload adds its own engine or door
/// construction and warm-up window.
pub fn run(model: &Model, base_setup_s: f64, w: &Workload, o: &Opts) -> Outcome {
    println!("--- {} (seed {}, {} s) ---", w.name, o.seed, o.seconds);
    let outcome = match w.kind {
        Kind::Paper => crate::paper::workload(model, base_setup_s, w, o),
        Kind::InProcess(t) => in_process(model, base_setup_s, w, t, o),
        Kind::Wire(t) => crate::wire::workload(model, base_setup_s, w, t, o),
    };
    println!(
        "  output_digest {}  attempted {}  failed {}  correct {}",
        outcome.digest, outcome.attempted, outcome.failed, outcome.correct
    );
    for (name, value) in &outcome.metrics {
        println!(
            "  {name:<36} {value:>16.4} {}",
            unit_of(name).unwrap_or("?")
        );
    }
    outcome
}
