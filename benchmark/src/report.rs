//! The metric registry — the single list `BENCHMARK.json`, the printed
//! output and `spine compare` all agree on — and the result records.

use serde::value::Value;

use crate::config::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}
use Better::{Higher, Lower};

/// An end-to-end metric: every workload reports it, never as 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric: printed by the traced run, 0 on workloads that
/// do not exercise it, no bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Must repeat exactly at one seed: a count, not a time.
    pub exact: bool,
}

/// The end-to-end metrics. A bound is at least three times the widest
/// quartile spread seen over ten seeds on any workload when the
/// benchmark was calibrated, floor 3%, ceiling 25% — and on the shared
/// 2-core calibration host every timing sits at the ceiling (see
/// README, "Calibration").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "tok_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "itl_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_ok_frac",
        unit: "frac",
        better: Higher,
        bound: 0.1,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}
const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: false,
    }
}
const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The per-layer metrics, grouped by the crate they observe.
pub const PER_LAYER: [PerLayer; 95] = [
    t("tensor.wgemm_m1_us", "us"),
    t("tensor.wgemm_m16_us", "us"),
    t("tensor.wgemm_m64_us", "us"),
    up("tensor.wgemm_m1_gops", "Gop/s"),
    up("tensor.wgemm_m16_gops", "Gop/s"),
    up("tensor.wgemm_m64_gops", "Gop/s"),
    exact("tensor.wgemm_bytes_per_layer", "B", Lower),
    t("tensor.gemm_f32_m1_512x8192_us", "us"),
    t("tensor.gemm_f32_m16_512x8192_us", "us"),
    t("tensor.kv_push_row_ns", "ns"),
    t("tensor.kv_row_read_ns", "ns"),
    t("tensor.kv_fork_us", "us"),
    t("tensor.kv_cow_copy_ns", "ns"),
    t("tensor.kv_release_us", "us"),
    t("tensor.head_dots_i8_ns_per_row", "ns"),
    t("tensor.scaled_add_i8_ns_per_row", "ns"),
    t("fixedmath.exp_unit_ns", "ns"),
    t("fixedmath.rsqrt_ns", "ns"),
    exact("graph.fused_ops_per_step", "count", Higher),
    exact("graph.elided_bytes_per_step", "B", Higher),
    t("graph.fuse_pass_us", "us"),
    t("transformer.outproj_m1_us", "us"),
    t("transformer.outproj_m16_us", "us"),
    t("transformer.embed_row_ns", "ns"),
    t("transformer.outproj_share_c16", "frac"),
    t("quantized.step_b1_ms", "ms"),
    t("quantized.step_b16_ms", "ms"),
    t("quantized.step_b16_ctx256_ms", "ms"),
    t("quantized.prefill_chunk64_ms", "ms"),
    t("quantized.encode_s32_ms", "ms"),
    t("quantized.start_session_ms", "ms"),
    t("quantized.fork_session_us", "us"),
    t("quantized.rollback_rows_us", "us"),
    t("quantized.softmax_ns_per_elem", "ns"),
    t("quantized.layernorm_ns_per_row", "ns"),
    t("quantized.attn_ctx_share_b16", "frac"),
    t("serving.step_decode_ms_p50", "ms"),
    t("serving.step_decode_ms_p99", "ms"),
    t("serving.step_prefill_ms_p50", "ms"),
    t("serving.step_admit_ms_p50", "ms"),
    exact("serving.steps", "count", Lower),
    exact("serving.mean_rows_per_step", "count", Higher),
    exact("serving.occupancy", "frac", Higher),
    exact("serving.prefill_rows", "count", Lower),
    t("serving.submit_us_p50", "us"),
    t("serving.drain_us_p50", "us"),
    t("serving.overhead_frac", "frac"),
    up("serving.step_time_frac", "frac"),
    exact("serving.prefix_hit_frac", "frac", Higher),
    exact("serving.prefix_rows_reused_frac", "frac", Higher),
    exact("serving.prefix_bytes_shared", "B", Higher),
    exact("serving.kv_in_use_mean_bytes", "B", Lower),
    exact("serving.kv_peak_bytes", "B", Lower),
    up("serving.prefill_rows_s", "1/s"),
    t("frontdoor.encode_submit_ns", "ns"),
    t("frontdoor.decode_frame_ns", "ns"),
    t("frontdoor.admission_offer_ns", "ns"),
    t("frontdoor.poll_once_idle_us", "us"),
    t("frontdoor.poll_once_busy_ms_p50", "ms"),
    t("frontdoor.wire_tax_ttft_ms", "ms"),
    t("frontdoor.gen_late_ms_p99", "ms"),
    t("frontdoor.bytes_per_token", "B"),
    t("frontdoor.shed", "count"),
    t("frontdoor.itl_ms_p99", "ms"),
    t("frontdoor.ttft_ms_p50_r025", "ms"),
    t("frontdoor.ttft_ms_p50_r050", "ms"),
    t("frontdoor.ttft_ms_p50_r075", "ms"),
    up("frontdoor.slo_ok_frac_r075", "frac"),
    up("frontdoor.max_rate_ok", "1/s"),
    t("accel.lower_mha_us", "us"),
    t("accel.lower_ffn_us", "us"),
    t("accel.run_mha_paper_ms", "ms"),
    t("accel.run_ffn_paper_ms", "ms"),
    t("accel.run_mha_tiled_ms", "ms"),
    t("accel.run_ffn_tiled_ms", "ms"),
    t("accel.run_ffn_circulant_ms", "ms"),
    t("accel.explore_default_ms", "ms"),
    exact("accel.sim_cycles_mha", "cycles", Lower),
    exact("accel.sim_cycles_ffn", "cycles", Lower),
    exact("accel.cycles_mha_tiled", "cycles", Lower),
    exact("accel.cycles_ffn_tiled", "cycles", Lower),
    exact("accel.cycles_ffn_circulant", "cycles", Lower),
    exact("accel.ddr_bytes_tiled", "B", Lower),
    exact("accel.sa_util_mha", "frac", Higher),
    exact("accel.sa_util_ffn", "frac", Higher),
    exact("accel.err_vs_paper_mha_pct", "%", Higher),
    exact("accel.err_vs_paper_ffn_pct", "%", Higher),
    up("accel.sim_blocks_s", "1/s"),
    exact("accel.hw_cycles_per_tok", "cycles", Lower),
    t("hwsim.schedule_mha_us", "us"),
    exact("hwsim.timeline_events", "count", Lower),
    up("hwsim.sim_cycles_per_host_us", "1/us"),
    t("request.ttft_ms_p90", "ms"),
    t("request.itl_ms_p95", "ms"),
    t("trace_overhead_frac", "frac"),
];

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// One line per workload: why it exists.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "paper_resblock" => "the paper's evaluation: MHA+FFN ResBlocks at s=64 through three accelerator backends; only accel/hwsim/fixedmath work, and the streamed unit is a ResBlock result",
        "decode_c1" => "closed loop, 1 client, no prompt, 32 tokens: m=1 weight streaming and per-step fixed costs dominate; batching, admission and KV paging do almost nothing",
        "decode_c16" => "closed loop, 16 clients in 4 waves, same requests: batched weight GEMMs, the 16x512x8192 FP32 output projection and per-request attention fan-out dominate",
        "prefill_long" => "closed loop, 8 clients, unshared 256-token prompts, 4 tokens: chunked-prefill GEMMs and KV page writes dominate; the prefix cache is on but never hits",
        "prefix_decode" => "closed loop, 16 clients in 4 waves, 256-token prompts sharing 230 tokens and the source: forks, COW tails and KV reads over 260-290-row contexts; prefill is mostly skipped",
        "wire_open" => "open loop over one TCP connection to FrontDoor, a fixed count of Poisson arrivals at a quarter of capacity, 16 tokens: frame codec, poll loop, admission and TCP are the largest share they will ever be",
        _ => "",
    }
}

/// A measured value with its registry name.
pub type Measured = (&'static str, f64);

/// The value measured for `name`, 0 when it was not measured.
pub fn value_of(metrics: &[Measured], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Outputs verified and no operation failed.
    pub correct: bool,
    /// Operations attempted (timed requests plus the verified sample).
    pub attempted: usize,
    /// Operations rejected, shed, expired, quarantined, torn or
    /// mismatching the reference.
    pub failed: usize,
    /// Digest of the verified outputs.
    pub digest: String,
    /// Values measured, by registry name.
    pub metrics: Vec<Measured>,
}

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

impl Outcome {
    /// The metrics object of the result line: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in registry order;
    /// a per-layer metric the workload did not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing or 0 — every workload
    /// must report every one of them.
    pub fn metrics_value(&self) -> Value {
        let names: Vec<&'static str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        Value::Object(
            names
                .into_iter()
                .map(|name| {
                    let value = value_of(&self.metrics, name);
                    assert!(
                        self.traced || value != 0.0,
                        "{}: end-to-end metric {name} was not measured",
                        self.workload
                    );
                    let unit = unit_of(name).expect("name comes from the registry");
                    (
                        name.to_string(),
                        obj(vec![("value", Value::F64(value)), ("unit", s(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Value {
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted as u64)),
            ("failed", Value::U64(self.failed as u64)),
            ("metrics", self.metrics_value()),
        ])
    }

    /// The record `--out` stores and `spine compare` reads.
    pub fn record(&self) -> Value {
        obj(vec![
            ("workload", s(self.workload)),
            ("seed", Value::U64(self.seed)),
            ("trace", Value::U64(u64::from(self.traced))),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted as u64)),
            ("failed", Value::U64(self.failed as u64)),
            ("output_digest", s(&self.digest)),
            ("metrics", self.metrics_value()),
        ])
    }
}

/// `BENCHMARK.json`, generated from the registry so the two cannot
/// drift (a unit test compares this with the committed file).
pub fn manifest() -> Value {
    let better = |b: Better| {
        s(match b {
            Higher => "higher",
            Lower => "lower",
        })
    };
    obj(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(why(w.name)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A [`Value`] that serde_json can print and parse.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        Ok(Json(v.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "s")));
        for (name, unit) in all {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            let why = why(w.name);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{}",
                w.name
            );
        }
        let runs = 4 + 22 * WORKLOADS.len();
        assert!((1..=60).contains(&RUN_SECONDS));
        // Around the timed section a run spends 6-10 s (three model
        // builds, warm-up window, output check); the two cargo builds
        // take under a minute each.
        assert!(runs as u64 * (RUN_SECONDS + 9) + 120 < 3420, "time cap");
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = crate::env::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let Json(committed) = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(committed, manifest());
    }

    #[test]
    fn result_line_prints_exactly_the_registered_names() {
        let mut o = Outcome {
            workload: "decode_c1",
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            digest: "0".into(),
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
        };
        let keys = |v: &Value| match v {
            Value::Object(e) => e.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("object"),
        };
        let line = o.result_line();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        let want: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(keys(line.get("metrics").expect("metrics")), want);

        o.traced = true;
        o.metrics = vec![("serving.steps", 12.0)];
        let m = o.metrics_value();
        let want: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(keys(&m), want);
        let read = |name: &str| {
            m.get(name)
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(read("serving.steps"), Some(12.0));
        assert_eq!(read("tensor.kv_fork_us"), Some(0.0));
    }
}
