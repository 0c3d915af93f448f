//! The fixed set-up: one model, one deployment config, six workloads.
//!
//! Nothing here is a knob. Every later performance claim cites these
//! workloads and metrics by name, so a value changes only in a PR whose
//! sole purpose is to change the benchmark.

use serving::EngineConfig;
use transformer::config::ModelConfig;

/// Seed of the FP32 weights.
pub const MODEL_SEED: u64 = 0x0D00_DE06;
/// Seed of the calibration corpus.
pub const CALIB_SEED: u64 = 0x00CA_11B6;
/// Calibration sentence pairs replayed through the FP32 layers.
pub const CALIB_PAIRS: usize = 4;
/// Source lengths are uniform in this range (inclusive) everywhere.
pub const SRC_LEN: (usize, usize) = (16, 48);
/// Rows per KV page; `ACCEL_KV_PAGE` must be unset so this default holds.
pub const KV_PAGE_ROWS: usize = tensor::kvpool::DEFAULT_PAGE_ROWS;
/// The only value of `ACCEL_THREADS` the benchmark runs at: tok/s is
/// per core, and on a 2-core host one worker was faster and steadier
/// than two.
pub const THREADS: usize = 1;
/// How many times a run builds the model; `setup_s` takes the median.
pub const SETUP_REPS: usize = 3;
/// Share of requests sent that must meet both latency limits for a
/// rate to count as sustained (`frontdoor.max_rate_ok`).
pub const SLO_SHARE: f64 = 0.95;

/// `base6L`: the Transformer-base ResBlock shape at full depth and with
/// a real vocabulary, so the FP32 output projection carries its weight.
pub fn model_config() -> ModelConfig {
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

/// The one deployment config every serving workload runs under.
pub fn engine_config() -> EngineConfig {
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

/// How a workload's requests reach the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each client submits its next request when the previous finishes.
    /// The clients start in `waves` equal groups, `ceil(max_new /
    /// waves)` engine steps apart, and equal-length requests keep a wave
    /// together from then on. The wave count decides which share of a
    /// request's inter-token gaps contains another wave's admission, so
    /// it is chosen to keep that share away from the percentiles the
    /// benchmark reports (README, "Calibration").
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Groups the clients start (and then stay) in.
        waves: usize,
    },
    /// Poisson arrivals at a fixed rate, regardless of completions.
    Open {
        /// Requests per second.
        rate_rps: f64,
    },
}

/// Shape of one workload's requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Arrival process.
    pub arrival: Arrival,
    /// Target-side prompt length (0 = none).
    pub prompt_len: usize,
    /// Leading prompt tokens (and the source sentence) every request
    /// shares; 0 = nothing shared.
    pub shared_prefix: usize,
    /// Tokens generated per request.
    pub max_new: usize,
    /// Requests whose completion closes one measurement window.
    pub window_requests: usize,
    /// Requests of the first timed window replayed alone for the
    /// output check.
    pub verify_sample: usize,
    /// Latency limits in milliseconds: three times the median TTFT and
    /// three times the p95 inter-token gap measured when the benchmark
    /// was calibrated (see README, "Calibration").
    pub slo_ms: (f64, f64),
}

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// ResBlocks through the accelerator backends; no serving stack.
    Paper,
    /// The harness thread calls the engine directly.
    InProcess(Traffic),
    /// One TCP connection to a `FrontDoor`.
    Wire(Traffic),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it drives and how.
    pub kind: Kind,
}

/// Capacity of `wire_open`'s request shape under a closed loop of 16
/// clients, measured on the calibration host; the open-loop rates are
/// fractions of it. The workload itself runs at a quarter: a request
/// served alone keeps the engine busy for 40 ms, so even at a third the
/// engine is busy four fifths of the time, and a slower hour raises the
/// batch size along with the step time (README, "Calibration").
pub const WIRE_CAPACITY_RPS: f64 = 62.0;

/// `paper_resblock` streams ResBlock results instead of tokens, and a
/// sweep's first result may be any of the five blocks, so both limits
/// (first result, gap between results) are three times the slowest
/// block's p95.
pub const PAPER_SLO_MS: (f64, f64) = (320.0, 320.0);

/// The six workloads, in the order an all-workload run executes them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper_resblock",
        kind: Kind::Paper,
    },
    Workload {
        name: "decode_c1",
        kind: Kind::InProcess(Traffic {
            arrival: Arrival::Closed {
                clients: 1,
                waves: 1,
            },
            prompt_len: 0,
            shared_prefix: 0,
            max_new: 32,
            window_requests: 16,
            verify_sample: 32,
            slo_ms: (42.0, 9.5),
        }),
    },
    Workload {
        name: "decode_c16",
        kind: Kind::InProcess(Traffic {
            arrival: Arrival::Closed {
                clients: 16,
                waves: 4,
            },
            prompt_len: 0,
            shared_prefix: 0,
            max_new: 32,
            window_requests: 48,
            verify_sample: 32,
            slo_ms: (134.0, 134.0),
        }),
    },
    Workload {
        name: "prefill_long",
        kind: Kind::InProcess(Traffic {
            arrival: Arrival::Closed {
                clients: 8,
                waves: 8,
            },
            prompt_len: 256,
            shared_prefix: 0,
            max_new: 4,
            window_requests: 8,
            verify_sample: 6,
            slo_ms: (1170.0, 290.0),
        }),
    },
    Workload {
        name: "prefix_decode",
        kind: Kind::InProcess(Traffic {
            arrival: Arrival::Closed {
                clients: 16,
                waves: 4,
            },
            prompt_len: 256,
            shared_prefix: 230,
            max_new: 32,
            window_requests: 16,
            verify_sample: 6,
            slo_ms: (115.0, 115.0),
        }),
    },
    Workload {
        name: "wire_open",
        kind: Kind::Wire(Traffic {
            arrival: Arrival::Open {
                rate_rps: WIRE_CAPACITY_RPS / 4.0,
            },
            prompt_len: 0,
            shared_prefix: 0,
            max_new: 16,
            window_requests: 32,
            verify_sample: 32,
            slo_ms: (56.0, 41.0),
        }),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
