//! `paper_resblock` — the paper's own evaluation: one MHA and one FFN
//! ResBlock at `s = 64`, batch 1, lowered and run through
//! `accel::Backend` on the three backends. Only `accel`, `hwsim`,
//! `fixedmath` and the `quantized` reference do work here; `serving`
//! and `frontdoor` do none.
//!
//! A *request* is one sweep over the five (backend, block) pairs and the
//! streamed unit — what the other workloads call a token — is one
//! ResBlock result, so the same end-to-end metric names apply: `tok_s`
//! is ResBlock executions (lower + cycles + run) per host second,
//! `ttft_ms` the time to a sweep's first result, `itl_ms` the gap
//! between results.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use accel::backend::{Backend, BackendProgram, PaperBackend};
use accel::circulant::{circulantize_ffn, CirculantBackend, CIRC_SQNR_FLOOR_DB};
use accel::tiled::TiledBackend;
use graph::{ffn_graph, mha_graph, Graph};
use quantized::sqnr::sqnr_db;
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Mat;

use crate::config::{Workload, PAPER_SLO_MS};
use crate::gen::stream_seed;
use crate::hostspeed::Meter;
use crate::measure::{Flight, Window};
use crate::probes::Probe;
use crate::report::Outcome;
use crate::run::{end_to_end, p50, print_summary, request_tails, run_probes, write_trace, Opts};
use crate::setup::Model;
use crate::trace::{SpanId, Tracer};
use crate::verify::Digest;

/// Sequence length of the paper's evaluation point.
pub const S: usize = 64;
/// The paper's published cycle counts (Table III).
pub const PAPER_CYCLES: (u64, u64) = (21_344, 42_099);
/// Sweeps per measurement window: two rotations of the five pairs, so
/// every window holds each pair's first results and gaps equally often
/// and its medians are the middle pair's, not an accident of which pair
/// the window left out.
const WINDOW_SWEEPS: usize = 10;

/// Which ResBlock a sweep entry runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Multi-head attention ResBlock.
    Mha,
    /// Position-wise feed-forward ResBlock.
    Ffn,
}

/// One (backend, block) pair of the sweep.
pub struct Entry {
    /// Backend name.
    pub backend: &'static str,
    /// The block it runs.
    pub block: Block,
    /// Span name of its lowering.
    lower_span: &'static str,
    /// Span name of its bit-level run.
    run_span: &'static str,
    be: Box<dyn Backend>,
}

/// Result of one block execution.
pub struct Executed {
    /// Modelled cycles of the lowered program.
    pub cycles: u64,
    /// DDR bytes the program moves (tiled backend only).
    pub ddr_bytes: u64,
    /// Output codes.
    pub out: Mat<i8>,
}

/// The workload's fixed inputs and backends.
pub struct PaperBench<'m> {
    mha: &'m QuantMhaResBlock,
    ffn: &'m QuantFfnResBlock,
    /// FFN block with block-circulant weights (the FTRANS regime the
    /// circulant backend's SQNR floor is stated for).
    circ_ffn: QuantFfnResBlock,
    x_mha: Mat<i8>,
    x_ffn: Mat<i8>,
    x_circ: Mat<i8>,
    mha_graph: Graph,
    ffn_graph: Graph,
    /// The five (backend, block) pairs of a sweep.
    pub entries: Vec<Entry>,
    /// Sweeps run so far; sweep `k` starts at entry `k mod 5`.
    sweeps: Cell<usize>,
    meter: RefCell<Meter>,
}

impl<'m> PaperBench<'m> {
    /// Takes encoder layer 0's quantized blocks from the model and
    /// draws the `s x d_model` input activations from `seed`.
    pub fn new(model: &'m Model, seed: u64) -> Self {
        let layer = &model.quant.encoder_layers()[0];
        let d_model = layer.mha.graph_config().d_model;
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, "paper_resblock"));
        let x = tensor::init::normal(&mut rng, S, d_model, 1.0);
        let x_mha = layer.mha.quantize_input_q(&x);
        // The FFN block consumes what the MHA block produces.
        let x_ffn = layer.mha.forward(&x_mha, &x_mha, None).0;

        let circ = CirculantBackend::ftrans_default();
        let mut fp32 = model.enc0_ffn.clone();
        circulantize_ffn(&mut fp32, circ.config().block);
        // Calibration inputs are part of the set-up, not of the seed.
        let calib: Vec<Mat<f32>> = (0..2)
            .map(|i| tensor::init::normal(&mut StdRng::seed_from_u64(0xC1AC + i), S, d_model, 1.0))
            .collect();
        let circ_ffn = QuantFfnResBlock::from_f32(&fp32, &calib);
        let x_circ = circ_ffn.quantize_input(&x);

        let entry = |backend, block, run_span, be: Box<dyn Backend>| Entry {
            backend,
            block,
            lower_span: match block {
                Block::Mha => "accel.lower.mha",
                Block::Ffn => "accel.lower.ffn",
            },
            run_span,
            be,
        };
        let paper = || Box::new(PaperBackend::paper_default());
        let tiled = || Box::new(TiledBackend::kv260_default());
        Self {
            mha: &layer.mha,
            ffn: &layer.ffn,
            mha_graph: mha_graph(&layer.mha.graph_config()),
            ffn_graph: ffn_graph(&layer.ffn.graph_config()),
            circ_ffn,
            x_mha,
            x_ffn,
            x_circ,
            sweeps: Cell::new(0),
            meter: RefCell::new(Meter::start()),
            entries: vec![
                entry("paper", Block::Mha, "accel.run.paper.mha", paper()),
                entry("paper", Block::Ffn, "accel.run.paper.ffn", paper()),
                entry("tiled", Block::Mha, "accel.run.tiled.mha", tiled()),
                entry("tiled", Block::Ffn, "accel.run.tiled.ffn", tiled()),
                entry(
                    "circulant",
                    Block::Ffn,
                    "accel.run.circulant.ffn",
                    Box::new(circ),
                ),
            ],
        }
    }

    /// The FFN block and input an FFN entry runs: the model's own, or
    /// the block-circulant copy for the one inexact backend.
    fn ffn_case(&self, e: &Entry) -> (&QuantFfnResBlock, &Mat<i8>) {
        if e.be.caps().exact {
            (self.ffn, &self.x_ffn)
        } else {
            (&self.circ_ffn, &self.x_circ)
        }
    }

    /// Lowers, costs and runs one entry; each phase is a span.
    pub fn execute(&self, e: &Entry, tr: &mut Tracer, parent: Option<SpanId>) -> Executed {
        let prog = tr.span(e.lower_span, parent, None, || match e.block {
            Block::Mha => e.be.lower_mha(&self.mha_graph, S),
            Block::Ffn => e.be.lower_ffn(&self.ffn_graph),
        });
        let cycles = tr.span("accel.cycles", parent, None, || e.be.cycles(&prog, S));
        let out = tr.span(e.run_span, parent, None, || match (e.block, e.backend) {
            (Block::Mha, _) => {
                e.be.run_mha(&prog, self.mha, &self.x_mha, &self.x_mha, None)
            }
            (Block::Ffn, "circulant") => e.be.run_ffn(&prog, &self.circ_ffn, &self.x_circ),
            (Block::Ffn, _) => e.be.run_ffn(&prog, self.ffn, &self.x_ffn),
        });
        let ddr_bytes = match &prog {
            BackendProgram::Tiled(p) => p.ddr_bytes(),
            _ => 0,
        };
        Executed {
            cycles,
            ddr_bytes,
            out,
        }
    }

    /// One execution of every entry (untimed use: checks and counts).
    pub fn execute_all(&self) -> Vec<Executed> {
        let mut off = Tracer::new(false);
        self.entries
            .iter()
            .map(|e| self.execute(e, &mut off, None))
            .collect()
    }

    /// Checks every entry's output: exact backends must equal the
    /// `quantized` reference bit for bit, the circulant backend must
    /// stay above its documented SQNR floor. Returns
    /// `(checked, mismatching, digest of all outputs)`.
    pub fn verify(&self, runs: &[Executed]) -> (usize, usize, Digest) {
        let want_mha = self.mha.forward(&self.x_mha, &self.x_mha, None).0;
        let mut digest = Digest::default();
        let mut bad = 0;
        for (e, run) in self.entries.iter().zip(runs) {
            let ok = match e.block {
                Block::Mha => run.out == want_mha,
                Block::Ffn => {
                    let (block, x) = self.ffn_case(e);
                    let want = block.forward(x).0;
                    if e.be.caps().exact {
                        run.out == want
                    } else {
                        sqnr_db(
                            &block.dequantize_output(&want),
                            &block.dequantize_output(&run.out),
                        ) >= CIRC_SQNR_FLOOR_DB
                    }
                }
            };
            bad += usize::from(!ok);
            digest.push(run.cycles);
            for &c in run.out.as_slice() {
                digest.push(c as u8 as u64);
            }
        }
        (runs.len(), bad, digest)
    }

    /// Runs sweeps back to back (one client, closed loop) as whole
    /// windows until `seconds` of wall time have passed, or exactly
    /// `windows` windows when `seconds` is `None`. Each sweep starts one
    /// entry later than the last, so first results and gaps both sample
    /// all five pairs evenly: with one fixed first entry the TTFT tail
    /// was the jitter of a single 2.6 ms block (p90 spread 36% over ten
    /// seeds); rotated, p90 falls inside the slowest pair's bulk.
    pub fn run(&self, seconds: Option<f64>, windows: usize, tr: &mut Tracer) -> Vec<Window> {
        let started = Instant::now();
        let mut out = Vec::new();
        loop {
            let mut meter = self.meter.borrow_mut();
            let mut sampling = Duration::ZERO;
            let t0 = Instant::now();
            let mut w = Window::default();
            let span = tr.open("window", t0, None, None);
            for _ in 0..WINDOW_SWEEPS {
                let due = Instant::now();
                let req = tr.open("request", due, span, Some(w.completed as u64));
                let mut flight = Flight::new(due);
                let first = self.sweeps.replace(self.sweeps.get() + 1);
                let n = self.entries.len();
                for e in (0..n).map(|i| &self.entries[(first + i) % n]) {
                    std::hint::black_box(self.execute(e, tr, req));
                    flight.token(Instant::now(), PAPER_SLO_MS, &mut w);
                }
                tr.close(req, Instant::now());
                w.completed += 1;
                w.slo_ok += usize::from(flight.slo_ok);
                // Between sweeps no request's clock is running.
                if meter.due() {
                    sampling += meter.sample();
                }
            }
            let end = Instant::now();
            tr.close(span, end);
            w.wall_s = (end - t0 - sampling).as_secs_f64();
            meter.sample();
            w.speed = meter.take();
            out.push(w);
            let stop = match seconds {
                Some(s) => started.elapsed().as_secs_f64() >= s,
                None => out.len() >= windows,
            };
            if stop {
                return out;
            }
        }
    }
}

/// Median duration (ns) of the spans called `name`.
fn span_p50(tr: &Tracer, name: &str) -> f64 {
    p50(tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64))
}

/// Runs `paper_resblock`, untraced or traced.
pub fn workload(model: &Model, base_setup_s: f64, w: &Workload, o: &Opts) -> Outcome {
    let prep = Instant::now();
    let bench = PaperBench::new(model, o.seed);
    let mut tr = Tracer::new(false);
    let warm = bench.run(None, 1, &mut tr);
    let setup_s = base_setup_s + prep.elapsed().as_secs_f64() * warm[0].scale();

    // As in the serving workloads: a traced run alternates traced (A)
    // and untraced (B) windows.
    tr.set_enabled(o.traced);
    let started = Instant::now();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    if !o.traced {
        a = bench.run(Some(o.seconds), 0, &mut tr);
    }
    while o.traced && started.elapsed().as_secs_f64() < o.seconds {
        tr.set_enabled(true);
        a.extend(bench.run(None, 1, &mut tr));
        tr.set_enabled(false);
        b.extend(bench.run(None, 1, &mut tr));
    }
    let sa = print_summary(
        w.name,
        if o.traced { "traced" } else { "untraced" },
        &a,
        false,
    );

    let runs = bench.execute_all();
    let (checked, bad, digest) = bench.verify(&runs);
    let mut metrics = end_to_end(&sa, setup_s);
    if o.traced {
        let sb = print_summary(w.name, "untraced, for the tracing overhead", &b, false);
        let cycles = |backend: &str, block: Block| {
            bench
                .entries
                .iter()
                .zip(&runs)
                .find(|(e, _)| e.backend == backend && e.block == block)
                .map_or(0.0, |(_, r)| r.cycles as f64)
        };
        let err = |sim: f64, paper: u64| 100.0 * (sim - paper as f64) / paper as f64;
        let (mha, ffn) = (cycles("paper", Block::Mha), cycles("paper", Block::Ffn));
        metrics = vec![
            ("accel.lower_mha_us", span_p50(&tr, "accel.lower.mha") / 1e3),
            ("accel.lower_ffn_us", span_p50(&tr, "accel.lower.ffn") / 1e3),
            (
                "accel.run_mha_paper_ms",
                span_p50(&tr, "accel.run.paper.mha") / 1e6,
            ),
            (
                "accel.run_ffn_paper_ms",
                span_p50(&tr, "accel.run.paper.ffn") / 1e6,
            ),
            (
                "accel.run_mha_tiled_ms",
                span_p50(&tr, "accel.run.tiled.mha") / 1e6,
            ),
            (
                "accel.run_ffn_tiled_ms",
                span_p50(&tr, "accel.run.tiled.ffn") / 1e6,
            ),
            (
                "accel.run_ffn_circulant_ms",
                span_p50(&tr, "accel.run.circulant.ffn") / 1e6,
            ),
            ("accel.sim_cycles_mha", mha),
            ("accel.sim_cycles_ffn", ffn),
            ("accel.cycles_mha_tiled", cycles("tiled", Block::Mha)),
            ("accel.cycles_ffn_tiled", cycles("tiled", Block::Ffn)),
            (
                "accel.cycles_ffn_circulant",
                cycles("circulant", Block::Ffn),
            ),
            (
                "accel.ddr_bytes_tiled",
                runs.iter().map(|r| r.ddr_bytes).sum::<u64>() as f64,
            ),
            ("accel.err_vs_paper_mha_pct", err(mha, PAPER_CYCLES.0)),
            ("accel.err_vs_paper_ffn_pct", err(ffn, PAPER_CYCLES.1)),
            ("accel.sim_blocks_s", sa.tok_s),
            ("accel.hw_cycles_per_tok", (mha + ffn) / S as f64),
            ("trace_overhead_frac", 1.0 - sa.tok_s / sb.tok_s),
        ];
        metrics.extend(request_tails(&sa));
        println!(
            "  trace overhead: tok_s {:+.2}%  ttft_ms_p50 {:+.2}%",
            100.0 * (sb.tok_s / sa.tok_s - 1.0),
            100.0 * (sa.ttft_ms.0 / sb.ttft_ms.0 - 1.0)
        );
        let set: [Probe; 5] = [
            crate::probes::schedule,
            crate::probes::explore,
            crate::probes::fixed_units,
            crate::probes::softmax,
            crate::probes::layernorm,
        ];
        metrics.extend(run_probes(model, o, &set));
        write_trace(w.name, &tr);
    }
    Outcome {
        workload: w.name,
        seed: o.seed,
        traced: o.traced,
        correct: bad == 0,
        attempted: sa.counts.1 + checked,
        failed: bad,
        digest: digest.hex(),
        metrics,
    }
}
