//! `spine` — the stack's one benchmark.
//!
//! ```text
//! spine [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!       [--repeat <n>] [--out <file>] [--smoke]
//! spine compare <a.json> <b.json>
//! spine manifest
//! spine hostspeed [<seconds>]
//! ```
//!
//! With `--workload` it is the command `BENCHMARK.json` names: one
//! workload, one run, and the last line of standard output is the
//! result object. Without it, all six workloads run against one model
//! build (untraced, then traced when `--trace` is given) and every
//! metric prints by name with its unit. See `README.md`.

mod compare;
mod config;
mod env;
mod gen;
mod hostspeed;
mod hwmodel;
mod inproc;
mod measure;
mod paper;
mod probes;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod verify;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use serde::value::Value;

use crate::config::{workload, Workload, SETUP_REPS, WORKLOADS};
use crate::report::{Json, Outcome, RUN_SECONDS};
use crate::run::Opts;

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<String>,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: spine [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace [0|1]] \
         [--repeat <n>] [--out <file>] [--smoke]\n       spine compare <a.json> <b.json>\n       spine manifest\n       spine hostspeed [<seconds>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(workload(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => cli.out = Some(value("a path")?),
            "--smoke" => cli.smoke = true,
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke {
        cli.seconds = cli.seconds.min(RUN_SECONDS as f64 / 20.0);
    }
    Ok(cli)
}

fn print_json(v: &Value) {
    println!(
        "{}",
        serde_json::to_string(&Json(v.clone())).expect("value trees always print")
    );
}

fn benchmark(cli: &Cli, started: Instant, accel_env: &[(String, String)]) -> Result<bool, String> {
    env::guard(accel_env)?;
    let stamp = env::Stamp::collect(cli.seed);
    println!("{}", stamp.line());
    let cfg = config::model_config();
    println!(
        "set-up: model {} d_model={} d_ff={} h={} layers={} vocab={} max_len={}; engine {:?}; kv page {} rows",
        cfg.name,
        cfg.d_model,
        cfg.d_ff,
        cfg.h,
        cfg.n_layers,
        cfg.vocab,
        cfg.max_len,
        config::engine_config(),
        config::KV_PAGE_ROWS
    );
    let selected: Vec<&Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    // One workload named: exactly the run asked for. All workloads: the
    // untraced run, then the traced one when `--trace` is given.
    let passes = match (cli.workload.is_some(), cli.trace) {
        (true, traced) => vec![traced],
        (false, false) => vec![false],
        (false, true) => vec![false, true],
    };
    let before_build = started.elapsed().as_secs_f64();
    // `setup_s` is the median of several builds; a run that does not
    // report it (traced only, smoke) builds once.
    let reports_setup = passes.contains(&false) && !cli.smoke;
    let (model, build_s) = setup::build_timed(if reports_setup { SETUP_REPS } else { 1 });
    let base_setup_s = before_build + build_s;
    println!("model built: median {build_s:.3} s per build, {before_build:.3} s before the first");
    let mut outcomes: Vec<Outcome> = Vec::new();
    for rep in 0..cli.repeat.max(1) {
        for &traced in &passes {
            for w in &selected {
                let opts = Opts {
                    seed: cli.seed + rep,
                    seconds: cli.seconds,
                    traced,
                    smoke: cli.smoke,
                };
                outcomes.push(run::run(&model, base_setup_s, w, &opts));
            }
        }
    }

    if let Some(path) = &cli.out {
        let doc = Value::Object(vec![
            ("stamp".to_string(), Value::Str(stamp.line())),
            (
                "runs".to_string(),
                Value::Array(outcomes.iter().map(Outcome::record).collect()),
            ),
        ]);
        let text = serde_json::to_string_pretty(&Json(doc)).expect("value trees always print");
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("results -> {path}");
    }
    // The result objects come last; with one workload named, the last
    // line of standard output is that workload's.
    for o in &outcomes {
        print_json(&o.result_line());
    }
    Ok(outcomes.iter().all(|o| o.correct))
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Before anything can start a worker thread: the worker count is
    // read once per process.
    let accel_env = env::accel_env();
    env::pin_threads();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|breaches| breaches == 0),
            _ => Err(usage()),
        },
        Some("manifest") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&Json(report::manifest()))
                    .expect("value trees always print")
            );
            Ok(true)
        }
        Some("hostspeed") => match args.get(1).map_or(Ok(10.0), |s| s.parse::<f64>()) {
            Ok(seconds) => {
                hostspeed::watch(seconds);
                Ok(true)
            }
            Err(e) => Err(format!("hostspeed: {e}")),
        },
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse(&args).and_then(|cli| benchmark(&cli, started, &accel_env)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("spine: {message}");
            ExitCode::from(2)
        }
    }
}
