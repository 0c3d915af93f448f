//! Runs the experiments: regenerates the paper's tables and figures
//! (and the extensions) as `results/*.json`, `rtl/*` and EXPERIMENTS.md's
//! generated blocks, printing each as tables.
//!
//! ```text
//! report                    every deterministic experiment
//! report <name>...          the named ones, e.g. `report quantization`
//!                           (trains two models) or `report faults_overhead`
//!                           (wall-clock); neither is deterministic
//! report --check            regenerate in memory, name every committed
//!                           file that differs, exit 1 if one does
//! ```
//!
//! Run with `cargo run -p bench-harness --release --bin report -- <args>`.

use std::process::ExitCode;

use bench_harness::{check, render, write, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--check"] {
        let stale = check();
        for path in &stale {
            println!("differs: {path}");
        }
        if !stale.is_empty() {
            println!("regenerate with `report` and commit the result");
            return ExitCode::FAILURE;
        }
        println!("every committed artifact matches its experiment");
        return ExitCode::SUCCESS;
    }
    let mut chosen: Vec<&Experiment> = Vec::new();
    for name in &args {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(exp) => chosen.push(exp),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                eprintln!(
                    "unknown experiment `{name}`; the experiments are {} (or --check)",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if args.is_empty() {
        chosen = EXPERIMENTS.iter().filter(|e| e.checked).collect();
    }
    for exp in chosen {
        let out = (exp.run)();
        println!("\n=== {} ({}) ===\n\n{}", exp.name, exp.id, render(&out));
        write(exp, &out);
    }
    ExitCode::SUCCESS
}
