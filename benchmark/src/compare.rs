//! `spine compare <a.json> <b.json>`: is B no worse than A?
//!
//! Per workload and metric: the relative difference of the medians
//! against the metric's bound, in the direction that is worse; exact
//! metrics and output digests compared exactly, seed by seed. The A/A
//! acceptance check and every later PR review use this.

use std::collections::BTreeMap;

use serde::value::Value;

use crate::report::{Better, Json, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// Values of one metric on one workload, one per recorded run.
type Series = BTreeMap<(String, String), Vec<(u64, f64)>>;

struct Side {
    untraced: Series,
    traced: Series,
    digests: BTreeMap<(String, u64), String>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let Json(root) = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(runs)) = root.get("runs") else {
        return Err(format!("{path}: no \"runs\" array"));
    };
    let mut side = Side {
        untraced: Series::new(),
        traced: Series::new(),
        digests: BTreeMap::new(),
    };
    for run in runs {
        let text = |k: &str| match run.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("{path}: run without \"{k}\"")),
        };
        let int = |k: &str| {
            run.get(k)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("{path}: run without \"{k}\""))
        };
        let workload = text("workload")?;
        let seed = int("seed")? as u64;
        let traced = int("trace")? != 0;
        side.digests
            .insert((workload.clone(), seed), text("output_digest")?);
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: run without \"metrics\""));
        };
        let series = if traced {
            &mut side.traced
        } else {
            &mut side.untraced
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no value"))?;
            series
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(side)
}

fn values(v: &[(u64, f64)]) -> Vec<f64> {
    v.iter().map(|(_, x)| *x).collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two result files; prints one row per workload and metric
/// and returns the number of breaches.
pub fn compare(a_path: &str, b_path: &str) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut breaches = 0;
    println!(
        "{:<16} {:<34} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse%", "bound%", "IQR-A%"
    );
    for ((workload, name), va) in &a.untraced {
        let Some(vb) = b.untraced.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(m) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let (ma, mb) = (median(&values(va)), median(&values(vb)));
        let worse = worsening(ma, mb, m.better);
        let noise = spread(&values(va));
        let verdict = if worse <= m.bound {
            "ok"
        } else if noise > m.bound {
            "unresolved (A's own spread exceeds the bound)"
        } else {
            breaches += 1;
            "BREACH"
        };
        println!(
            "{workload:<16} {name:<34} {ma:>13.4} {mb:>13.4} {:>8.2} {:>7.1} {:>7.2}  {verdict}",
            worse * 100.0,
            m.bound * 100.0,
            noise * 100.0
        );
    }
    for ((workload, name), va) in &a.traced {
        let Some(vb) = b.traced.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(m) = PER_LAYER.iter().find(|m| m.name == name) else {
            continue;
        };
        if !m.exact {
            let (ma, mb) = (median(&values(va)), median(&values(vb)));
            if ma != 0.0 || mb != 0.0 {
                println!(
                    "{workload:<16} {name:<34} {ma:>13.4} {mb:>13.4} {:>8.2} {:>7} {:>7.2}  layer",
                    worsening(ma, mb, m.better) * 100.0,
                    "-",
                    spread(&values(va)) * 100.0
                );
            }
            continue;
        }
        for (seed, xa) in va {
            let Some((_, xb)) = vb.iter().find(|(s, _)| s == seed) else {
                continue;
            };
            if xa != xb {
                breaches += 1;
                println!("{workload:<16} {name:<34} {xa:>13} {xb:>13}  seed {seed}: exact metric differs  BREACH");
            }
        }
    }
    for ((workload, seed), da) in &a.digests {
        if let Some(db) = b.digests.get(&(workload.clone(), *seed)) {
            if da != db {
                breaches += 1;
                println!("{workload:<16} output_digest seed {seed}: {da} vs {db}  BREACH");
            }
        }
    }
    println!("{breaches} breach(es)");
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn breaches_are_counted_from_files() {
        let dir = crate::env::package_dir().join("out");
        std::fs::create_dir_all(&dir).expect("out dir");
        let file = |tag: &str, tok_s: f64, steps: f64, digest: &str| {
            let path = dir.join(format!("compare_test_{tag}.json"));
            let text = format!(
                "{{\"runs\":[{{\"workload\":\"decode_c1\",\"seed\":3,\"trace\":0,\"output_digest\":\"{digest}\",\
                 \"metrics\":{{\"tok_s\":{{\"value\":{tok_s},\"unit\":\"tok/s\"}}}}}},\
                 {{\"workload\":\"decode_c1\",\"seed\":3,\"trace\":1,\"output_digest\":\"{digest}\",\
                 \"metrics\":{{\"serving.steps\":{{\"value\":{steps},\"unit\":\"count\"}}}}}}]}}"
            );
            std::fs::write(&path, text).expect("write");
            path.to_string_lossy().into_owned()
        };
        let a = file("a", 400.0, 528.0, "aa");
        assert_eq!(compare(&a, &a), Ok(0));
        // tok_s halved breaches any bound the contract allows; a step
        // count and a digest that differ at one seed each breach exactly.
        let b = file("b", 200.0, 529.0, "bb");
        assert_eq!(compare(&a, &b), Ok(3));
        // Better is never a breach.
        let c = file("c", 440.0, 528.0, "aa");
        assert_eq!(compare(&a, &c), Ok(0));
        assert!(compare(&a, "/nonexistent.json").is_err());
    }
}
