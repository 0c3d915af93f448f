//! Shared helpers for the experiment binaries (`src/bin/*`): aligned
//! text tables and JSON result dumps under `results/`.
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! section or of an extension; see DESIGN.md's experiment index (the
//! binaries are E1–E16, E18 and E19 — the serving experiments E17, E20
//! and E21 are `spine` workloads under `benchmark/`) and EXPERIMENTS.md
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;

use serde::Serialize;

/// Renders an aligned text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:>w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(sep.iter().map(|s| s.as_str()).collect(), &widths));
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
    }
    out
}

/// Writes a JSON result artifact under the workspace root's
/// `results/<name>.json`, regardless of the invoking CWD (`cargo run`
/// starts in the invocation directory, `cargo bench` in the package
/// directory — anchoring on `CARGO_MANIFEST_DIR` makes both land in the
/// same tracked `results/`).
///
/// # Panics
///
/// Panics on I/O or serialization failure — experiment binaries should
/// fail loudly.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/bench");
    let dir = root.join("results");
    fs::create_dir_all(&dir).expect("create results/ directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    fs::write(&path, json).expect("write result file");
    println!("[results] wrote {}", path.display());
}

/// Formats a float with fixed precision, for table cells.
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("| longer |"));
        let widths: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn fmt_f_precision() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(10.0, 1), "10.0");
    }
}
