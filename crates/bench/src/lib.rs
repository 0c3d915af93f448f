//! The experiments behind the `report` binary, and what renders and
//! checks their artifacts.
//!
//! Every experiment of the paper's evaluation (E1–E16) and of the
//! extensions E18 and E19 is a function in [`EXPERIMENTS`] that returns
//! its artifacts: the rows it writes to `results/<name>.json`, or the
//! files [`accel::rtl::emit_all`] writes under `rtl/`. One renderer,
//! [`render`], turns an experiment's artifacts into text tables whose
//! headers are the JSON keys; the same text is printed on the terminal
//! and kept in EXPERIMENTS.md between `<!-- report:<name> -->` and
//! `<!-- /report:<name> -->`. [`check`] regenerates every deterministic
//! experiment in memory and names each committed file that differs.
//! The serving experiments (E17, E20, E21) are `spine` workloads under
//! `benchmark/`; see DESIGN.md's experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

use std::fs;
use std::ops::Range;
use std::path::Path;

use experiments::*;
use serde::value::Value;
use serde::Serialize;

/// One experiment: a name on the command line and in the EXPERIMENTS.md
/// markers, and the function that regenerates its artifacts.
pub struct Experiment {
    /// Command-line and marker name.
    pub name: &'static str,
    /// Experiment id in DESIGN.md's index and EXPERIMENTS.md.
    pub id: &'static str,
    /// Regenerated by a bare `report` and held by [`check`]: false for
    /// the two experiments that train models or time the host.
    pub checked: bool,
    /// Computes the artifacts.
    pub run: fn() -> Output,
}

/// What one experiment produces.
pub struct Output {
    /// Files under the workspace root.
    artifacts: Vec<Artifact>,
    /// Derived figures that are not a JSON field, one line each.
    notes: Vec<String>,
}

impl Output {
    fn new(artifacts: Vec<Artifact>) -> Self {
        Self {
            artifacts,
            notes: Vec::new(),
        }
    }

    fn note(mut self, line: String) -> Self {
        self.notes.push(line);
        self
    }
}

/// One generated file.
enum Artifact {
    /// `results/<name>.json`: an experiment's serialized rows.
    Json(&'static str, Value),
    /// `rtl/<file>`: emitted Verilog or golden vectors.
    Rtl(String, String),
}

impl Artifact {
    /// Path relative to the workspace root.
    fn path(&self) -> String {
        match self {
            Artifact::Json(name, _) => format!("results/{name}.json"),
            Artifact::Rtl(file, _) => format!("rtl/{file}"),
        }
    }

    /// The file's contents.
    fn contents(&self) -> String {
        match self {
            Artifact::Json(_, value) => {
                serde_json::to_string_pretty(value).expect("serialize rows")
            }
            Artifact::Rtl(_, text) => text.clone(),
        }
    }
}

fn json<T: Serialize>(name: &'static str, rows: &T) -> Artifact {
    Artifact::Json(name, rows.to_value())
}

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", "E1", true, table1),
    exp("eq3_ratio", "E2", true, eq3_ratio),
    exp("partition_check", "E3", true, partition_check),
    exp("cycle_counts", "E4", true, cycle_counts),
    exp("softmax_module", "E5", true, softmax_module),
    exp("layernorm_latency", "E6", true, layernorm_latency),
    exp("table2", "E7/E10", true, table2),
    exp("table3", "E8", true, table3),
    exp("quantization", "E9", false, quantization),
    exp("scaling", "E11", true, scaling),
    exp("full_inference", "E12", true, full_inference),
    exp("quant_scheme", "E13", true, quant_scheme),
    exp("gpu_crossover", "E14", true, gpu_crossover),
    exp("emit_rtl", "E15", true, emit_rtl),
    exp("pareto", "E16", true, pareto),
    exp("faults_overhead", "E18", false, faults_overhead),
    exp("backends", "E19", true, backends),
];

const fn exp(
    name: &'static str,
    id: &'static str,
    checked: bool,
    run: fn() -> Output,
) -> Experiment {
    Experiment {
        name,
        id,
        checked,
        run,
    }
}

/// The workspace root, whatever the invoking directory (`cargo run`
/// starts in the invocation directory, `cargo bench` in the package
/// directory).
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/bench")
}

/// Writes a JSON result under the workspace root's `results/<name>.json`.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_json<T: Serialize>(name: &'static str, value: &T) {
    write_file(&json(name, value));
}

fn write_file(artifact: &Artifact) {
    let path = root().join(artifact.path());
    fs::create_dir_all(path.parent().expect("artifact directory"))
        .expect("create artifact directory");
    fs::write(&path, artifact.contents()).expect("write artifact");
    println!("[results] wrote {}", path.display());
}

/// Renders an aligned text table (also a markdown table).
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[&str]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(&widths) {
            line.push_str(&format!(" {c:>w$} |"));
        }
        line.push('\n');
        line
    };
    let mut out = fmt_row(headers);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(
        &sep.iter().map(String::as_str).collect::<Vec<_>>(),
    ));
    for row in rows {
        out.push_str(&fmt_row(
            &row.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
    }
    out
}

/// One table cell: integers, strings and booleans as they are, other
/// numbers to four significant digits (no trailing zeros), `null` as `-`.
fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(x) if *x == 0.0 => "0".into(),
        Value::F64(x) => {
            let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
            let s = format!("{x:.decimals$}");
            if s.contains('.') {
                s.trim_end_matches('0').trim_end_matches('.').into()
            } else {
                s
            }
        }
        Value::Str(s) => s.clone(),
        Value::Array(_) | Value::Object(_) => "…".into(),
    }
}

/// A table over an array of objects: one column per key of the first.
fn rows_table(rows: &[Value]) -> String {
    let keys: Vec<&str> = match rows.first() {
        Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            keys.iter()
                .map(|k| row.get(k).map_or("-".into(), cell))
                .collect()
        })
        .collect();
    render_table(&keys, &cells)
}

/// `key | value` rows of an object's scalar fields, nested objects as
/// dotted keys.
fn flatten(prefix: &str, v: &Value, out: &mut Vec<Vec<String>>) {
    match v {
        Value::Object(fields) => {
            for (k, f) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, f, out);
            }
        }
        _ => out.push(vec![prefix.to_string(), cell(v)]),
    }
}

/// The text of one experiment's output: each JSON artifact as tables
/// (an array of objects is one table; an object gives one table per
/// array field and one `field | value` table of the rest), the RTL files
/// as one `file | bytes | lines` table, then the notes as a list.
pub fn render(out: &Output) -> String {
    let mut text = String::new();
    let mut files = Vec::new();
    for artifact in &out.artifacts {
        let path = artifact.path();
        match artifact {
            Artifact::Json(_, Value::Array(rows)) => {
                text += &format!("`{path}`\n\n{}\n", rows_table(rows));
            }
            Artifact::Json(_, value) => {
                let mut scalars = Vec::new();
                if let Value::Object(fields) = value {
                    for (k, f) in fields {
                        match f {
                            Value::Array(rows) => {
                                text += &format!("`{path}` {k}\n\n{}\n", rows_table(rows));
                            }
                            _ => flatten(k, f, &mut scalars),
                        }
                    }
                }
                if !scalars.is_empty() {
                    text += &format!(
                        "`{path}`\n\n{}\n",
                        render_table(&["field", "value"], &scalars)
                    );
                }
            }
            Artifact::Rtl(_, contents) => files.push(vec![
                path,
                contents.len().to_string(),
                contents.lines().count().to_string(),
            ]),
        }
    }
    if !files.is_empty() {
        text += &format!("{}\n", render_table(&["file", "bytes", "lines"], &files));
    }
    for note in &out.notes {
        text += &format!("- {note}\n");
    }
    text
}

/// Where experiment `name`'s generated block sits in `doc`, if its
/// markers are there.
fn block(doc: &str, name: &str) -> Option<Range<usize>> {
    let open = format!("<!-- report:{name} -->\n");
    let start = doc.find(&open)? + open.len();
    Some(start..start + doc[start..].find(&format!("<!-- /report:{name} -->"))?)
}

/// Writes an experiment's artifacts under the workspace root and
/// replaces its block in EXPERIMENTS.md (an experiment without markers
/// there has no block).
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write(exp: &Experiment, out: &Output) {
    for artifact in &out.artifacts {
        write_file(artifact);
    }
    let path = root().join("EXPERIMENTS.md");
    let mut doc = fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    if let Some(range) = block(&doc, exp.name) {
        doc.replace_range(range, &render(out));
        fs::write(&path, doc).expect("write EXPERIMENTS.md");
    }
}

/// Regenerates every checked experiment in memory and returns what
/// differs from the committed files: each artifact path whose bytes
/// differ (or that is missing), and `EXPERIMENTS.md (report:<name>)`
/// for each generated block that differs or whose markers are missing.
/// Writes nothing.
pub fn check() -> Vec<String> {
    let doc = fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap_or_default();
    let mut stale = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| e.checked) {
        let out = (exp.run)();
        for artifact in &out.artifacts {
            let committed = fs::read(root().join(artifact.path())).unwrap_or_default();
            if committed != artifact.contents().as_bytes() {
                stale.push(artifact.path());
            }
        }
        if block(&doc, exp.name).map(|r| &doc[r]) != Some(render(&out).as_str()) {
            stale.push(format!("EXPERIMENTS.md (report:{})", exp.name));
        }
    }
    stale
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
    fn cells_share_one_number_format() {
        let f = |x: f64| cell(&Value::F64(x));
        assert_eq!(f(471563.0), "471563");
        assert_eq!(f(282.29999999999995), "282.3");
        assert_eq!(f(2.941176), "2.941");
        assert_eq!(f(0.5), "0.5");
        assert_eq!(f(-0.0), "0");
        assert_eq!(cell(&Value::U64(20998)), "20998");
        assert_eq!(cell(&Value::Null), "-");
    }

    /// Every committed paper artifact — `results/*.json`, `rtl/*` and
    /// EXPERIMENTS.md's generated blocks — is what the experiments
    /// produce now: a hand-edited number or a datapath change that moves
    /// an artifact fails here. Regenerate with `report`.
    #[test]
    fn committed_artifacts_match_the_experiments() {
        let stale = check();
        assert!(
            stale.is_empty(),
            "stale artifacts (regenerate with `cargo run -p bench-harness --release --bin report`): {stale:?}"
        );
    }
}
