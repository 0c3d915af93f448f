//! Environment stamp and the guards that refuse a run whose numbers
//! would not be comparable.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::config::THREADS;

/// Where this package lives (compile-time; the binary is always built
/// in the checkout it measures).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What every output is stamped with.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// `rustc -V`.
    pub rustc: String,
    /// CPU features the kernels dispatch on, as detected at run time.
    pub cpu_features: Vec<&'static str>,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `tensor::par::threads()` after the harness pinned it.
    pub threads: usize,
    /// `tensor::simd::simd_enabled()`.
    pub simd: bool,
    /// Every `ACCEL_*` variable in the environment.
    pub accel_env: Vec<(String, String)>,
    /// The workload seed.
    pub seed: u64,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!("sse4.1", "avx2", "fma", "avx512f", "avx512bw", "avx512vnni");
    }
    found
}

/// `ACCEL_*` variables currently set, sorted by name.
pub fn accel_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ACCEL_"))
        .collect();
    vars.sort();
    vars
}

impl Stamp {
    /// Collects the stamp. Call after [`pin_threads`].
    pub fn collect(seed: u64) -> Self {
        Self {
            git_sha: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(package_dir()),
            )
            .unwrap_or_else(|| "unknown".into()),
            rustc: first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            cpu_features: cpu_features(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            threads: tensor::par::threads(),
            simd: tensor::simd::simd_enabled(),
            accel_env: accel_env(),
            seed,
        }
    }

    /// One-line rendering, printed at the top of every output.
    pub fn line(&self) -> String {
        let env: Vec<String> = self
            .accel_env
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "stamp: git={} rustc=\"{}\" cpu=[{}] nproc={} threads={} simd={} env=[{}] seed={}",
            self.git_sha,
            self.rustc,
            self.cpu_features.join(","),
            self.nproc,
            self.threads,
            self.simd,
            env.join(","),
            self.seed
        )
    }
}

/// The normalised `key = value` lines of a manifest's
/// `[profile.release]` table (comments and blank lines dropped).
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

fn check_profiles(package: &Path) -> Result<(), String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let ours = release_profile(&read(package.join("Cargo.toml"))?);
    let root = release_profile(&read(package.join("../Cargo.toml"))?);
    if ours == root {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs from the root manifest's: {ours:?} vs {root:?}"
        ))
    }
}

/// Pins the worker count before the first parallel call. `ACCEL_THREADS`
/// is read once per process, so this must run first in `main`.
pub fn pin_threads() {
    std::env::set_var(tensor::envcfg::ENV_THREADS, THREADS.to_string());
}

/// Refuses a debug build, stray `ACCEL_*` settings, and a release
/// profile that drifted from the root manifest's. `accel_env` is the
/// environment as it was **before** [`pin_threads`].
pub fn guard(accel_env: &[(String, String)]) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: run with --release".into());
    }
    for (k, v) in accel_env {
        let pinned = k == tensor::envcfg::ENV_THREADS && v.trim() == THREADS.to_string();
        if !pinned {
            return Err(format!(
                "{k}={v} is set: the benchmark runs with ACCEL_THREADS={THREADS} and no other ACCEL_* variable"
            ));
        }
    }
    check_profiles(&package_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_parsed_and_compared() {
        let root = "[package]\nname = \"x\"\n\n# why\n[profile.release]\nlto = \"thin\"\n\n[profile.bench]\nlto = \"fat\"\n";
        let ours = "[profile.release]\n# copied\nlto=\"thin\"\n";
        assert_eq!(release_profile(root), vec!["lto=\"thin\"".to_string()]);
        assert_eq!(release_profile(root), release_profile(ours));
        assert!(release_profile("[package]\n").is_empty());
        assert_ne!(
            release_profile(root),
            release_profile("[profile.release]\nlto = \"thin\"\nopt-level = 2\n")
        );
    }

    #[test]
    fn this_package_matches_the_root_manifest() {
        check_profiles(&package_dir()).expect("profiles agree");
    }

    #[test]
    fn stray_accel_variables_are_refused() {
        let stray = vec![("ACCEL_NO_FUSE".to_string(), "1".to_string())];
        // A debug test build is refused first; either way it is an error.
        assert!(guard(&stray).is_err());
        if !cfg!(debug_assertions) {
            assert!(guard(&[("ACCEL_THREADS".into(), "2".into())]).is_err());
            assert!(guard(&[("ACCEL_THREADS".into(), "1".into())]).is_ok());
        }
    }
}
