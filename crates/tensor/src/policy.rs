//! The kernel and page policy: how many workers a GEMM splits over, the
//! fastest INT8 tier it may dispatch to, and the KV page height a new
//! arena takes.
//!
//! A [`Policy`] is a plain `Copy` value. The process default is read
//! once from `ACCEL_THREADS`, `ACCEL_FORCE_SCALAR` and `ACCEL_KV_PAGE`
//! ([`Policy::from_env`]); [`Policy::run`] makes another one active on
//! the calling thread for the length of a closure, and the persistent
//! pool runs every task of a batch under the policy of the thread that
//! dispatched it. A serving engine captures the policy it was built
//! under and steps under it, so two engines on two threads never see
//! each other's settings, and a test sweeps configurations without a
//! process-wide switch or a lock. Every configuration gives
//! bit-identical results; the policy only ever changes speed and page
//! layout.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::envcfg::{flag, ENV_FORCE_SCALAR, ENV_KV_PAGE, ENV_THREADS};
use crate::kvpool::DEFAULT_PAGE_ROWS;
use crate::simd::Int8Kernel;

/// One configuration of the kernels and the KV pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Worker count of the parallel kernels ([`crate::par::threads`]
    /// clamps it to `1..=256`).
    pub threads: usize,
    /// Fastest INT8 tier the kernels may use; [`crate::simd::int8_kernel`]
    /// is the smaller of this and what the hardware offers.
    pub int8_cap: Int8Kernel,
    /// Page height of the KV arenas built under this policy.
    pub kv_page_rows: usize,
}

thread_local! {
    /// The policy [`Policy::run`] made active on this thread, if any.
    static CURRENT: Cell<Option<Policy>> = const { Cell::new(None) };
}

impl Policy {
    /// The process default: [`Policy::from_lookup`] over the environment,
    /// read once, on first use.
    pub fn from_env() -> Self {
        static DEFAULT: OnceLock<Policy> = OnceLock::new();
        *DEFAULT.get_or_init(|| Self::from_lookup(|var| std::env::var(var).ok()))
    }

    /// Parses the three kernel variables through `lookup` (`None` =
    /// unset). `ACCEL_THREADS` and `ACCEL_KV_PAGE` take a positive
    /// integer, surrounding whitespace allowed; anything else leaves the
    /// machine's available parallelism and [`DEFAULT_PAGE_ROWS`]. The
    /// worker count is clamped to 256. `ACCEL_FORCE_SCALAR` caps the tier
    /// at [`Int8Kernel::Scalar`] when set to anything but empty or `0`.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let positive = |var| {
            lookup(var)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        Self {
            threads: positive(ENV_THREADS).map_or_else(crate::par::default_threads, |t| {
                t.min(crate::par::MAX_THREADS)
            }),
            int8_cap: if flag(lookup(ENV_FORCE_SCALAR)) {
                Int8Kernel::Scalar
            } else {
                Int8Kernel::Amx
            },
            kv_page_rows: positive(ENV_KV_PAGE).unwrap_or(DEFAULT_PAGE_ROWS),
        }
    }

    /// The policy active on the calling thread, or the process default
    /// when none is.
    #[inline]
    pub fn current() -> Self {
        CURRENT.get().unwrap_or_else(Self::from_env)
    }

    /// Runs `f` with this policy active on the calling thread, and
    /// restores the thread's previous one afterwards, panic or not.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Policy>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(self.0);
            }
        }
        let _restore = Restore(CURRENT.replace(Some(self)));
        f()
    }

    /// The configurations an identity suite runs under: a pairwise cover
    /// of tier {Scalar, Vnni, Amx} × workers {1, 2} × page rows {4, 16}
    /// — six policies in which every pair of values meets. Each tier is
    /// limited to what the host has, so the list holds the tiers that
    /// really run; duplicates that limit makes are dropped.
    pub fn sweep() -> Vec<Self> {
        use Int8Kernel::{Amx, Scalar, Vnni};
        let host = crate::simd::host_kernel();
        let mut out: Vec<Self> = Vec::new();
        for (tier, threads, kv_page_rows) in [
            (Scalar, 1, 4),
            (Scalar, 2, 16),
            (Vnni, 1, 16),
            (Vnni, 2, 4),
            (Amx, 1, 4),
            (Amx, 2, 16),
        ] {
            let p = Self {
                threads,
                int8_cap: tier.min(host),
                kv_page_rows,
            };
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par, simd};

    #[test]
    fn from_lookup_parses_the_kernel_variables() {
        let host = par::default_threads();
        let page = DEFAULT_PAGE_ROWS;
        let scalar = Int8Kernel::Scalar;
        let amx = Int8Kernel::Amx;
        // (ACCEL_THREADS, ACCEL_FORCE_SCALAR, ACCEL_KV_PAGE) -> policy.
        for (vars, want) in [
            ((None, None, None), (host, amx, page)),
            ((Some(""), Some(""), Some("")), (host, amx, page)),
            ((Some("0"), Some("0"), Some("0")), (host, amx, page)),
            ((Some("x2"), Some("1"), Some("-4")), (host, scalar, page)),
            ((Some(" 3 "), Some(" yes "), Some("\t4\n")), (3, scalar, 4)),
            ((Some("100000"), Some(" 0 "), Some("64")), (256, amx, 64)),
        ] {
            let (t, s, k) = vars;
            let got = Policy::from_lookup(|var| {
                match var {
                    ENV_THREADS => t,
                    ENV_FORCE_SCALAR => s,
                    ENV_KV_PAGE => k,
                    _ => None,
                }
                .map(String::from)
            });
            let got = (got.threads, got.int8_cap, got.kv_page_rows);
            assert_eq!(got, want, "{vars:?}");
        }
    }

    #[test]
    fn every_pool_task_runs_under_the_dispatching_policy() {
        let policy = Policy {
            threads: 2,
            int8_cap: Int8Kernel::Scalar,
            ..Policy::current()
        };
        // Two tasks that wait for each other run on two threads, so at
        // least one of them runs on a pool worker.
        let both = std::sync::Barrier::new(2);
        let seen = policy.run(|| {
            par::map_with_threads(&[0, 1], 2, |_| {
                both.wait();
                (simd::int8_kernel(), par::threads(), Policy::current())
            })
        });
        assert_eq!(seen, vec![(Int8Kernel::Scalar, 2, policy); 2]);
    }

    #[test]
    fn a_panic_inside_run_restores_the_previous_policy() {
        let before = Policy::current();
        let outer = Policy {
            threads: 3,
            ..before
        };
        outer.run(|| {
            let caught = std::panic::catch_unwind(|| {
                Policy {
                    threads: 5,
                    ..outer
                }
                .run(|| panic!("inside run"))
            });
            assert!(caught.is_err());
            assert_eq!(Policy::current(), outer);
        });
        assert_eq!(Policy::current(), before);
    }
}
