//! Single home for every `ACCEL_*` environment variable.
//!
//! Earlier revisions parsed these in whichever crate first needed them —
//! `ACCEL_THREADS` in [`crate::par`], `ACCEL_FORCE_SCALAR` in
//! [`crate::simd`], `ACCEL_KV_PAGE` in [`crate::kvpool`], and the fault
//! pair (`ACCEL_ABFT`, `ACCEL_FAULT_SEED`) in the `faults` crate — each
//! with its own `OnceLock`. This module consolidates the parsing (and
//! the caching policy, which differs per variable on purpose) so the
//! README table, the CI matrices, and the code agree on exactly one
//! semantics per variable.
//!
//! Caching policy:
//!
//! * `ACCEL_THREADS`, `ACCEL_FORCE_SCALAR`, `ACCEL_ABFT`,
//!   `ACCEL_FAULT_SEED`, `ACCEL_PIN` — read **once** per process (these
//!   sit on or gate hot paths; a `getenv` per GEMM is measurable).
//!   In-process retuning for tests goes through the override setters
//!   (`set_pin_override`,
//!   [`crate::par::set_thread_override`],
//!   [`crate::simd::set_simd_override`]; a serving engine's
//!   `with_checker` builder overrides `ACCEL_ABFT`).
//! * `ACCEL_KV_PAGE`, `ACCEL_PREFIX_CACHE` — parsed on **every** call
//!   (once per arena/engine construction, cheap), so tests and CI
//!   matrices can vary them without process-global caching.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Worker-thread count override; unset/empty/`0`/unparsable mean "use
/// the machine's available parallelism". See [`crate::par::threads`].
pub const ENV_THREADS: &str = "ACCEL_THREADS";

/// Forces the scalar INT8 kernels (any non-empty value other than `0`).
/// See [`crate::simd::simd_enabled`].
pub const ENV_FORCE_SCALAR: &str = "ACCEL_FORCE_SCALAR";

/// Paged-KV page height in rows. See [`crate::kvpool::page_rows_from_env`].
pub const ENV_KV_PAGE: &str = "ACCEL_KV_PAGE";

/// Enables the ABFT checker on the serving path (`1`/`true`/`on`,
/// case-insensitive). Read by `serving::ContinuousBatcher::new`.
pub const ENV_ABFT: &str = "ACCEL_ABFT";

/// Seed for the env-driven fault-injection campaigns (`u64`). Read by
/// their tests.
pub const ENV_FAULT_SEED: &str = "ACCEL_FAULT_SEED";

/// Opts in to pinning pool workers to cores (any non-empty value other
/// than `0`). Off by default: pinning helps dedicated serving boxes and
/// hurts oversubscribed CI runners.
pub const ENV_PIN: &str = "ACCEL_PIN";

/// Byte budget for the serving layer's shared-prefix KV cache (`0` or
/// unset disables it). See [`prefix_cache_bytes`].
pub const ENV_PREFIX_CACHE: &str = "ACCEL_PREFIX_CACHE";

/// Bound on the serving engine's waiting queue (`0` or unset =
/// unbounded). See [`max_queue`].
pub const ENV_MAX_QUEUE: &str = "ACCEL_MAX_QUEUE";

/// "Set and truthy" predicate shared by the boolean flags: any
/// non-empty value other than `0` counts as set.
fn flag(var: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
        Err(_) => false,
    }
}

/// `ACCEL_THREADS` as parsed from the environment: `Some(t)` for a
/// positive integer, `None` otherwise (caller supplies the default and
/// the clamp). Read once per process.
pub(crate) fn threads_raw() -> Option<usize> {
    static CELL: OnceLock<Option<usize>> = OnceLock::new();
    *CELL.get_or_init(|| match std::env::var(ENV_THREADS) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(t) if t > 0 => Some(t),
            _ => None,
        },
        Err(_) => None,
    })
}

/// Whether `ACCEL_FORCE_SCALAR` pins the scalar kernels. Read once per
/// process.
pub(crate) fn force_scalar() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| flag(ENV_FORCE_SCALAR))
}

/// The paged-KV page height from `ACCEL_KV_PAGE`, falling back to
/// `default`. Parsed on every call (see module docs).
pub(crate) fn kv_page_rows(default: usize) -> usize {
    match std::env::var(ENV_KV_PAGE) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default,
        },
        Err(_) => default,
    }
}

/// The shared-prefix KV-cache byte budget from `ACCEL_PREFIX_CACHE`,
/// falling back to `default`; `0` (or an unparsable value) disables the
/// cache. Accepts a plain byte count or a `k`/`m` suffix
/// (case-insensitive, powers of 1024). Parsed on **every** call, like
/// [`kv_page_rows`]: it is read once per engine construction, and CI
/// matrices / tests vary it without process-global caching.
pub fn prefix_cache_bytes(default: usize) -> usize {
    match std::env::var(ENV_PREFIX_CACHE) {
        Ok(v) => {
            let v = v.trim();
            let (digits, mult) = match v.as_bytes().last() {
                Some(b'k') | Some(b'K') => (&v[..v.len() - 1], 1024),
                Some(b'm') | Some(b'M') => (&v[..v.len() - 1], 1024 * 1024),
                _ => (v, 1),
            };
            match digits.parse::<usize>() {
                Ok(n) => n * mult,
                Err(_) => default,
            }
        }
        Err(_) => default,
    }
}

/// The serving engine's waiting-queue bound from `ACCEL_MAX_QUEUE`,
/// falling back to `default`; `0` (or an unparsable value) leaves the
/// queue unbounded. Parsed on **every** call, like [`kv_page_rows`]:
/// it is read once per engine construction, and tests / CI matrices
/// vary it without process-global caching.
pub fn max_queue(default: usize) -> usize {
    match std::env::var(ENV_MAX_QUEUE) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => default,
        },
        Err(_) => default,
    }
}

/// Whether `ACCEL_ABFT` asks for the checker (`1`/`true`/`on`,
/// case-insensitive). Read once per process; each serving engine reads
/// it once, when it is built.
pub fn abft_env() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var(ENV_ABFT).is_ok_and(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
    })
}

/// The seed from `ACCEL_FAULT_SEED`, if set to a parseable `u64`. Read
/// once per process.
pub fn fault_seed() -> Option<u64> {
    static CELL: OnceLock<Option<u64>> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var(ENV_FAULT_SEED)
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
}

/// In-process override for [`pin_enabled`]:
/// 0 = follow env, 1 = force off, 2 = force on.
static PIN_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether pool workers should be pinned to cores: an explicit
/// `set_pin_override` (tests only), else the `ACCEL_PIN` opt-in.
pub(crate) fn pin_enabled() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    match PIN_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *CELL.get_or_init(|| flag(ENV_PIN)),
    }
}

/// Overrides [`pin_enabled`] for this process (`None` restores the env
/// resolution). Note that workers already spawned keep the affinity
/// they were given; the override affects workers spawned afterwards.
#[cfg(test)]
pub(crate) fn set_pin_override(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    PIN_OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_page_rows_falls_back_on_default() {
        // Unset in the plain test environment (the CI page-stress leg
        // sets it process-wide, in which case the parsed value wins —
        // only check the contract that holds either way).
        let got = kv_page_rows(16);
        assert!(got > 0);
    }

    #[test]
    fn pin_override_wins_and_clears() {
        let base = pin_enabled();
        set_pin_override(Some(true));
        assert!(pin_enabled());
        set_pin_override(Some(false));
        assert!(!pin_enabled());
        set_pin_override(None);
        assert_eq!(pin_enabled(), base);
    }
}
