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
//! * `ACCEL_THREADS`, `ACCEL_FORCE_SCALAR`, `ACCEL_KV_PAGE` — read
//!   **once** per process into the default [`crate::Policy`]
//!   ([`crate::Policy::from_env`]; parsing in
//!   [`crate::Policy::from_lookup`]). The worker count and the INT8 tier
//!   are read per GEMM, so they are never re-parsed. Code that needs
//!   another configuration runs under [`crate::Policy::run`], on the
//!   calling thread; a serving engine keeps the policy it was built
//!   under.
//! * `ACCEL_ABFT`, `ACCEL_FAULT_SEED`, `ACCEL_PIN` — read **once** per
//!   process (a serving engine's `with_checker` builder overrides
//!   `ACCEL_ABFT`; `ACCEL_PIN` is read when a pool worker spawns).
//! * `ACCEL_PREFIX_CACHE`, `ACCEL_MAX_QUEUE` — parsed on **every** call
//!   (once per engine configuration, cheap), so tests and CI matrices
//!   can vary them without process-global caching.

use std::sync::OnceLock;

/// Worker-thread count; unset/empty/`0`/unparsable mean "use the
/// machine's available parallelism". See [`crate::Policy::from_lookup`].
pub const ENV_THREADS: &str = "ACCEL_THREADS";

/// Forces the scalar INT8 kernels (any non-empty value other than `0`).
/// See [`crate::Policy::from_lookup`].
pub const ENV_FORCE_SCALAR: &str = "ACCEL_FORCE_SCALAR";

/// Paged-KV page height in rows. See [`crate::Policy::from_lookup`].
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
pub(crate) fn flag(value: Option<String>) -> bool {
    value.is_some_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

/// The shared-prefix KV-cache byte budget from `ACCEL_PREFIX_CACHE`,
/// falling back to `default`; `0` (or an unparsable value) disables the
/// cache. Accepts a plain byte count or a `k`/`m` suffix
/// (case-insensitive, powers of 1024). Parsed on **every** call: it is
/// read once per engine configuration, and CI matrices / tests vary it
/// without process-global caching.
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
/// queue unbounded. Parsed on **every** call, like
/// [`prefix_cache_bytes`].
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

/// Whether pool workers should be pinned to cores: the `ACCEL_PIN`
/// opt-in, read once per process.
pub(crate) fn pin_enabled() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| flag(std::env::var(ENV_PIN).ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvpool::DEFAULT_PAGE_ROWS;
    use crate::Policy;

    #[test]
    fn kv_page_rows_falls_back_on_default() {
        // No ACCEL_KV_PAGE means the default page height.
        let unset = Policy::from_lookup(|_| None);
        assert_eq!(unset.kv_page_rows, DEFAULT_PAGE_ROWS);
        // The process default: the page-stress leg sets the variable
        // process-wide, in which case its positive value wins.
        let got = Policy::from_env().kv_page_rows;
        let want = std::env::var(ENV_KV_PAGE)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_PAGE_ROWS);
        assert_eq!(got, want);
    }
}
