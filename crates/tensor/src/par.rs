//! Parallel helpers shared by the GEMM kernels and the higher-level
//! crates (per-head attention fan-out, design-space sweeps), backed by a
//! **persistent worker pool**.
//!
//! Earlier revisions spawned fresh [`std::thread::scope`] threads on
//! every parallel GEMM; at decode batch sizes that spawn latency rivals
//! the multiply-accumulate work itself. The pool here is spawned lazily
//! on first use, kept warm for the life of the process, and fed through
//! a channel — mirroring how the paper's accelerator keeps its systolic
//! array powered between passes instead of re-configuring it per GEMM.
//!
//! Everything stays **deterministic**: each task writes to a
//! pre-assigned disjoint output region (or slot), so callers observe the
//! same values for any worker count (including 1) regardless of which
//! thread executes which task in what order. Small problems run inline
//! on the calling thread; nested parallel sections executing *inside* a
//! pool worker also run inline, which both avoids oversubscription and
//! makes pool-worker deadlock impossible (no worker ever blocks on
//! another batch).
//!
//! The worker count comes from [`threads`]: the calling thread's
//! [`Policy`], whose process default reads `ACCEL_THREADS` **once** and
//! otherwise falls back to [`std::thread::available_parallelism`]. A
//! batch's tasks run under the policy of the thread that dispatched it,
//! so a count or INT8 tier set with [`Policy::run`] holds on every pool
//! worker the batch reaches.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

use crate::Policy;

/// Environment variable setting the default worker-thread count.
///
/// Unset, empty, unparsable, or `0` all mean "use the machine's
/// available parallelism". Values are clamped to [`MAX_THREADS`]. Read
/// once per process; see [`Policy::from_lookup`].
pub use crate::envcfg::ENV_THREADS;

/// Upper bound on the worker-thread count (a safety clamp for absurd
/// `ACCEL_THREADS` values and the pool's maximum size).
pub(crate) const MAX_THREADS: usize = 256;

/// The worker-thread count used by the parallel kernels: the calling
/// thread's [`Policy::current`] count, in `1..=MAX_THREADS`.
#[inline]
pub fn threads() -> usize {
    Policy::current().threads.clamp(1, MAX_THREADS)
}

/// The machine's available parallelism, clamped to [`MAX_THREADS`].
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREADS)
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A type-erased task whose borrows have been extended to `'static` by
/// [`scope_run`] (sound because the dispatching call joins the whole
/// batch before returning).
type Job = Box<dyn FnOnce() + Send>;

/// One dispatched batch of tasks: a shared queue the caller *and* any
/// number of workers drain, the caller's policy every task runs under, a
/// remaining-task counter the caller waits on, and the first captured
/// worker panic (re-thrown at the caller).
struct Batch {
    tasks: Mutex<VecDeque<Job>>,
    policy: Policy,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    /// Pops and runs one task; returns `false` when the queue is empty.
    /// Panics are captured (first wins) so the queue always drains and
    /// the counter always reaches zero.
    fn run_next(&self) -> bool {
        let job = { self.tasks.lock().expect("pool batch queue").pop_front() };
        let Some(job) = job else { return false };
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.policy.run(job)));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().expect("pool panic slot");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut rem = self.remaining.lock().expect("pool batch counter");
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
        true
    }
}

/// The process-wide pool: an injector channel of batch handles and the
/// count of workers spawned so far (workers are added lazily up to the
/// parallelism a dispatch asks for, never torn down).
struct Pool {
    injector: Mutex<mpsc::Sender<Arc<Batch>>>,
    shared_rx: Arc<Mutex<mpsc::Receiver<Arc<Batch>>>>,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let (tx, rx) = mpsc::channel();
        Pool {
            injector: Mutex::new(tx),
            shared_rx: Arc::new(Mutex::new(rx)),
            spawned: Mutex::new(0),
        }
    })
}

thread_local! {
    /// Set for the lifetime of every pool worker thread: parallel
    /// sections started *from* a worker run inline (no oversubscription,
    /// no possibility of a worker blocking on another batch).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Pins the calling thread to one CPU via `sched_setaffinity(2)`.
///
/// Declared directly against glibc (which `std` already links) rather
/// than through a bindings crate, per the offline-deps policy. Failures
/// are ignored: affinity is a performance hint, never a correctness
/// requirement, and restricted environments (containers with a trimmed
/// cpuset, non-root sandboxes) may reject it.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn pin_to_core(core: usize) {
    /// Mirrors glibc's fixed 1024-bit `cpu_set_t`.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut set = CpuSet([0; 16]);
    let bit = core % (16 * 64);
    set.0[bit / 64] |= 1u64 << (bit % 64);
    // SAFETY: `set` is a valid, initialised cpu_set_t-sized mask and
    // pid 0 means "this thread"; the call reads the mask and touches no
    // other memory.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

impl Pool {
    /// Ensures at least `want` worker threads exist (clamped to
    /// [`MAX_THREADS`]).
    ///
    /// With the `ACCEL_PIN` opt-in ([`crate::envcfg::pin_enabled`]),
    /// each new worker pins itself to core `index % cores` before
    /// serving batches, so a worker's cache- and NUMA-local pages stay
    /// local across GEMMs instead of following the scheduler around.
    /// The dispatching (caller) thread is never pinned — it belongs to
    /// the embedding application.
    fn ensure_workers(&'static self, want: usize) {
        let want = want.min(MAX_THREADS);
        let mut n = self.spawned.lock().expect("pool spawn counter");
        while *n < want {
            self.spawn_worker(*n, crate::envcfg::pin_enabled());
            *n += 1;
        }
    }

    /// Spawns worker `index`, pinned to core `index % cores` if `pin`.
    fn spawn_worker(&'static self, index: usize, pin: bool) {
        let rx = Arc::clone(&self.shared_rx);
        std::thread::Builder::new()
            .name(format!("accel-pool-{index}"))
            .spawn(move || {
                IN_POOL_WORKER.with(|f| f.set(true));
                if pin {
                    pin_to_core(index % default_threads());
                }
                loop {
                    let batch = {
                        let guard = rx.lock().expect("pool receiver");
                        guard.recv()
                    };
                    match batch {
                        Ok(batch) => while batch.run_next() {},
                        Err(_) => return,
                    }
                }
            })
            .expect("spawn pool worker");
    }
}

/// Runs every task to completion, fanning out across the persistent
/// pool, and returns only when all of them have finished. Tasks may
/// borrow from the caller's stack; determinism is the *caller's*
/// responsibility (each task must own a disjoint output region —
/// [`row_bands`] and [`map_with_threads`] arrange exactly that).
///
/// Every task runs under the caller's [`Policy`]. Single-task batches
/// and batches dispatched from inside a pool worker run inline, in
/// submission order. The first task panic is re-thrown here after the
/// whole batch has drained.
pub(crate) fn scope_run(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || IN_POOL_WORKER.with(|f| f.get()) {
        for task in tasks {
            task();
        }
        return;
    }
    // SAFETY: the lifetime of each boxed task is extended to `'static`
    // purely so it can cross the channel; this function does not return
    // until `remaining == 0`, i.e. until every task has been consumed
    // (its captured borrows dead), so no task outlives what it borrows.
    #[allow(unsafe_code)]
    let jobs: VecDeque<Job> =
        tasks
            .into_iter()
            .map(|t| unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + '_>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(t)
            })
            .collect();
    let batch = Arc::new(Batch {
        tasks: Mutex::new(jobs),
        policy: Policy::current(),
        remaining: Mutex::new(n),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let p = pool();
    // The caller drains too, so n-1 workers saturate an n-task batch.
    p.ensure_workers(n - 1);
    {
        let tx = p.injector.lock().expect("pool injector");
        for _ in 0..n - 1 {
            tx.send(Arc::clone(&batch)).expect("pool channel open");
        }
    }
    while batch.run_next() {}
    let mut rem = batch.remaining.lock().expect("pool batch counter");
    while *rem > 0 {
        rem = batch.done.wait(rem).expect("pool batch wait");
    }
    drop(rem);
    let payload = batch.panic.lock().expect("pool panic slot").take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Public parallel combinators
// ---------------------------------------------------------------------------

/// Order-preserving parallel map over a slice.
///
/// Splits `items` into at most [`threads`] contiguous chunks, maps each
/// chunk on the persistent pool, and concatenates the results in input
/// order — so the output is identical to `items.iter().map(f).collect()`
/// for any thread count. Worker panics propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_with_threads(items, threads(), f)
}

/// [`par_map`] with an explicit worker count (1 means run inline).
pub(crate) fn map_with_threads<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let t = threads.min(items.len()).max(1);
    if t <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(t);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let mut parts: Vec<Option<Vec<U>>> = Vec::new();
    parts.resize_with(chunks.len(), || None);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
        .iter()
        .zip(parts.iter_mut())
        .map(|(part, slot)| {
            let f = &f;
            Box::new(move || {
                *slot = Some(part.iter().map(f).collect::<Vec<U>>());
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    scope_run(tasks);
    parts
        .into_iter()
        .flat_map(|p| p.expect("pool task completed"))
        .collect()
}

/// Runs `body` over disjoint horizontal bands of a row-major buffer.
///
/// `buf` holds `rows` rows of `row_stride` elements each; it is split
/// into at most `threads` contiguous bands and `body(first_row, band)`
/// runs per band on the persistent pool. With `threads <= 1` (or a
/// degenerate shape) the body runs inline over the whole buffer, so
/// serial and parallel execution touch identical data. Worker panics
/// propagate to the caller.
pub(crate) fn row_bands<T, F>(
    buf: &mut [T],
    rows: usize,
    row_stride: usize,
    threads: usize,
    body: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(buf.len(), rows * row_stride);
    let t = threads.min(rows).max(1);
    if t <= 1 || row_stride == 0 {
        body(0, buf);
        return;
    }
    let band = rows.div_ceil(t);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = buf
        .chunks_mut(band * row_stride)
        .enumerate()
        .map(|(idx, chunk)| {
            let body = &body;
            Box::new(move || body(idx * band, chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    scope_run(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for t in [1, 2, 3, 7, 16] {
            assert_eq!(map_with_threads(&items, t, |x| x * x), serial, "t={t}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        assert!(map_with_threads(&empty, 8, |x| *x).is_empty());
        assert_eq!(map_with_threads(&[41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn row_bands_covers_every_row_once() {
        for rows in [1usize, 2, 5, 64] {
            for t in [1usize, 2, 3, 8, 100] {
                let stride = 3;
                let mut buf = vec![0u32; rows * stride];
                row_bands(&mut buf, rows, stride, t, |first_row, band| {
                    for (r, row) in band.chunks_mut(stride).enumerate() {
                        for v in row {
                            *v += (first_row + r) as u32 + 1;
                        }
                    }
                });
                let want: Vec<u32> = (0..rows)
                    .flat_map(|r| std::iter::repeat_n(r as u32 + 1, stride))
                    .collect();
                assert_eq!(buf, want, "rows={rows} t={t}");
            }
        }
    }

    #[test]
    fn row_bands_zero_stride_is_inline() {
        let mut buf: Vec<u8> = Vec::new();
        row_bands(&mut buf, 4, 0, 8, |first_row, band| {
            assert_eq!(first_row, 0);
            assert!(band.is_empty());
        });
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
        assert!(threads() <= MAX_THREADS);
    }

    #[test]
    fn thread_override_wins_and_clears() {
        let base = threads();
        let policy = Policy {
            threads: 3,
            ..Policy::current()
        };
        assert_eq!(policy.run(threads), 3);
        assert_eq!(threads(), base);
        let clamped = Policy {
            threads: 0,
            ..Policy::current()
        };
        assert_eq!(clamped.run(threads), 1);
    }

    #[test]
    fn nested_parallel_sections_run_inline_and_agree() {
        let items: Vec<u32> = (0..64).collect();
        let serial: Vec<Vec<u32>> = items
            .iter()
            .map(|&x| (0..8).map(|y| x * 100 + y).collect())
            .collect();
        let nested = map_with_threads(&items, 4, |&x| {
            let inner: Vec<u32> = (0..8).collect();
            map_with_threads(&inner, 4, |&y| x * 100 + y)
        });
        assert_eq!(nested, serial);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            map_with_threads(&items, 4, |&x| {
                assert!(x != 9, "poisoned item");
                x
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool must stay usable after a panicking batch.
        let ok = map_with_threads(&items, 4, |&x| x + 1);
        assert_eq!(ok, (1..17).collect::<Vec<u32>>());
    }

    #[test]
    fn panicking_band_job_does_not_poison_the_pool() {
        // A band body that panics mid-batch must (a) propagate to the
        // caller, (b) leave the shared queue fully drained, and (c)
        // leave the persistent workers healthy — later band dispatches
        // and maps must produce bit-identical results. This is the
        // regression test for the serving layer's shard isolation,
        // which catches panics on pool threads and keeps going.
        let rows = 16usize;
        let stride = 4usize;
        for round in 0..3 {
            let mut buf = vec![0u32; rows * stride];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                row_bands(&mut buf, rows, stride, 4, |first_row, _band| {
                    assert!(first_row != 8, "poisoned band");
                });
            }));
            assert!(caught.is_err(), "band panic must reach the caller");
            // The pool must come back clean in the same round.
            let mut ok = vec![0u32; rows * stride];
            row_bands(&mut ok, rows, stride, 4, |first_row, band| {
                for (r, row) in band.chunks_mut(stride).enumerate() {
                    row.fill((first_row + r) as u32);
                }
            });
            let want: Vec<u32> = (0..rows)
                .flat_map(|r| std::iter::repeat_n(r as u32, stride))
                .collect();
            assert_eq!(ok, want, "round {round}");
            let items: Vec<u32> = (0..32).collect();
            let serial: Vec<u32> = items.iter().map(|x| x + round).collect();
            assert_eq!(map_with_threads(&items, 4, |x| x + round), serial);
        }
    }

    #[test]
    fn pinned_workers_stay_bit_identical() {
        // Pinning is a performance hint: a pinned worker serving the
        // pool's batches must leave every result exactly the serial one.
        pool().spawn_worker(MAX_THREADS, true);
        let items: Vec<u64> = (0..512).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 7 + 1).collect();
        for _ in 0..8 {
            assert_eq!(map_with_threads(&items, 4, |x| x * 7 + 1), serial);
        }
    }

    #[test]
    fn pool_reuses_workers_across_calls() {
        // Many small dispatches should never exceed the pool cap and
        // must keep producing deterministic results.
        for round in 0..50u64 {
            let items: Vec<u64> = (0..32).map(|i| i + round).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(map_with_threads(&items, 5, |x| x * 3), serial);
        }
    }
}
