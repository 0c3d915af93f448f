//! The host-speed probe: how fast is this host right now, against how
//! fast it typically is?
//!
//! The calibration host is a few cores of a shared machine. What its
//! neighbours do slows a core by 10-40% for anything from milliseconds
//! to hours: one `decode_c16` stream read 1230-1600 tok/s window by
//! window at one hour and 780-1170 at another, with `steal` at 0. Ten
//! back-to-back runs of one workload then read 10-25% apart whatever
//! the program does, and no run length the time cap allows averages
//! that out (README, "Calibration"). So while a workload runs, the
//! harness times two fixed kernels of its own every 200 ms — a
//! register-only dependency chain, which follows the core, and a
//! streaming sum over a buffer far larger than the caches, which
//! follows the memory system — and each window's times are scaled by
//! how the host compared with typical while the window ran.
//!
//! Nothing here calls into the program under test, so a change to the
//! program cannot move the scale. The scale is the geometric mean of the
//! two kernels' slow-downs raised to [`SENSITIVITY`]: wide-vector GEMM
//! code over a 40 MB working set feels the neighbours more than either
//! kernel does, by the same factor on every workload measured.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Iterations of the dependency chain (multiply, add, shift, xor: about
/// six cycles each, no memory traffic).
const CHAIN_ITERS: u64 = 2_000_000;
/// Words of the streamed buffer: 32 MiB, eight times the L2.
const STREAM_WORDS: usize = (32 << 20) / 8;
/// Passes over the buffer per sample.
const STREAM_PASSES: u64 = 2;
/// Seconds the chain and the stream take on the calibration host at
/// its typical speed: the middle of what the workloads' own samples
/// read over the calibration day (README, "Calibration"). On another
/// host these are merely constants: every compensated figure is off by
/// one fixed factor, and comparisons are unaffected.
const TYPICAL_S: (f64, f64) = (0.0040, 0.0051);
/// How much more the program's times move than the kernels' do: over
/// ten runs each of the five in-process workloads, log wall time
/// against log kernel time had slopes 1.49-1.75 (README, "Calibration").
const SENSITIVITY: f64 = 1.5;

#[inline(never)]
fn chain(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

#[inline(never)]
fn stream(words: &[u64], pass: u64) -> u64 {
    words.iter().fold(pass, |sum, w| sum.wrapping_add(*w))
}

/// Times the two kernels once, about 8 ms: seconds the chain and the
/// stream took.
fn time_kernels() -> (f64, f64) {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    let words = BUFFER.get_or_init(|| (0..STREAM_WORDS as u64).collect());
    let t0 = Instant::now();
    std::hint::black_box(chain(std::hint::black_box(CHAIN_ITERS)));
    let t1 = Instant::now();
    for pass in 0..STREAM_PASSES {
        std::hint::black_box(stream(words, pass));
    }
    let t2 = Instant::now();
    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// The host's speed for the program as a share of typical (above 1 =
/// faster): the geometric mean of the two kernels' shares, raised to
/// [`SENSITIVITY`].
fn share(chain_s: f64, stream_s: f64) -> f64 {
    ((TYPICAL_S.0 / chain_s) * (TYPICAL_S.1 / stream_s)).powf(SENSITIVITY / 2.0)
}

/// Samples the host's speed every [`Meter::EVERY`] while a workload runs
/// and averages the samples window by window. The caller decides when a
/// sample may run — it takes this thread for about 8 ms — and takes
/// that time out of whatever it is timing.
pub struct Meter {
    last: Instant,
    sum: f64,
    n: usize,
    mean: f64,
}

impl Meter {
    /// Time between samples.
    pub const EVERY: Duration = Duration::from_millis(200);

    /// A meter whose first sample is due [`Meter::EVERY`] from now. The
    /// streamed buffer is allocated here, not inside the first sample.
    pub fn start() -> Self {
        time_kernels();
        Self {
            last: Instant::now(),
            sum: 0.0,
            n: 0,
            mean: 0.0,
        }
    }

    /// Whether the next sample is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= Self::EVERY
    }

    /// Takes one sample and returns how long it took.
    pub fn sample(&mut self) -> Duration {
        let t0 = Instant::now();
        let (chain_s, stream_s) = time_kernels();
        self.sum += share(chain_s, stream_s);
        self.n += 1;
        self.last = Instant::now();
        self.last - t0
    }

    /// Mean of the samples since the last call, and starts over. With
    /// no sample since, the previous mean stands (0 = never sampled).
    pub fn take(&mut self) -> f64 {
        if self.n > 0 {
            self.mean = self.sum / self.n as f64;
            (self.sum, self.n) = (0.0, 0);
        }
        self.mean
    }
}

/// `spine hostspeed [seconds]`: samples ten times a second and prints
/// each kernel's time and the share, then the medians — what
/// `TYPICAL_S` was calibrated from, and a look at the host's drift.
pub fn watch(seconds: f64) {
    let started = Instant::now();
    let (mut chains, mut streams) = (Vec::new(), Vec::new());
    while started.elapsed().as_secs_f64() < seconds {
        let (chain_s, stream_s) = time_kernels();
        println!(
            "{:8.2} s  chain {:.5} s  stream {:.5} s  speed {:.3}",
            started.elapsed().as_secs_f64(),
            chain_s,
            stream_s,
            share(chain_s, stream_s)
        );
        chains.push(chain_s);
        streams.push(stream_s);
        std::thread::sleep(Duration::from_millis(92));
    }
    println!(
        "medians over {} samples: chain {:.5} s  stream {:.5} s  (TYPICAL_S is {:?})",
        chains.len(),
        crate::stats::median(&chains),
        crate::stats::median(&streams),
        TYPICAL_S
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_typical_host_reads_one_and_a_slow_one_less() {
        assert!((share(TYPICAL_S.0, TYPICAL_S.1) - 1.0).abs() < 1e-12);
        // Core 10% slow, memory 30% slow: the kernels are 20% slow
        // overall, the program 31%.
        let slow = share(TYPICAL_S.0 * 1.1, TYPICAL_S.1 * 1.3);
        assert!((slow - (1.1_f64 * 1.3).powf(-0.75)).abs() < 1e-12);
        assert!(slow < 0.77);
    }

    #[test]
    fn a_meter_averages_its_samples_and_starts_over() {
        let mut m = Meter::start();
        assert_eq!(m.take(), 0.0, "no sample yet");
        assert!(m.sample() > Duration::ZERO);
        m.sample();
        let mean = m.take();
        assert!(mean.is_finite() && mean > 0.0, "{mean}");
        assert_eq!(m.take(), mean, "nothing new: the last reading stands");
        assert!(!m.due(), "the next sample is due 200 ms after the last");
    }
}
