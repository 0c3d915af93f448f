//! What a run measures: windows of a request stream, and the
//! end-to-end figures derived from them.

use std::time::Instant;

use serving::ServingStats;

use crate::gen::GenRequest;
use crate::stats::{median, percentile, sort};

/// What a step did, judged from the `ServingStats` delta it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Admitted at least one request (encoder pass + session start).
    Admit,
    /// Ingested prompt rows, admitted nothing.
    Prefill,
    /// Only advanced generating requests by one token each.
    Decode,
}

impl StepKind {
    /// Span name of a step of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            StepKind::Admit => "serving.step.admit",
            StepKind::Prefill => "serving.step.prefill",
            StepKind::Decode => "serving.step.decode",
        }
    }
}

/// Classifies one step by the counters it moved.
pub fn classify(before: &ServingStats, after: &ServingStats) -> StepKind {
    if after.admitted > before.admitted {
        StepKind::Admit
    } else if after.prefill_rows > before.prefill_rows {
        StepKind::Prefill
    } else {
        StepKind::Decode
    }
}

/// One engine step as the harness saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRec {
    /// Classification.
    pub kind: StepKind,
    /// Wall time of the `step()` call, milliseconds.
    pub ms: f64,
    /// Requests the step carried.
    pub requests: usize,
    /// Prompt rows (BOS included) the step ingested.
    pub prefill_rows: usize,
}

/// One request's share of one step, for the modelled-hardware column:
/// `rows` new rows attending over `ctx` cached rows and `src` encoder
/// rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGroup {
    /// Rows this request fed the step.
    pub rows: usize,
    /// Self-attention context after those rows were appended.
    pub ctx: usize,
    /// Source length (cross-attention context).
    pub src: usize,
}

/// Everything measured between two window boundaries.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// The host's speed over the window as a share of typical: the mean
    /// of the [`crate::hostspeed`] samples taken while it ran. 0 = not
    /// probed, which counts as typical.
    pub speed: f64,
    /// Tokens emitted inside the window.
    pub tokens: usize,
    /// Requests that completed inside the window.
    pub completed: usize,
    /// Of those, how many met both latency limits and did not fail.
    pub slo_ok: usize,
    /// Of those, how many failed (wrong length, deadline, quarantine).
    pub failed: usize,
    /// Time to first token of requests whose first token fell in the
    /// window, milliseconds from the request's due time.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of one request, milliseconds.
    pub gap_ms: Vec<f64>,
    /// Every step of the window.
    pub steps: Vec<StepRec>,
    /// `submit()` call times, microseconds.
    pub submit_us: Vec<f64>,
    /// `drain_emitted()` + `drain_finished()` call times, microseconds.
    pub drain_us: Vec<f64>,
    /// Engine counters at the window's start and end.
    pub stats: (ServingStats, ServingStats),
    /// Sum over steps of resident KV bytes after the step.
    pub kv_in_use_sum: f64,
    /// How late each open-loop submission was made, milliseconds.
    pub late_ms: Vec<f64>,
    /// Completed requests with their tokens (only when asked for).
    pub responses: Vec<(GenRequest, Vec<usize>)>,
    /// Per-step request shares (only when asked for).
    pub composition: Vec<Vec<RowGroup>>,
}

/// Latency bookkeeping of one request in flight, shared by the three
/// drivers (in-process, wire, ResBlock sweep).
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    /// When the request was due (closed loop: when it was submitted).
    pub due: Instant,
    /// When its latest token arrived.
    pub last_token: Option<Instant>,
    /// Whether every latency so far met its limit.
    pub slo_ok: bool,
}

impl Flight {
    /// Stops the request's clock for `d`: the harness spent that long on
    /// a host-speed sample, which is no part of the program's latency.
    pub fn pause(&mut self, d: std::time::Duration) {
        self.due += d;
        self.last_token = self.last_token.map(|t| t + d);
    }

    /// A request due at `due`, nothing received yet.
    pub fn new(due: Instant) -> Self {
        Self {
            due,
            last_token: None,
            slo_ok: true,
        }
    }

    /// Books one token that arrived at `now` into `w`: TTFT for the
    /// first, a gap for the rest, each against its limit
    /// (`slo_ms = (ttft, gap)`). Returns whether it was the first.
    pub fn token(&mut self, now: Instant, slo_ms: (f64, f64), w: &mut Window) -> bool {
        let first = self.last_token.is_none();
        let (since, limit, samples) = match self.last_token {
            None => (self.due, slo_ms.0, &mut w.ttft_ms),
            Some(prev) => (prev, slo_ms.1, &mut w.gap_ms),
        };
        let ms = (now - since).as_secs_f64() * 1e3;
        samples.push(ms);
        self.slo_ok &= ms <= limit;
        self.last_token = Some(now);
        w.tokens += 1;
        first
    }
}

/// The end-to-end figures of a set of timed windows.
///
/// Times are compensated for the host's speed: a window's wall time and
/// latencies are multiplied by its [`Window::speed`], which turns them
/// into what a host at typical speed would have taken. The host moves
/// between speed levels that each last seconds to minutes; a median
/// over a run that straddles two levels reads one or the other, and
/// which one flips from run to run, while a time-weighted mean reads
/// their mix. So the throughput is all tokens over all (compensated)
/// wall time, and a latency median is taken per window — inside which
/// the level mostly holds — and averaged over the windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Tokens emitted per compensated second over all windows together.
    /// An open loop's throughput is its arrival schedule, which runs on
    /// the wall clock, so there it is per wall second.
    pub tok_s: f64,
    /// Time to first token: per-window median, compensated, averaged
    /// over windows; and the pooled wall-clock p90.
    pub ttft_ms: (f64, f64),
    /// Inter-token gap: per-window median, compensated, averaged over
    /// windows; and the pooled wall-clock p95 and p99.
    pub itl_ms: (f64, f64, f64),
    /// Share of completed requests that met both latency limits (on the
    /// wall clock).
    pub slo_ok_frac: f64,
    /// Windows, completed requests, failed requests.
    pub counts: (usize, usize, usize),
    /// TTFT and gap sample counts behind the percentiles.
    pub samples: (usize, usize),
    /// The same three figures on the wall clock: tokens per second,
    /// TTFT and gap medians.
    pub wall: (f64, f64, f64),
    /// Slowest and fastest host speed over the windows.
    pub speed_range: (f64, f64),
}

impl Window {
    /// What wall times of this window are multiplied by.
    pub fn scale(&self) -> f64 {
        if self.speed > 0.0 {
            self.speed
        } else {
            1.0
        }
    }
}

/// Mean over the windows that have samples of each window's median,
/// scaled by `scale(window)`.
fn mean_of_window_medians(
    windows: &[Window],
    samples: impl Fn(&Window) -> &Vec<f64>,
    scale: impl Fn(&Window) -> f64,
) -> f64 {
    let medians: Vec<f64> = windows
        .iter()
        .filter(|w| !samples(w).is_empty())
        .map(|w| median(samples(w)) * scale(w))
        .collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// Pools `windows` into a [`Summary`]; `open_loop` says the throughput
/// is arrival-bound and stays on the wall clock.
pub fn summarize(windows: &[Window], open_loop: bool) -> Summary {
    let tokens: usize = windows.iter().map(|w| w.tokens).sum();
    let wall_s: f64 = windows.iter().map(|w| w.wall_s).sum();
    let typical_s: f64 = windows.iter().map(|w| w.wall_s * w.scale()).sum();
    let per_s = |seconds: f64| {
        if seconds > 0.0 {
            tokens as f64 / seconds
        } else {
            0.0
        }
    };
    let mut ttft: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.ttft_ms.iter().copied())
        .collect();
    let mut gaps: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.gap_ms.iter().copied())
        .collect();
    sort(&mut ttft);
    sort(&mut gaps);
    let completed: usize = windows.iter().map(|w| w.completed).sum();
    let ok: usize = windows.iter().map(|w| w.slo_ok).sum();
    let speeds = windows.iter().map(Window::scale);
    Summary {
        tok_s: per_s(if open_loop { wall_s } else { typical_s }),
        ttft_ms: (
            mean_of_window_medians(windows, |w| &w.ttft_ms, Window::scale),
            percentile(&ttft, 90.0),
        ),
        itl_ms: (
            mean_of_window_medians(windows, |w| &w.gap_ms, Window::scale),
            percentile(&gaps, 95.0),
            percentile(&gaps, 99.0),
        ),
        slo_ok_frac: if completed == 0 {
            0.0
        } else {
            ok as f64 / completed as f64
        },
        counts: (
            windows.len(),
            completed,
            windows.iter().map(|w| w.failed).sum(),
        ),
        samples: (ttft.len(), gaps.len()),
        wall: (
            per_s(wall_s),
            mean_of_window_medians(windows, |w| &w.ttft_ms, |_| 1.0),
            mean_of_window_medians(windows, |w| &w.gap_ms, |_| 1.0),
        ),
        speed_range: (
            speeds.clone().fold(f64::INFINITY, f64::min),
            speeds.fold(0.0, f64::max),
        ),
    }
}

/// Median wall time (ms) of the steps of one kind, with the p99.
pub fn step_ms(windows: &[Window], kind: StepKind) -> (f64, f64, usize) {
    let mut ms: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.steps.iter())
        .filter(|s| s.kind == kind)
        .map(|s| s.ms)
        .collect();
    sort(&mut ms);
    (percentile(&ms, 50.0), percentile(&ms, 99.0), ms.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_classified_by_their_stats_delta() {
        let base = ServingStats {
            steps: 10,
            rows: 100,
            admitted: 4,
            prefill_rows: 40,
            tokens_generated: 60,
            ..ServingStats::default()
        };
        let decode = ServingStats {
            steps: 11,
            rows: 116,
            tokens_generated: 76,
            ..base
        };
        assert_eq!(classify(&base, &decode), StepKind::Decode);
        let prefill = ServingStats {
            prefill_rows: 104,
            ..decode
        };
        assert_eq!(classify(&base, &prefill), StepKind::Prefill);
        // An admission wins over the BOS row it always ingests.
        let admit = ServingStats {
            admitted: 5,
            prefill_rows: 41,
            ..decode
        };
        assert_eq!(classify(&base, &admit), StepKind::Admit);
    }

    #[test]
    fn windows_pool_into_a_summary() {
        let w = |tokens: usize, wall_s: f64, ttft: &[f64], gaps: &[f64], ok: usize| Window {
            tokens,
            wall_s,
            completed: ttft.len(),
            slo_ok: ok,
            ttft_ms: ttft.to_vec(),
            gap_ms: gaps.to_vec(),
            ..Window::default()
        };
        let mut windows = [
            w(100, 1.0, &[5.0, 7.0], &[1.0, 2.0, 3.0], 2),
            w(300, 2.0, &[6.0, 9.0], &[1.0, 1.0, 9.0], 1),
            w(90, 1.0, &[], &[], 0),
        ];
        let s = summarize(&windows, false);
        assert_eq!(s.tok_s, 122.5, "490 tokens in 4 s");
        assert_eq!(
            s.ttft_ms,
            (6.75, 9.0),
            "mean of medians 6 and 7.5; pooled p90"
        );
        assert_eq!(
            s.itl_ms.0, 1.5,
            "mean of medians 2 and 1; the empty window is skipped"
        );
        assert_eq!(
            s.wall,
            (122.5, 6.75, 1.5),
            "unprobed windows count as typical"
        );

        // The host ran the second window at half its typical speed: a
        // typical host would have needed 1 s for it, and half the time
        // for each of its latencies.
        windows[1].speed = 0.5;
        let c = summarize(&windows, false);
        assert_eq!(c.tok_s, 490.0 / 3.0);
        assert_eq!(
            c.ttft_ms,
            (4.875, 9.0),
            "mean of 6 and 3.75; the tail stays on the wall"
        );
        assert_eq!(c.itl_ms.0, 1.25);
        assert_eq!(c.wall, s.wall);
        assert_eq!(c.speed_range, (0.5, 1.0));
        // An open loop's throughput is its schedule's.
        assert_eq!(summarize(&windows, true).tok_s, 122.5);
        assert_eq!(s.slo_ok_frac, 0.75);
        assert_eq!(s.counts, (3, 4, 0));
        assert_eq!(s.samples, (4, 6));
    }

    #[test]
    fn flight_books_ttft_from_the_due_time_then_gaps() {
        let due = Instant::now();
        let ms = |n: u64| due + std::time::Duration::from_millis(n);
        let mut w = Window::default();
        let mut f = Flight::new(due);
        // Sent late or not, the first token is timed from when it was due.
        assert!(f.token(ms(30), (50.0, 10.0), &mut w));
        assert!(!f.token(ms(38), (50.0, 10.0), &mut w));
        assert!(f.slo_ok);
        assert!(!f.token(ms(50), (50.0, 10.0), &mut w));
        assert!(!f.slo_ok, "a 12 ms gap misses a 10 ms limit");
        assert_eq!(w.tokens, 3);
        assert_eq!(w.ttft_ms, [30.0]);
        assert_eq!(w.gap_ms, [8.0, 12.0]);
        // A host-speed sample between two tokens is not the program's.
        f.pause(std::time::Duration::from_millis(16));
        f.token(ms(70), (50.0, 10.0), &mut w);
        assert_eq!(w.gap_ms[2], 4.0);
    }
}
