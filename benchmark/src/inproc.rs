//! The in-process driver: the harness thread calls
//! `ContinuousBatcher::{submit, step, drain_emitted, drain_finished}`
//! itself, as one continuous request stream cut into measurement
//! windows.
//!
//! A window closes when a fixed number of requests has completed, so
//! with a closed loop on one thread the whole step sequence — and every
//! counter read at a window boundary — is a pure function of the seed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use serving::{ContinuousBatcher, FinishReason, Request, ServingStats};

use crate::config::{Arrival, Traffic};
use crate::gen::{GenRequest, RequestGen};
use crate::hostspeed::Meter;
use crate::measure::{classify, Flight, RowGroup, StepRec, Window};
use crate::trace::{SpanId, Tracer};

struct Live {
    req: GenRequest,
    client: usize,
    flight: Flight,
    /// Rows of `[BOS] + prompt` not yet known to be ingested.
    prefill_left: usize,
    /// Rows the session holds (reused + ingested + generated).
    ctx: usize,
    span: Option<SpanId>,
}

/// When each client may submit, and how open-loop requests fall due.
enum Source {
    /// `ready[c]` is the step index from which client `c` may submit.
    Closed { ready: Vec<Option<usize>> },
    /// Due offsets from `t0`, in seconds, not yet submitted.
    Open {
        t0: Instant,
        due: Vec<f64>,
        next: usize,
    },
}

/// A long-lived engine plus the request stream feeding it.
pub struct Driver<'e, 'm> {
    engine: &'e mut ContinuousBatcher<'m>,
    gen: RequestGen,
    traffic: Traffic,
    source: Source,
    live: HashMap<u64, Live>,
    next_id: u64,
    step_no: usize,
    meter: Meter,
}

/// Stop rule for [`Driver::run`].
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Exactly this many windows.
    Windows(usize),
    /// Whole windows until at least this much wall time has passed.
    Seconds(f64),
    /// Until the open-loop schedule is exhausted and drained.
    Drained,
}

/// What [`Driver::run`] keeps besides timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Keep {
    /// Keep completed requests and their tokens.
    pub responses: bool,
    /// Keep per-step request shares.
    pub composition: bool,
}

/// The step from which each closed-loop client may first submit: client
/// `i` belongs to wave `i % waves`, and the waves start
/// `ceil(max_new / waves)` steps apart.
fn wave_starts(clients: usize, waves: usize, max_new: usize) -> Vec<usize> {
    let stagger = max_new.div_ceil(waves);
    (0..clients).map(|c| c % waves * stagger).collect()
}

impl<'e, 'm> Driver<'e, 'm> {
    /// A closed-loop driver. The clients start in waves (see
    /// [`Arrival::Closed`]); after that each client submits when its
    /// previous request finishes, so equal-length requests keep a wave
    /// together.
    pub fn closed(
        engine: &'e mut ContinuousBatcher<'m>,
        gen: RequestGen,
        traffic: Traffic,
    ) -> Self {
        let Arrival::Closed { clients, waves } = traffic.arrival else {
            panic!("closed-loop driver needs a closed arrival process");
        };
        Self::new(
            engine,
            gen,
            traffic,
            Source::Closed {
                ready: wave_starts(clients, waves, traffic.max_new)
                    .into_iter()
                    .map(Some)
                    .collect(),
            },
        )
    }

    /// An open-loop driver submitting at `due` (seconds from now).
    pub fn open(
        engine: &'e mut ContinuousBatcher<'m>,
        gen: RequestGen,
        traffic: Traffic,
        due: Vec<f64>,
    ) -> Self {
        Self::new(
            engine,
            gen,
            traffic,
            Source::Open {
                t0: Instant::now(),
                due,
                next: 0,
            },
        )
    }

    fn new(
        engine: &'e mut ContinuousBatcher<'m>,
        gen: RequestGen,
        traffic: Traffic,
        source: Source,
    ) -> Self {
        Self {
            engine,
            gen,
            traffic,
            source,
            live: HashMap::new(),
            next_id: 0,
            step_no: 0,
            meter: Meter::start(),
        }
    }

    /// Samples the host's speed. The sample takes a few milliseconds of
    /// this thread, which the program never sees: the clocks of the
    /// requests in flight, and an open loop's schedule, stop meanwhile.
    /// Returns how long it took.
    fn sample_speed(&mut self) -> Duration {
        let took = self.meter.sample();
        for l in self.live.values_mut() {
            l.flight.pause(took);
        }
        if let Source::Open { t0, .. } = &mut self.source {
            *t0 += took;
        }
        took
    }

    fn submit(
        &mut self,
        client: usize,
        due: Instant,
        w: &mut Window,
        tr: &mut Tracer,
        parent: Option<SpanId>,
    ) {
        let req = self.gen.next_request();
        let id = self.next_id;
        self.next_id += 1;
        let request =
            Request::new(id, req.src.clone(), req.max_new).with_prompt(req.prompt.clone());
        let t0 = Instant::now();
        let accepted = self.engine.submit(request).is_ok();
        let t1 = Instant::now();
        w.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        tr.record("serving.submit", t0, t1, parent, Some(id));
        if !accepted {
            w.completed += 1;
            w.failed += 1;
            if let Source::Closed { ready } = &mut self.source {
                ready[client] = Some(self.step_no);
            }
            return;
        }
        let span = tr.open("request", due, None, Some(id));
        self.live.insert(
            id,
            Live {
                prefill_left: 1 + req.prompt.len(),
                req,
                client,
                flight: Flight::new(due),
                ctx: 0,
                span,
            },
        );
    }

    /// Submits whatever is due; returns how long an idle open loop may
    /// sleep before the next arrival.
    fn feed(
        &mut self,
        w: &mut Window,
        tr: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Option<Duration> {
        let now = Instant::now();
        let step_no = self.step_no;
        let mut wait = None;
        let mut due: Vec<(usize, Instant)> = Vec::new();
        match &mut self.source {
            Source::Closed { ready } => {
                for (c, r) in ready.iter_mut().enumerate() {
                    if r.is_some_and(|s| s <= step_no) {
                        *r = None;
                        due.push((c, now));
                    }
                }
            }
            Source::Open {
                t0,
                due: offsets,
                next,
            } => {
                while let Some(&offset) = offsets.get(*next) {
                    let at = *t0 + Duration::from_secs_f64(offset);
                    if at > now {
                        wait = Some(at - now);
                        break;
                    }
                    *next += 1;
                    w.late_ms.push((now - at).as_secs_f64() * 1e3);
                    due.push((0, at));
                }
            }
        }
        for (client, at) in due {
            self.submit(client, at, w, tr, parent);
        }
        wait
    }

    fn schedule_exhausted(&self) -> bool {
        match &self.source {
            Source::Closed { .. } => false,
            Source::Open { due, next, .. } => *next >= due.len(),
        }
    }

    /// One step plus its drains; returns how many requests completed.
    fn step(
        &mut self,
        w: &mut Window,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        keep: Keep,
    ) -> usize {
        let before = self.engine.stats();
        let t0 = Instant::now();
        self.engine.step();
        let t1 = Instant::now();
        let after = self.engine.stats();
        self.step_no += 1;
        let kind = classify(&before, &after);
        w.steps.push(StepRec {
            kind,
            ms: (t1 - t0).as_secs_f64() * 1e3,
            requests: after.rows - before.rows,
            prefill_rows: after.prefill_rows - before.prefill_rows,
        });
        w.kv_in_use_sum += after.kv_bytes_in_use as f64;
        tr.record(kind.span_name(), t0, t1, parent, None);

        let emitted = self.engine.drain_emitted();
        let finished = self.engine.drain_finished();
        let t2 = Instant::now();
        w.drain_us.push((t2 - t1).as_secs_f64() * 1e6);
        tr.record("serving.drain", t1, t2, parent, None);

        if keep.composition {
            w.composition.push(self.compose(&before, &after, &emitted));
        }
        for (id, _) in &emitted {
            let Some(l) = self.live.get_mut(id) else {
                continue;
            };
            if l.flight.token(t1, self.traffic.slo_ms, w) {
                tr.record("request.ttft", l.flight.due, t1, l.span, Some(*id));
            }
        }
        let done = finished.len();
        for resp in finished {
            let Some(l) = self.live.remove(&resp.id) else {
                continue;
            };
            tr.close(l.span, t1);
            let ok = resp.finish == FinishReason::Budget && resp.tokens.len() == l.req.max_new;
            w.completed += 1;
            w.failed += usize::from(!ok);
            w.slo_ok += usize::from(ok && l.flight.slo_ok);
            if let Source::Closed { ready } = &mut self.source {
                ready[l.client] = Some(self.step_no);
            }
            if keep.responses {
                w.responses.push((l.req, resp.tokens));
            }
        }
        done
    }

    /// Splits one step among the requests that took part in it, from
    /// what is visible outside the engine: who emitted a token, how
    /// many requests and prompt rows the step carried, and how many
    /// rows admissions reused from the prefix cache. Generating requests
    /// are exact (one row each, context known). Prompt rows are exact
    /// when one request prefills in the step and split evenly among the
    /// oldest prefilling requests otherwise.
    fn compose(
        &mut self,
        before: &ServingStats,
        after: &ServingStats,
        emitted: &[(u64, usize)],
    ) -> Vec<RowGroup> {
        let mut groups = Vec::new();
        let mut decoding = 0;
        for (id, _) in emitted {
            if let Some(l) = self.live.get_mut(id) {
                if l.flight.last_token.is_some() {
                    l.ctx += 1;
                    decoding += 1;
                    groups.push(RowGroup {
                        rows: 1,
                        ctx: l.ctx,
                        src: l.req.src.len(),
                    });
                }
            }
        }
        let prefilling = (after.rows - before.rows).saturating_sub(decoding);
        if prefilling == 0 {
            return groups;
        }
        let mut ids: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, l)| l.flight.last_token.is_none())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids.truncate(prefilling);
        let admitted = (after.admitted - before.admitted).max(1);
        let reused_each = (after.prefix_rows_reused - before.prefix_rows_reused) / admitted;
        let mut rows_left = after.prefill_rows - before.prefill_rows;
        for (i, id) in ids.iter().enumerate() {
            let l = self.live.get_mut(id).expect("listed above");
            if l.ctx == 0 && reused_each > 0 {
                let reused = reused_each.min(l.prefill_left - 1);
                l.ctx = reused;
                l.prefill_left -= reused;
            }
            let share = rows_left.div_ceil(ids.len() - i).min(l.prefill_left).max(1);
            rows_left = rows_left.saturating_sub(share);
            l.prefill_left = l.prefill_left.saturating_sub(share);
            l.ctx += share;
            groups.push(RowGroup {
                rows: share,
                ctx: l.ctx,
                src: l.req.src.len(),
            });
        }
        groups
    }

    /// Runs whole windows until `until` says stop.
    pub fn run(&mut self, until: Until, keep: Keep, tr: &mut Tracer) -> Vec<Window> {
        let started = Instant::now();
        let mut windows = Vec::new();
        loop {
            let t0 = Instant::now();
            let mut w = Window::default();
            w.stats.0 = self.engine.stats();
            let span = tr.open("window", t0, None, None);
            let mut end = t0;
            let mut sampling = Duration::ZERO;
            loop {
                let wait = self.feed(&mut w, tr, span);
                if self.engine.active_len() + self.engine.pending_len() > 0 {
                    self.step(&mut w, tr, span, keep);
                    end = Instant::now();
                } else if let Some(wait) = wait {
                    std::thread::sleep(wait);
                } else if self.schedule_exhausted() {
                    break;
                } else {
                    // Closed loop, idle engine, every client still in its
                    // start-up stagger: let the step clock tick.
                    self.step_no += 1;
                }
                if w.completed >= self.traffic.window_requests {
                    break;
                }
                if self.meter.due() {
                    sampling += self.sample_speed();
                    end = Instant::now();
                }
            }
            tr.close(span, end);
            w.wall_s = (end - t0 - sampling).as_secs_f64();
            w.stats.1 = self.engine.stats();
            self.sample_speed();
            w.speed = self.meter.take();
            let drained = self.schedule_exhausted() && self.live.is_empty();
            if w.completed > 0 {
                windows.push(w);
            }
            let stop = match until {
                Until::Windows(n) => windows.len() >= n,
                Until::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                Until::Drained => false,
            };
            if stop || drained {
                return windows;
            }
        }
    }

    /// Cancels whatever is still in flight (the stream is endless; the
    /// run is not).
    pub fn abandon(&mut self) {
        for (id, _) in self.live.drain() {
            self.engine.cancel(id);
        }
        self.engine.drain_emitted();
        self.engine.drain_finished();
    }
}

#[cfg(test)]
mod tests {
    use super::wave_starts;

    #[test]
    fn clients_start_in_evenly_spaced_waves() {
        // decode_c16: four waves of four, eight steps apart.
        let starts = wave_starts(16, 4, 32);
        assert_eq!(starts[..5], [0, 8, 16, 24, 0]);
        assert_eq!(starts.iter().filter(|&&s| s == 24).count(), 4);
        // prefill_long: one client per step.
        assert_eq!(wave_starts(8, 8, 4), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(wave_starts(1, 1, 32), [0]);
    }
}
