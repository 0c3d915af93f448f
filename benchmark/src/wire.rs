//! `wire_open` — the real network path: `FrontDoor` on one thread, one
//! `frontdoor::Client` connection driven by the generator (this thread)
//! in an open loop. Each request is timed from when it was *due*, so a
//! stall charges the requests queued behind it, and the generator
//! reports how late it ran.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use frontdoor::frame::{encode_client, encode_server};
use frontdoor::{
    AdmissionConfig, Client, ClientFrame, DoorConfig, DoorStats, FrontDoor, ServerFrame, Submit,
};
use quantized::QuantSeq2Seq;
use serving::{ContinuousBatcher, FinishReason, ServingStats};

use crate::config::{
    engine_config, model_config, Arrival, Traffic, Workload, SLO_SHARE, WIRE_CAPACITY_RPS,
};
use crate::gen::{poisson_schedule, GenRequest, RequestGen};
use crate::hostspeed::Meter;
use crate::inproc::{Driver, Keep, Until};
use crate::measure::{summarize, Flight, Window};
use crate::report::Outcome;
use crate::run::{
    end_to_end, print_summary, probe_set, request_tails, run_probes, write_trace, Opts,
};
use crate::setup::Model;
use crate::stats::{percentile, sort};
use crate::trace::{Span, Tracer};
use crate::verify::{digest, mismatches};

/// The deployment's door: the shared engine config behind an admission
/// layer whose tenant quota is far above any rate the benchmark offers
/// (the staging buffer, not the quota, is what an overload would hit).
pub fn door_config() -> DoorConfig {
    DoorConfig {
        engine: engine_config(),
        admission: AdmissionConfig {
            max_buffered: 64,
            bucket_capacity: 1e9,
            bucket_refill_per_sec: 1e9,
            ..AdmissionConfig::default()
        },
        idle_timeout: Duration::from_secs(60),
        ..DoorConfig::default()
    }
}

fn to_submit(id: u64, req: &GenRequest) -> Submit {
    let wire = |v: &[usize]| v.iter().map(|&t| t as u32).collect();
    Submit {
        id,
        tenant: 0,
        priority: 1,
        deadline_ms: 0,
        max_new: req.max_new as u32,
        src: wire(&req.src),
        prompt: wire(&req.prompt),
    }
}

/// What the door reports once it has stopped.
pub struct DoorReport {
    /// Door counters.
    pub door: DoorStats,
    /// Engine counters.
    pub engine: ServingStats,
    /// `poll_once` spans, when the door was driven turn by turn.
    pub spans: Vec<Span>,
}

/// What `with_door` hands its body: the connection, and the meter the
/// door's thread samples the host's speed into.
pub struct Link<'a> {
    client: Client,
    meter: &'a Mutex<Meter>,
}

/// Runs `body` with a client connected to a live door. The door thread
/// runs `FrontDoor::run`'s loop — `poll_once` until told to stop — from
/// here, for two things the loop inside the crate cannot do: traced
/// (`Some(origin of the caller's tracer)`), it records one span per
/// turn; and whenever the door is idle and a sample is due, it samples
/// the host's speed on the door's own thread, whose core is the one the
/// engine's steps run on (the two cores of the calibration host slow
/// down independently). `body` reads the samples off the link's meter.
/// A request that arrives during a sample waits for it, at most 8 ms,
/// which happens to about one request in fifty.
pub fn with_door<R>(
    model: &QuantSeq2Seq,
    traced: Option<Instant>,
    body: impl FnOnce(&mut Link) -> R,
) -> std::io::Result<(R, DoorReport)> {
    let mut door = FrontDoor::new(model, door_config())?;
    let addr = door.local_addr()?;
    let stop = AtomicBool::new(false);
    let meter = Mutex::new(Meter::start());
    std::thread::scope(|s| {
        let handle = s.spawn(|| -> std::io::Result<DoorReport> {
            let mut tr = Tracer::with_origin(traced.unwrap_or_else(Instant::now), traced.is_some());
            meter.lock().expect("no panic holds the meter").sample();
            while !stop.load(Ordering::Relaxed) {
                let idle = door.idle();
                if idle {
                    let mut meter = meter.lock().expect("no panic holds the meter");
                    if meter.due() {
                        meter.sample();
                    }
                }
                let t0 = Instant::now();
                door.poll_once()?;
                let name = if idle {
                    "frontdoor.poll_once.idle"
                } else {
                    "frontdoor.poll_once.busy"
                };
                tr.record(name, t0, Instant::now(), None, None);
            }
            Ok(DoorReport {
                door: door.stats,
                engine: door.engine_stats(),
                spans: tr.spans().to_vec(),
            })
        });
        let out = Client::connect(addr).map(|client| {
            body(&mut Link {
                client,
                meter: &meter,
            })
        });
        stop.store(true, Ordering::Relaxed);
        let report = handle.join().expect("door thread does not panic")?;
        Ok((out?, report))
    })
}

struct Live {
    req: GenRequest,
    flight: Flight,
    tokens: Vec<usize>,
}

/// Sends `due.len()` requests at their due offsets (seconds from now)
/// over the link and reads replies until every one has completed.
/// Windows close on completions, as in the in-process driver. Returns
/// the windows and the bytes that crossed the wire.
pub fn run_schedule(
    link: &mut Link,
    gen: &mut RequestGen,
    traffic: Traffic,
    due: &[f64],
    first_id: u64,
    keep_responses: bool,
    tr: &mut Tracer,
) -> std::io::Result<(Vec<Window>, u64)> {
    let t0 = Instant::now();
    let mut live: HashMap<u64, Live> = HashMap::new();
    let mut next = 0;
    let mut done = 0;
    let mut bytes = 0u64;
    let mut windows = Vec::new();
    let mut w = Window::default();
    let mut w_start = t0;
    while done < due.len() {
        let now = Instant::now();
        let mut wait = Duration::from_millis(50);
        while let Some(&offset) = due.get(next) {
            let at = t0 + Duration::from_secs_f64(offset);
            if at > now {
                wait = at - now;
                break;
            }
            let req = gen.next_request();
            let id = first_id + next as u64;
            let submit = to_submit(id, &req);
            bytes += encode_client(&ClientFrame::Submit(submit.clone())).len() as u64;
            link.client.submit(submit)?;
            w.late_ms.push((Instant::now() - at).as_secs_f64() * 1e3);
            live.insert(
                id,
                Live {
                    req,
                    flight: Flight::new(at),
                    tokens: Vec::new(),
                },
            );
            next += 1;
        }
        let Some(frame) = link.client.recv(wait)? else {
            continue;
        };
        let now = Instant::now();
        bytes += encode_server(&frame).len() as u64;
        match frame {
            ServerFrame::Token { id, token } => {
                let Some(l) = live.get_mut(&id) else { continue };
                if l.flight.token(now, traffic.slo_ms, &mut w) {
                    tr.record("request.ttft", l.flight.due, now, None, Some(id));
                }
                l.tokens.push(token as usize);
            }
            ServerFrame::Done {
                id,
                reason,
                n_tokens,
            } => {
                let Some(l) = live.remove(&id) else { continue };
                tr.record("request", l.flight.due, now, None, Some(id));
                // A torn stream (Done disagreeing with what arrived)
                // fails like a deadline or a quarantine does.
                let ok = reason == FinishReason::Budget
                    && n_tokens as usize == l.tokens.len()
                    && l.tokens.len() == l.req.max_new;
                done += 1;
                w.completed += 1;
                w.failed += usize::from(!ok);
                w.slo_ok += usize::from(ok && l.flight.slo_ok);
                if keep_responses {
                    w.responses.push((l.req, l.tokens));
                }
            }
            ServerFrame::Reject { id, .. } => {
                if live.remove(&id).is_some() {
                    done += 1;
                    w.completed += 1;
                    w.failed += 1;
                }
            }
        }
        if w.completed >= traffic.window_requests || done == due.len() {
            w.wall_s = (now - w_start).as_secs_f64();
            w_start = now;
            // A window that offered the door no idle moment keeps its
            // predecessor's reading.
            w.speed = link.meter.lock().expect("no panic holds the meter").take();
            if w.completed > 0 {
                windows.push(std::mem::take(&mut w));
            }
        }
    }
    Ok((windows, bytes))
}

/// One open-loop run over the wire: half a window's worth of warm-up
/// arrivals, then `seconds` of timed arrivals at `rate_rps`. Returns
/// the timed windows, the bytes that crossed the wire, the door's
/// report and the set-up time (door, connection, warm-up).
fn wire_pass(
    model: &Model,
    name: &str,
    t: Traffic,
    seed: u64,
    (rate_rps, seconds): (f64, f64),
    tr: &mut Tracer,
) -> (Vec<Window>, u64, DoorReport, f64) {
    let prep = Instant::now();
    let mut prep_s = 0.0;
    let mut gen = RequestGen::new(seed, name, model_config().vocab, t);
    let warm = poisson_schedule(
        seed ^ 1,
        rate_rps,
        t.window_requests as f64 / 2.0 / rate_rps,
    );
    let due = poisson_schedule(seed, rate_rps, seconds);
    let origin = tr.enabled().then(|| tr.origin());
    let ((windows, bytes), mut report) = with_door(&model.quant, origin, |link| {
        let mut off = Tracer::new(false);
        let (warmed, _) = run_schedule(link, &mut gen, t, &warm, 0, false, &mut off)
            .expect("warm-up over loopback");
        prep_s = prep.elapsed().as_secs_f64() * warmed[0].scale();
        run_schedule(link, &mut gen, t, &due, 1 << 32, true, tr).expect("timed run over loopback")
    })
    .expect("loopback door");
    tr.absorb(std::mem::take(&mut report.spans));
    (windows, bytes, report, prep_s)
}

/// Runs `wire_open`, untraced or traced.
pub fn workload(model: &Model, base_setup_s: f64, w: &Workload, t: Traffic, o: &Opts) -> Outcome {
    let Arrival::Open { rate_rps } = t.arrival else {
        panic!("wire_open is an open loop");
    };
    // Untraced: one pass of the whole budget. Traced: two traced (A)
    // and two untraced (B) passes alternate, a fifth of the budget
    // each, so host drift lands on both sides of the overhead figure.
    let share = if o.traced { 0.2 } else { 1.0 };
    let mut tr = Tracer::new(o.traced);
    let mut off = Tracer::new(false);
    let (mut a, mut bytes, report, prep_s) = wire_pass(
        model,
        w.name,
        t,
        o.seed,
        (rate_rps, share * o.seconds),
        &mut tr,
    );
    let mut shed = report.door.admission.shed + report.engine.shed as u64;
    let mut b = Vec::new();
    if o.traced {
        let pass = (rate_rps, share * o.seconds);
        b.extend(wire_pass(model, w.name, t, o.seed, pass, &mut off).0);
        let (a2, bytes2, report2, _) = wire_pass(model, w.name, t, o.seed ^ 2, pass, &mut tr);
        a.extend(a2);
        bytes += bytes2;
        shed += report2.door.admission.shed + report2.engine.shed as u64;
        b.extend(wire_pass(model, w.name, t, o.seed ^ 2, pass, &mut off).0);
    }
    let sa = print_summary(
        w.name,
        if o.traced { "traced" } else { "untraced" },
        &a,
        true,
    );
    let sample = o.verify_sample(&t);
    let responses: Vec<_> = a.iter().flat_map(|w| w.responses.iter().cloned()).collect();
    let (checked, bad) = mismatches(&model.quant, &responses, sample);
    let mut metrics = end_to_end(&sa, base_setup_s + prep_s);

    if o.traced {
        let sb = print_summary(w.name, "untraced, for the tracing overhead", &b, true);

        // The same arrival schedule with no wire: the harness thread
        // drives the engine itself.
        let mut engine =
            ContinuousBatcher::new(&model.quant, engine_config()).expect("sixteen slots");
        let gen = RequestGen::new(o.seed, w.name, model_config().vocab, t);
        let due = poisson_schedule(o.seed, rate_rps, share * o.seconds);
        let replay =
            Driver::open(&mut engine, gen, t, due).run(Until::Drained, Keep::default(), &mut off);
        let sr = print_summary(
            w.name,
            "in-process replay of the same schedule",
            &replay,
            true,
        );

        let mut busy: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "frontdoor.poll_once.busy")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        sort(&mut busy);
        let mut late: Vec<f64> = a.iter().flat_map(|w| w.late_ms.iter().copied()).collect();
        sort(&mut late);
        metrics = vec![
            ("frontdoor.poll_once_busy_ms_p50", percentile(&busy, 50.0)),
            ("frontdoor.wire_tax_ttft_ms", sa.ttft_ms.0 - sr.ttft_ms.0),
            ("frontdoor.gen_late_ms_p99", percentile(&late, 99.0)),
            (
                "frontdoor.bytes_per_token",
                bytes as f64 / a.iter().map(|w| w.tokens).sum::<usize>().max(1) as f64,
            ),
            ("frontdoor.shed", shed as f64),
            ("frontdoor.itl_ms_p99", sa.itl_ms.2),
            ("trace_overhead_frac", 1.0 - sb.ttft_ms.0 / sa.ttft_ms.0),
        ];
        metrics.extend(request_tails(&sa));
        println!(
            "  trace overhead: ttft_ms_p50 {:+.2}%  tok_s {:+.2}% (arrival-bound)",
            100.0 * (sa.ttft_ms.0 / sb.ttft_ms.0 - 1.0),
            100.0 * (sb.tok_s / sa.tok_s - 1.0)
        );

        // Three fixed rates; the highest that keeps its promise.
        let mut max_ok = 0.0;
        for (frac, ttft_name) in [
            (0.25, "frontdoor.ttft_ms_p50_r025"),
            (0.50, "frontdoor.ttft_ms_p50_r050"),
            (0.75, "frontdoor.ttft_ms_p50_r075"),
        ] {
            let rate = frac * WIRE_CAPACITY_RPS;
            let (ws, ..) = wire_pass(
                model,
                w.name,
                t,
                o.seed ^ 0x5EE9,
                (rate, 0.12 * o.seconds),
                &mut off,
            );
            let s = summarize(&ws, true);
            println!(
                "  rate {rate:>5.1} req/s: ttft p50 {:.3} ms  slo_ok {:.3}  ({} requests)",
                s.ttft_ms.0, s.slo_ok_frac, s.counts.1
            );
            metrics.push((ttft_name, s.ttft_ms.0));
            if frac == 0.75 {
                metrics.push(("frontdoor.slo_ok_frac_r075", s.slo_ok_frac));
            }
            if s.slo_ok_frac >= SLO_SHARE && s.counts.2 == 0 {
                max_ok = rate;
            }
        }
        metrics.push(("frontdoor.max_rate_ok", max_ok));
        let (set, _) = probe_set(w.name);
        metrics.extend(run_probes(model, o, &set));
        write_trace(w.name, &tr);
    }
    let failed = sa.counts.2 + bad;
    Outcome {
        workload: w.name,
        seed: o.seed,
        traced: o.traced,
        correct: failed == 0 && checked > 0,
        attempted: sa.counts.1 + checked,
        failed,
        digest: digest(&responses).hex(),
        metrics,
    }
}
