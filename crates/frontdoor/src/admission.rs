//! Admission control: per-tenant token-bucket quotas and a bounded,
//! priority-classed staging buffer with shed-lowest-first overflow.
//!
//! The front door stages accepted work here before feeding the engine,
//! so overload policy lives in one place:
//!
//! * **Quotas** — every tenant draws from a token bucket charged by
//!   request weight (source + prompt + requested decode tokens). An
//!   empty bucket rejects with [`RejectCode::Quota`] before the
//!   request can occupy any buffer space.
//! * **Priorities** — three classes, `0` (latency-sensitive) to `2`
//!   (batch). The engine is always fed from the highest class with
//!   work; FIFO within a class.
//! * **Bounded buffer, shed don't grow** — when the buffer is at
//!   capacity, an arriving request either evicts a strictly
//!   lower-priority victim (the victim is shed with
//!   [`RejectCode::QueueFull`]) or is itself rejected. Buffer memory
//!   is therefore O(capacity) no matter the offered load.
//!
//! Time is passed in by the caller (`Instant`), never read from a
//! global clock, so tests can drive refill deterministically.

use crate::frame::{RejectCode, Submit};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Number of priority classes (`0..PRIORITY_CLASSES`).
pub(crate) const PRIORITY_CLASSES: usize = 3;

/// A classic token bucket: `level` tokens available, refilled at
/// `refill_per_sec` up to `capacity`.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    level: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub(crate) fn new(capacity: f64, refill_per_sec: f64, now: Instant) -> Self {
        Self {
            capacity,
            refill_per_sec,
            level: capacity,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.level = (self.level + dt * self.refill_per_sec).min(self.capacity);
        self.last = now;
    }

    /// Charges `cost` tokens if available; returns whether it fit.
    pub(crate) fn try_charge(&mut self, cost: f64, now: Instant) -> bool {
        self.refill(now);
        if self.level + 1e-9 >= cost {
            self.level -= cost;
            true
        } else {
            false
        }
    }
}

/// Admission policy knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max requests staged across all priority classes.
    pub max_buffered: usize,
    /// Token-bucket burst capacity granted to each tenant (in request
    /// weight units: source + prompt + requested decode tokens).
    pub bucket_capacity: f64,
    /// Sustained per-tenant rate, weight units per second.
    pub bucket_refill_per_sec: f64,
    /// Per-tenant `(tenant, capacity, refill_per_sec)` overrides for
    /// tenants whose contract differs from the default bucket.
    pub tenant_buckets: Vec<(u16, f64, f64)>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_buffered: 64,
            bucket_capacity: 4096.0,
            bucket_refill_per_sec: 2048.0,
            tenant_buckets: Vec::new(),
        }
    }
}

/// Counters the door folds into its stats snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests accepted into the staging buffer.
    pub admitted: u64,
    /// Requests rejected because the tenant bucket was empty.
    pub quota_rejected: u64,
    /// Requests shed because the buffer was full (arrivals bounced or
    /// staged victims evicted by a higher class).
    pub shed: u64,
    /// Of `shed`, how many were already-staged victims evicted to make
    /// room for a higher-priority arrival.
    pub evicted: u64,
}

/// One staged request plus the instant it arrived (for queue-age
/// accounting in the door's deadline purge).
#[derive(Debug, Clone)]
pub struct Staged {
    /// The request as received (with the door-global id).
    pub submit: Submit,
    /// When the door accepted it.
    pub arrived: Instant,
}

/// Outcome of [`Admission::offer`] when the request was accepted.
#[derive(Debug)]
pub struct Accepted {
    /// A lower-priority staged request evicted to make room, if the
    /// buffer was full. The caller owes its client a `QueueFull`
    /// rejection frame.
    pub evicted: Option<Staged>,
}

/// The admission controller.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: HashMap<u16, TokenBucket>,
    classes: [VecDeque<Staged>; PRIORITY_CLASSES],
    buffered: usize,
    /// Lifetime counters.
    pub stats: AdmissionStats,
}

impl Admission {
    /// A controller with the given policy and no tenants yet.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            buckets: HashMap::new(),
            classes: Default::default(),
            buffered: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// Weight a request charges against its tenant's bucket.
    pub(crate) fn cost(s: &Submit) -> f64 {
        (s.src.len() + s.prompt.len() + s.max_new as usize) as f64
    }

    /// Number of requests currently staged.
    pub(crate) fn buffered(&self) -> usize {
        self.buffered
    }

    /// Offers a request. `Ok` means it is staged (possibly displacing
    /// `evicted`); `Err` carries the rejection code for the offerer.
    pub fn offer(&mut self, submit: Submit, now: Instant) -> Result<Accepted, RejectCode> {
        let cfg = &self.cfg;
        let bucket = self.buckets.entry(submit.tenant).or_insert_with(|| {
            let (cap, refill) = cfg
                .tenant_buckets
                .iter()
                .find(|&&(t, _, _)| t == submit.tenant)
                .map(|&(_, c, r)| (c, r))
                .unwrap_or((cfg.bucket_capacity, cfg.bucket_refill_per_sec));
            TokenBucket::new(cap, refill, now)
        });
        if !bucket.try_charge(Self::cost(&submit), now) {
            self.stats.quota_rejected += 1;
            return Err(RejectCode::Quota);
        }

        let class = submit.priority as usize;
        let mut evicted = None;
        if self.buffered >= self.cfg.max_buffered {
            // Full: evict the newest request of the lowest class that
            // is strictly below the arrival, else bounce the arrival.
            match (class + 1..PRIORITY_CLASSES)
                .rev()
                .find(|&c| !self.classes[c].is_empty())
            {
                Some(victim_class) => {
                    evicted = self.classes[victim_class].pop_back();
                    self.buffered -= 1;
                    self.stats.shed += 1;
                    self.stats.evicted += 1;
                }
                None => {
                    self.stats.shed += 1;
                    return Err(RejectCode::QueueFull);
                }
            }
        }

        self.classes[class].push_back(Staged {
            submit,
            arrived: now,
        });
        self.buffered += 1;
        self.stats.admitted += 1;
        Ok(Accepted { evicted })
    }

    /// Takes the next request to feed the engine: highest class first,
    /// FIFO within a class.
    pub fn pop(&mut self) -> Option<Staged> {
        for class in &mut self.classes {
            if let Some(staged) = class.pop_front() {
                self.buffered -= 1;
                return Some(staged);
            }
        }
        None
    }

    /// Removes a staged request by id (client cancelled or hung up
    /// before the engine saw it). Returns whether it was present.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        for class in &mut self.classes {
            if let Some(pos) = class.iter().position(|s| s.submit.id == id) {
                class.remove(pos);
                self.buffered -= 1;
                return true;
            }
        }
        false
    }

    /// Drains every staged request whose wall deadline (arrival +
    /// `deadline_ms`) has passed, returning them so the door can send
    /// each client a deadline-expired completion.
    pub(crate) fn purge_expired(&mut self, now: Instant) -> Vec<Staged> {
        let mut out = Vec::new();
        for class in &mut self.classes {
            let mut keep = VecDeque::with_capacity(class.len());
            for staged in class.drain(..) {
                let expired = staged.submit.deadline_ms != 0
                    && now.saturating_duration_since(staged.arrived)
                        >= Duration::from_millis(u64::from(staged.submit.deadline_ms));
                if expired {
                    out.push(staged);
                } else {
                    keep.push_back(staged);
                }
            }
            *class = keep;
        }
        self.buffered -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(id: u64, tenant: u16, priority: u8, weight: u32) -> Submit {
        Submit {
            id,
            tenant,
            priority,
            deadline_ms: 0,
            max_new: weight,
            src: vec![],
            prompt: vec![],
        }
    }

    #[test]
    fn bucket_charges_and_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(100.0, 50.0, t0);
        assert!(b.try_charge(80.0, t0));
        assert!(!b.try_charge(80.0, t0), "only 20 left");
        let t1 = t0 + Duration::from_secs(1);
        assert!(b.try_charge(70.0, t1), "refilled 50 -> 70 available");
        let t2 = t1 + Duration::from_secs(100);
        b.refill(t2);
        assert!((b.level - 100.0).abs() < 1e-6, "capped at capacity");
    }

    #[test]
    fn quota_exhaustion_rejects_before_buffering() {
        let now = Instant::now();
        let mut adm = Admission::new(AdmissionConfig {
            bucket_capacity: 100.0,
            bucket_refill_per_sec: 0.0,
            ..Default::default()
        });
        assert!(adm.offer(submit(1, 7, 1, 60), now).is_ok());
        let err = adm.offer(submit(2, 7, 1, 60), now).unwrap_err();
        assert_eq!(err, RejectCode::Quota);
        // A different tenant has its own bucket.
        assert!(adm.offer(submit(3, 8, 1, 60), now).is_ok());
        assert_eq!(adm.buffered(), 2);
        assert_eq!(adm.stats.quota_rejected, 1);
    }

    #[test]
    fn tenant_bucket_overrides_apply() {
        let now = Instant::now();
        let mut adm = Admission::new(AdmissionConfig {
            bucket_capacity: 1000.0,
            bucket_refill_per_sec: 0.0,
            tenant_buckets: vec![(9, 50.0, 0.0)],
            ..Default::default()
        });
        assert!(adm.offer(submit(1, 9, 1, 40), now).is_ok());
        let err = adm.offer(submit(2, 9, 1, 40), now).unwrap_err();
        assert_eq!(err, RejectCode::Quota, "override capacity exhausted");
        assert!(
            adm.offer(submit(3, 1, 1, 400), now).is_ok(),
            "default bucket"
        );
    }

    #[test]
    fn pop_serves_highest_class_fifo() {
        let now = Instant::now();
        let mut adm = Admission::new(AdmissionConfig::default());
        for (id, prio) in [(1, 2), (2, 0), (3, 1), (4, 0)] {
            adm.offer(submit(id, 0, prio, 1), now).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| adm.pop().map(|s| s.submit.id)).collect();
        assert_eq!(order, [2, 4, 3, 1]);
    }

    #[test]
    fn full_buffer_evicts_lowest_class_else_bounces() {
        let now = Instant::now();
        let mut adm = Admission::new(AdmissionConfig {
            max_buffered: 2,
            ..Default::default()
        });
        adm.offer(submit(1, 0, 2, 1), now).unwrap();
        adm.offer(submit(2, 0, 1, 1), now).unwrap();
        // Priority-0 arrival evicts the newest strictly-lower victim —
        // the class-2 request, even though class 1 enqueued later.
        let acc = adm.offer(submit(3, 0, 0, 1), now).unwrap();
        assert_eq!(acc.evicted.unwrap().submit.id, 1);
        // Equal-or-higher arrivals cannot evict: class 1 vs {0, 1}.
        let err = adm.offer(submit(4, 0, 1, 1), now).unwrap_err();
        assert_eq!(err, RejectCode::QueueFull);
        assert_eq!(adm.stats.shed, 2);
        assert_eq!(adm.stats.evicted, 1);
        assert_eq!(adm.buffered(), 2);
    }

    #[test]
    fn remove_and_purge_expired() {
        let t0 = Instant::now();
        let mut adm = Admission::new(AdmissionConfig::default());
        let mut s = submit(1, 0, 1, 1);
        s.deadline_ms = 10;
        adm.offer(s, t0).unwrap();
        adm.offer(submit(2, 0, 1, 1), t0).unwrap();
        adm.offer(submit(3, 0, 2, 1), t0).unwrap();
        assert!(adm.remove(3));
        assert!(!adm.remove(3));
        let expired = adm.purge_expired(t0 + Duration::from_millis(50));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].submit.id, 1);
        // Request 2 has no deadline and stays.
        assert_eq!(adm.buffered(), 1);
        assert_eq!(adm.pop().unwrap().submit.id, 2);
    }
}
