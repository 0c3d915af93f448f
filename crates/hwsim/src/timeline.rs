//! Dependency-driven unit timeline — the scheduling core of the
//! cycle-level simulator.

use serde::{Deserialize, Serialize};

use crate::cycles::Cycle;

/// Handle to a hardware unit (a non-preemptive, in-order resource).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UnitId(usize);

/// Handle to a scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventId(usize);

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The unit the operation occupies.
    pub unit: UnitId,
    /// Human-readable label (shows up in the Gantt trace).
    pub label: String,
    /// First cycle of the operation.
    pub start: Cycle,
    /// One past the last cycle of the operation.
    pub end: Cycle,
    /// Declared data dependencies (for critical-path extraction).
    pub deps: Vec<EventId>,
}

/// A dependency-driven schedule over a set of hardware units.
///
/// Scheduling resolves each event's start cycle as the maximum of the
/// unit's free time and all dependency end times; units execute events
/// in the order they are scheduled (in-order issue, as static hardware
/// control logic does).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    unit_names: Vec<String>,
    unit_free: Vec<Cycle>,
    unit_busy: Vec<Cycle>,
    events: Vec<Event>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a hardware unit.
    pub fn add_unit(&mut self, name: impl Into<String>) -> UnitId {
        self.unit_names.push(name.into());
        self.unit_free.push(Cycle::ZERO);
        self.unit_busy.push(Cycle::ZERO);
        UnitId(self.unit_names.len() - 1)
    }

    /// Unit name.
    pub fn unit_name(&self, u: UnitId) -> &str {
        &self.unit_names[u.0]
    }

    /// Schedules `label` on `unit` for `duration` cycles after all
    /// `deps` have finished (and after the unit is free). Zero-duration
    /// events are allowed (pure synchronisation points).
    pub fn schedule(
        &mut self,
        unit: UnitId,
        label: impl Into<String>,
        duration: Cycle,
        deps: &[EventId],
    ) -> EventId {
        let mut start = self.unit_free[unit.0];
        for d in deps {
            start = start.max(self.events[d.0].end);
        }
        let end = start + duration;
        self.unit_free[unit.0] = end;
        self.unit_busy[unit.0] += duration;
        self.events.push(Event {
            unit,
            label: label.into(),
            start,
            end,
            deps: deps.to_vec(),
        });
        EventId(self.events.len() - 1)
    }

    /// Borrow of one event.
    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e.0]
    }

    /// End cycle of an event.
    pub fn end_of(&self, e: EventId) -> Cycle {
        self.events[e.0].end
    }

    /// Start cycle of an event.
    pub fn start_of(&self, e: EventId) -> Cycle {
        self.events[e.0].start
    }

    /// Total makespan: the latest event end (zero when empty).
    pub fn makespan(&self) -> Cycle {
        self.events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// Cycles during which `unit` was executing.
    pub fn busy(&self, unit: UnitId) -> Cycle {
        self.unit_busy[unit.0]
    }

    /// Busy fraction of `unit` over the makespan (0 when empty).
    pub fn utilization(&self, unit: UnitId) -> f64 {
        let total = self.makespan().get();
        if total == 0 {
            0.0
        } else {
            self.busy(unit).get() as f64 / total as f64
        }
    }

    /// All scheduled events in schedule order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Extracts a critical path ending at the makespan: walks back from
    /// the last-finishing event through whichever constraint bound each
    /// event's start — a data dependency ending exactly at the start, or
    /// the unit's previous event (structural hazard). Returns event ids
    /// in execution order.
    pub fn critical_path(&self) -> Vec<EventId> {
        let Some(last) =
            (0..self.events.len()).max_by_key(|&i| (self.events[i].end, std::cmp::Reverse(i)))
        else {
            return Vec::new();
        };
        let mut path = vec![EventId(last)];
        let mut current = last;
        loop {
            let ev = &self.events[current];
            if ev.start == Cycle::ZERO {
                break;
            }
            // a dependency that pinned the start?
            let dep = ev
                .deps
                .iter()
                .find(|d| self.events[d.0].end == ev.start)
                .copied();
            // or the unit's predecessor finishing exactly at our start
            let pred = (0..current)
                .rev()
                .find(|&i| self.events[i].unit == ev.unit && self.events[i].end == ev.start)
                .map(EventId);
            match dep.or(pred) {
                Some(prev) => {
                    path.push(prev);
                    current = prev.0;
                }
                None => break, // nothing pinned the start: path ends here
            }
        }
        path.reverse();
        path
    }

    /// Renders a proportional text Gantt chart, one unit per line,
    /// `width` characters across the makespan.
    pub fn gantt(&self, width: usize) -> String {
        let total = self.makespan().get().max(1);
        let width = width.max(10);
        let name_w = self
            .unit_names
            .iter()
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut out = String::new();
        for (i, name) in self.unit_names.iter().enumerate() {
            let mut lane = vec![' '; width];
            for e in self.events.iter().filter(|e| e.unit.0 == i) {
                let a = (e.start.get() * width as u64 / total) as usize;
                let b = ((e.end.get() * width as u64).div_ceil(total) as usize).min(width);
                let ch = e.label.chars().next().unwrap_or('#');
                for slot in lane.iter_mut().take(b).skip(a) {
                    *slot = ch;
                }
            }
            out.push_str(&format!("{name:>name_w$} |"));
            out.extend(lane);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>name_w$}  0 .. {} cycles\n",
            "",
            self.makespan().get()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_events_on_one_unit_serialize() {
        let mut tl = Timeline::new();
        let u = tl.add_unit("sa");
        let a = tl.schedule(u, "a", Cycle(10), &[]);
        let b = tl.schedule(u, "b", Cycle(5), &[]);
        assert_eq!(tl.end_of(a), Cycle(10));
        assert_eq!(tl.start_of(b), Cycle(10));
        assert_eq!(tl.end_of(b), Cycle(15));
        assert_eq!(tl.makespan(), Cycle(15));
    }

    #[test]
    fn dependencies_delay_start() {
        let mut tl = Timeline::new();
        let u1 = tl.add_unit("a");
        let u2 = tl.add_unit("b");
        let x = tl.schedule(u1, "x", Cycle(100), &[]);
        let y = tl.schedule(u2, "y", Cycle(10), &[x]);
        assert_eq!(tl.start_of(y), Cycle(100));
        assert_eq!(tl.makespan(), Cycle(110));
    }

    #[test]
    fn parallel_units_overlap() {
        let mut tl = Timeline::new();
        let sa = tl.add_unit("sa");
        let sm = tl.add_unit("softmax");
        let qk = tl.schedule(sa, "qk", Cycle(64), &[]);
        let smx = tl.schedule(sm, "sm", Cycle(128), &[qk]);
        let vw = tl.schedule(sa, "vw", Cycle(512), &[]);
        // softmax (ends 192) hides behind vw (ends 576)
        let pv = tl.schedule(sa, "pv", Cycle(64), &[smx, vw]);
        assert_eq!(tl.start_of(pv), Cycle(576));
        assert_eq!(tl.end_of(pv), Cycle(640));
    }

    #[test]
    fn utilization_accounts_idle_gaps() {
        let mut tl = Timeline::new();
        let a = tl.add_unit("a");
        let b = tl.add_unit("b");
        let x = tl.schedule(a, "x", Cycle(50), &[]);
        let _ = tl.schedule(b, "y", Cycle(50), &[x]);
        assert!((tl.utilization(a) - 0.5).abs() < 1e-9);
        assert!((tl.utilization(b) - 0.5).abs() < 1e-9);
        assert_eq!(tl.busy(a), Cycle(50));
    }

    #[test]
    fn zero_duration_sync_points() {
        let mut tl = Timeline::new();
        let u = tl.add_unit("u");
        let a = tl.schedule(u, "a", Cycle(10), &[]);
        let sync = tl.schedule(u, "sync", Cycle::ZERO, &[a]);
        assert_eq!(tl.end_of(sync), Cycle(10));
        assert_eq!(tl.makespan(), Cycle(10));
    }

    #[test]
    fn critical_path_follows_dependencies() {
        let mut tl = Timeline::new();
        let a = tl.add_unit("a");
        let b = tl.add_unit("b");
        let x = tl.schedule(a, "x", Cycle(10), &[]);
        let _y = tl.schedule(b, "y", Cycle(3), &[]); // off-path
        let z = tl.schedule(b, "z", Cycle(20), &[x]);
        let w = tl.schedule(a, "w", Cycle(5), &[z]);
        let path = tl.critical_path();
        assert_eq!(path, vec![x, z, w]);
    }

    #[test]
    fn critical_path_follows_structural_hazards() {
        let mut tl = Timeline::new();
        let u = tl.add_unit("u");
        let a = tl.schedule(u, "a", Cycle(10), &[]);
        let b = tl.schedule(u, "b", Cycle(10), &[]); // waits on the unit
        let path = tl.critical_path();
        assert_eq!(path, vec![a, b]);
    }

    #[test]
    fn empty_timeline_has_empty_path() {
        assert!(Timeline::new().critical_path().is_empty());
    }

    #[test]
    fn gantt_renders_all_units() {
        let mut tl = Timeline::new();
        let a = tl.add_unit("alpha");
        let b = tl.add_unit("beta");
        let x = tl.schedule(a, "x", Cycle(10), &[]);
        let _ = tl.schedule(b, "y", Cycle(10), &[x]);
        let g = tl.gantt(40);
        assert!(g.contains("alpha"));
        assert!(g.contains("beta"));
        assert!(g.contains("20 cycles"));
    }

    #[test]
    fn empty_timeline_is_sane() {
        let tl = Timeline::new();
        assert_eq!(tl.makespan(), Cycle::ZERO);
    }
}
