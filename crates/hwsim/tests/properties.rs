//! Property-based tests of the timeline scheduler: ordering, causality
//! and conservation laws that must hold for any schedule.

use hwsim::cycles::Cycle;
use hwsim::timeline::Timeline;
use proptest::prelude::*;

proptest! {
    #[test]
    fn unit_events_never_overlap(durations in proptest::collection::vec(0u64..50, 1..20)) {
        let mut tl = Timeline::new();
        let u = tl.add_unit("u");
        for (i, &d) in durations.iter().enumerate() {
            tl.schedule(u, format!("e{i}"), Cycle(d), &[]);
        }
        let evs = tl.events();
        for w in evs.windows(2) {
            prop_assert!(w[1].start >= w[0].end, "events overlap on one unit");
        }
        // conservation: busy == sum of durations
        prop_assert_eq!(tl.busy(u), Cycle(durations.iter().sum::<u64>()));
    }

    #[test]
    fn dependencies_are_causal(
        chain in proptest::collection::vec(1u64..40, 2..15),
        cross_unit in proptest::bool::ANY,
    ) {
        let mut tl = Timeline::new();
        let u1 = tl.add_unit("a");
        let u2 = tl.add_unit("b");
        let mut prev = None;
        for (i, &d) in chain.iter().enumerate() {
            let unit = if cross_unit && i % 2 == 1 { u2 } else { u1 };
            let deps: Vec<_> = prev.into_iter().collect();
            let e = tl.schedule(unit, format!("e{i}"), Cycle(d), &deps);
            if let Some(p) = prev {
                prop_assert!(tl.start_of(e) >= tl.end_of(p), "dependency violated");
            }
            prev = Some(e);
        }
        // chained schedule: makespan == sum of durations
        prop_assert_eq!(tl.makespan(), Cycle(chain.iter().sum::<u64>()));
    }

    #[test]
    fn makespan_bounds_every_unit(
        lanes in proptest::collection::vec(proptest::collection::vec(1u64..30, 0..8), 1..5),
    ) {
        let mut tl = Timeline::new();
        let units: Vec<_> = (0..lanes.len()).map(|i| tl.add_unit(format!("u{i}"))).collect();
        for (u, ds) in units.iter().zip(&lanes) {
            for &d in ds {
                tl.schedule(*u, "x", Cycle(d), &[]);
            }
        }
        for &u in &units {
            prop_assert!(tl.busy(u) <= tl.makespan());
            let util = tl.utilization(u);
            prop_assert!((0.0..=1.0).contains(&util));
        }
    }

    #[test]
    fn independent_units_run_fully_parallel(d1 in 1u64..100, d2 in 1u64..100) {
        let mut tl = Timeline::new();
        let a = tl.add_unit("a");
        let b = tl.add_unit("b");
        tl.schedule(a, "x", Cycle(d1), &[]);
        tl.schedule(b, "y", Cycle(d2), &[]);
        prop_assert_eq!(tl.makespan(), Cycle(d1.max(d2)));
    }

    #[test]
    fn memory_spec_blocks_scale_with_capacity(depth in 1u64..100_000, width in 1u64..256) {
        use hwsim::memory::{MemorySpec, BRAM36_BITS};
        let spec = MemorySpec::new(depth, width);
        let blocks = spec.bram36_blocks();
        prop_assert!(blocks >= 0.5);
        // never less than the raw capacity bound
        let capacity_bound = spec.bits() as f64 / BRAM36_BITS as f64;
        prop_assert!(blocks >= capacity_bound * 0.49, "{blocks} vs cap {capacity_bound}");
    }
}
