//! Reusable Pareto-frontier extraction over any number of objectives.
//!
//! [`crate::sweep::pareto_latency_vs_lut`] started life as a two-axis
//! (latency, LUT) helper; the cross-backend explorer needs at least
//! three axes (cycles × area × accuracy), so the dominance machinery
//! lives here, generic over an objective extractor. All objectives are
//! **minimised**; callers flip signs for maximised quantities (e.g.
//! pass `-sqnr_db` to prefer higher SQNR).

/// Strict Pareto dominance: `a` dominates `b` iff `a` is no worse on
/// every objective and strictly better on at least one. Both slices
/// must have the same length (one entry per objective, minimised).
///
/// # Panics
///
/// Panics if the objective vectors differ in length.
pub(crate) fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective arity mismatch");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Extracts the Pareto frontier of `points` under the objective
/// extractor `objectives` (all minimised): a point survives iff no
/// other point strictly dominates it. Points with identical objective
/// vectors all survive (none dominates the other); callers wanting one
/// representative should dedup afterwards, as
/// [`crate::sweep::pareto_latency_vs_lut`] does.
///
/// The frontier is returned sorted by the first objective (ties broken
/// by the remaining objectives in order), which keeps serialized
/// frontiers stable across runs.
///
/// # Panics
///
/// Panics if any objective is NaN (dominance would be ill-defined) or
/// the extractor returns vectors of differing arity.
pub(crate) fn front_by<T: Clone>(points: &[T], objectives: impl Fn(&T) -> Vec<f64>) -> Vec<T> {
    let objs: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let o = objectives(p);
            assert!(
                o.iter().all(|v| !v.is_nan()),
                "NaN objective breaks dominance"
            );
            o
        })
        .collect();
    if let Some(first) = objs.first() {
        assert!(
            objs.iter().all(|o| o.len() == first.len()),
            "objective arity mismatch"
        );
    }
    let mut frontier: Vec<(T, Vec<f64>)> = points
        .iter()
        .zip(&objs)
        .filter(|(_, cand)| !objs.iter().any(|other| dominates(other, cand)))
        .map(|(p, o)| (p.clone(), o.clone()))
        .collect();
    frontier.sort_by(|(_, a), (_, b)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.partial_cmp(y).expect("non-NaN objectives"))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier.into_iter().map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
        assert!(dominates(&[1.0, 1.0, 0.0], &[1.0, 2.0, 0.0]));
        assert!(
            !dominates(&[1.0, 1.0], &[1.0, 1.0]),
            "equal never dominates"
        );
        assert!(!dominates(&[0.0, 2.0], &[2.0, 0.0]), "trade-off");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mismatched_arity_rejected() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn three_objective_front() {
        // (cycles, lut, noise): a is fast+big+exact, b slow+small+exact,
        // c mid+mid+lossy, d dominated by c on every axis.
        let pts = vec![
            ("a", [1.0, 9.0, 0.0]),
            ("b", [9.0, 1.0, 0.0]),
            ("c", [5.0, 5.0, 0.5]),
            ("d", [6.0, 6.0, 0.6]),
        ];
        let front = front_by(&pts, |p| p.1.to_vec());
        let names: Vec<&str> = front.iter().map(|p| p.0).collect();
        assert_eq!(names, vec!["a", "c", "b"]);
    }

    #[test]
    fn incomparable_points_all_survive_and_sort_stably() {
        let pts = vec![("x", [2.0, 1.0]), ("y", [1.0, 2.0]), ("z", [1.0, 2.0])];
        let front = front_by(&pts, |p| p.1.to_vec());
        assert_eq!(front.len(), 3);
        assert_eq!(front[0].1[0], 1.0, "sorted by first objective");
        assert_eq!(front[2].0, "x");
    }

    #[test]
    fn empty_input_yields_empty_front() {
        let front = front_by(&Vec::<(&str, [f64; 2])>::new(), |p| p.1.to_vec());
        assert!(front.is_empty());
    }
}
