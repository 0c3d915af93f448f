//! [`counters!`](crate::counters): a counters struct declared together
//! with its `merge`.
//!
//! Stats structs that roll up across runs, shards or engines used to
//! hand-write `merge` one field at a time, and a field added to the
//! struct but not to `merge` was silently dropped from every roll-up.
//! Declaring each field with its fold rule makes that impossible: the
//! macro emits the struct and a `merge` that folds every field.

/// Declares a counters struct and its `merge(&mut self, &Self)`. Each
/// field names how two values fold: `sum` (`+=`, any `AddAssign` type)
/// or `max` (a high-water mark). Attributes and docs pass through.
///
/// ```
/// tensor::counters! {
///     /// Work done.
///     #[derive(Debug, Default, PartialEq)]
///     pub struct Tally {
///         /// Items handled.
///         pub items: usize => sum,
///         /// Largest batch seen.
///         pub peak: usize => max,
///     }
/// }
/// let mut a = Tally { items: 2, peak: 5 };
/// a.merge(&Tally { items: 3, peak: 4 });
/// assert_eq!(a, Tally { items: 5, peak: 5 });
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty => $rule:ident
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Folds `other` into `self`, every field by its declared
            /// rule (sums add, high-water marks take the larger).
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counters!(@fold $rule, self.$field, other.$field); )*
            }
        }
    };
    (@fold sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (@fold max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}
