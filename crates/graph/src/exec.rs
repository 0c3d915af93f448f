//! The value environment graphs run in.

use std::sync::Arc;

/// Named tensor values produced by a graph run. Slot order matches the
/// graph's [`ExecPlan`](crate::ExecPlan): inputs first, then node
/// outputs.
#[derive(Debug)]
pub struct Env<V> {
    names: Arc<[String]>,
    values: Vec<Option<V>>,
}

impl<V> Env<V> {
    /// Builds an environment with one empty slot per name (a
    /// `Vec<String>`, or a plan's shared
    /// [`slot_names`](crate::ExecPlan::slot_names)).
    pub fn new(names: impl Into<Arc<[String]>>) -> Self {
        let names = names.into();
        let values = names.iter().map(|_| None).collect();
        Env { names, values }
    }

    /// Slot index of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no tensor with that name.
    pub fn slot(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no tensor named {name:?} in this graph"))
    }

    /// Stores a value into a slot, replacing any previous value.
    pub fn set(&mut self, slot: usize, value: V) {
        self.values[slot] = Some(value);
    }

    /// Borrows the value in a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never filled (or was already taken).
    pub fn value(&self, slot: usize) -> &V {
        self.values[slot]
            .as_ref()
            .unwrap_or_else(|| panic!("tensor {:?} was not computed", self.names[slot]))
    }

    /// Borrows a value by name, if present.
    pub fn get(&self, name: &str) -> Option<&V> {
        let slot = self.names.iter().position(|n| n == name)?;
        self.values[slot].as_ref()
    }

    /// Removes and returns the value named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the graph never produced that tensor or it was already
    /// taken.
    pub fn take(&mut self, name: &str) -> V {
        let slot = self.slot(name);
        self.values[slot]
            .take()
            .unwrap_or_else(|| panic!("tensor {name:?} was not computed (or already taken)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_set_get_take() {
        let mut env: Env<i32> = Env::new(vec!["a".into(), "b".into()]);
        env.set(0, 7);
        assert_eq!(*env.value(0), 7);
        assert_eq!(env.get("a"), Some(&7));
        assert_eq!(env.get("b"), None);
        assert_eq!(env.take("a"), 7);
        assert_eq!(env.get("a"), None);
    }

    #[test]
    #[should_panic(expected = "was not computed")]
    fn taking_missing_value_panics() {
        let mut env: Env<i32> = Env::new(vec!["a".into()]);
        let _ = env.take("a");
    }

    #[test]
    #[should_panic(expected = "no tensor named")]
    fn unknown_name_panics() {
        let env: Env<i32> = Env::new(vec!["a".into()]);
        let _ = env.slot("ghost");
    }
}
