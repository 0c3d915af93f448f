//! Parameter snapshots: save and restore every trainable buffer of a
//! model through its [`HasParams`] visitation, so a trained model can be
//! persisted (e.g. as JSON via serde) and reloaded by the experiment
//! harness without retraining.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::opt::HasParams;

/// A named snapshot of every parameter buffer, in visitation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    entries: Vec<(String, Vec<f32>)>,
}

impl StateDict {
    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.entries.iter().map(|(_, v)| v.len()).sum()
    }
}

/// Error restoring a [`StateDict`] into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadStateError {
    /// The snapshot has a different number of buffers than the model.
    BufferCountMismatch {
        /// Buffers in the snapshot.
        expected: usize,
        /// Buffers the model visited.
        got: usize,
    },
    /// A buffer's name differs (model structure changed).
    NameMismatch {
        /// Buffer index.
        index: usize,
        /// Name in the snapshot.
        expected: String,
        /// Name in the model.
        got: String,
    },
    /// A buffer's length differs (model dimensions changed).
    SizeMismatch {
        /// Buffer name.
        name: String,
        /// Length in the snapshot.
        expected: usize,
        /// Length in the model.
        got: usize,
    },
}

impl fmt::Display for LoadStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadStateError::BufferCountMismatch { expected, got } => {
                write!(f, "state dict has {expected} buffers, model has {got}")
            }
            LoadStateError::NameMismatch {
                index,
                expected,
                got,
            } => {
                write!(
                    f,
                    "buffer {index} name mismatch: state '{expected}' vs model '{got}'"
                )
            }
            LoadStateError::SizeMismatch {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "buffer '{name}' size mismatch: state {expected} vs model {got}"
                )
            }
        }
    }
}

impl Error for LoadStateError {}

/// Snapshots every parameter buffer of `model`.
pub fn state_dict(model: &mut impl HasParams) -> StateDict {
    let mut entries = Vec::new();
    model.visit_params(&mut |name, p, _| {
        entries.push((name.to_string(), p.to_vec()));
    });
    StateDict { entries }
}

/// Restores a snapshot into `model`, verifying structure first.
///
/// # Errors
///
/// Returns [`LoadStateError`] when buffer counts, names or sizes differ;
/// the model is left unmodified in that case.
pub fn load_state_dict(model: &mut impl HasParams, sd: &StateDict) -> Result<(), LoadStateError> {
    // validation pass
    let mut names: Vec<(String, usize)> = Vec::new();
    model.visit_params(&mut |name, p, _| names.push((name.to_string(), p.len())));
    if names.len() != sd.entries.len() {
        return Err(LoadStateError::BufferCountMismatch {
            expected: sd.entries.len(),
            got: names.len(),
        });
    }
    for (i, ((mname, mlen), (sname, sval))) in names.iter().zip(&sd.entries).enumerate() {
        if mname != sname {
            return Err(LoadStateError::NameMismatch {
                index: i,
                expected: sname.clone(),
                got: mname.clone(),
            });
        }
        if *mlen != sval.len() {
            return Err(LoadStateError::SizeMismatch {
                name: sname.clone(),
                expected: sval.len(),
                got: *mlen,
            });
        }
    }
    // write pass
    let mut idx = 0usize;
    model.visit_params(&mut |_, p, _| {
        p.copy_from_slice(&sd.entries[idx].1);
        idx += 1;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::Seq2SeqTransformer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny(seed: u64) -> Seq2SeqTransformer {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 1;
        Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut a = tiny(1);
        let mut b = tiny(2); // different init
        let src = [3usize, 4, 5];
        let tin = [1usize, 5, 4];
        let out_a = a.forward_train(&src, &tin);
        let out_b_before = b.forward_train(&src, &tin);
        assert_ne!(out_a, out_b_before);

        let sd = state_dict(&mut a);
        load_state_dict(&mut b, &sd).unwrap();
        let out_b_after = b.forward_train(&src, &tin);
        assert_eq!(out_a, out_b_after, "restored model must match exactly");
    }

    #[test]
    fn snapshot_counts_match_model() {
        let mut m = tiny(3);
        let sd = state_dict(&mut m);
        assert!(!sd.is_empty());
        assert_eq!(sd.param_count(), m.param_count());
        assert!(sd.entries.iter().all(|(n, _)| !n.is_empty()));
    }

    #[test]
    fn wrong_shape_model_is_rejected_untouched() {
        let mut small = tiny(4);
        let mut big_cfg = ModelConfig::tiny_for_tests();
        big_cfg.n_layers = 2;
        let mut big = Seq2SeqTransformer::new(&big_cfg, &mut StdRng::seed_from_u64(5));
        let sd = state_dict(&mut big);
        let before = state_dict(&mut small);
        let err = load_state_dict(&mut small, &sd).unwrap_err();
        assert!(
            matches!(err, LoadStateError::BufferCountMismatch { .. }),
            "{err}"
        );
        assert_eq!(state_dict(&mut small), before, "model must be untouched");
    }

    #[test]
    fn size_mismatch_detected() {
        let mut m = tiny(6);
        let mut sd = state_dict(&mut m);
        sd.entries[0].1.push(0.0);
        let err = load_state_dict(&mut m, &sd).unwrap_err();
        assert!(matches!(err, LoadStateError::SizeMismatch { .. }), "{err}");
        assert!(err.to_string().contains("size mismatch"));
    }

    #[test]
    fn name_mismatch_detected() {
        let mut m = tiny(7);
        let mut sd = state_dict(&mut m);
        sd.entries[1].0 = "bogus".into();
        let err = load_state_dict(&mut m, &sd).unwrap_err();
        assert!(matches!(err, LoadStateError::NameMismatch { .. }), "{err}");
    }
}
