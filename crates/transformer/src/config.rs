//! Model hyper-parameter configurations, including the paper's Table I.
//!
//! Table I observes the structural pattern the partitioning method relies
//! on: `d_model = 64 h` and `d_ff = 4 d_model = 256 h` for every standard
//! Transformer/BERT variant.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of a Transformer model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name (e.g. `"Transformer-base"`).
    pub name: String,
    /// Embedding / residual-stream width (`d_model`).
    pub d_model: usize,
    /// Hidden width of the position-wise FFN (`d_ff`).
    pub d_ff: usize,
    /// Number of attention heads (`h`).
    pub h: usize,
    /// Number of encoder layers (and decoder layers for seq2seq models).
    pub n_layers: usize,
    /// Vocabulary size (used by the trainable model; irrelevant to the
    /// ResBlock hardware).
    pub vocab: usize,
    /// Maximum sequence length `s` the model (and the accelerator's
    /// systolic array) is provisioned for.
    pub max_len: usize,
}

impl ModelConfig {
    /// Per-head key/query/value width `d_k = d_model / h`.
    ///
    /// Equal to 64 in every Table-I configuration.
    pub fn d_k(&self) -> usize {
        self.d_model / self.h
    }

    /// Validates the structural constraints the paper's partitioning
    /// assumes: `h` divides `d_model`.
    ///
    /// # Panics
    ///
    /// Panics if `d_model % h != 0` or any dimension is zero.
    pub fn validate(&self) {
        assert!(
            self.h > 0 && self.d_model > 0 && self.d_ff > 0,
            "dimensions must be positive"
        );
        assert_eq!(
            self.d_model % self.h,
            0,
            "d_model {} must be divisible by h {}",
            self.d_model,
            self.h
        );
    }

    /// Transformer base model (Table I row 1): `d_model=512, d_ff=2048, h=8`.
    pub fn transformer_base() -> Self {
        Self {
            name: "Transformer-base".into(),
            d_model: 512,
            d_ff: 2048,
            h: 8,
            n_layers: 6,
            vocab: 32_000,
            max_len: 64,
        }
    }

    /// Transformer big model (Table I row 2): `d_model=1024, d_ff=4096, h=16`.
    pub fn transformer_big() -> Self {
        Self {
            name: "Transformer-big".into(),
            d_model: 1024,
            d_ff: 4096,
            h: 16,
            n_layers: 6,
            vocab: 32_000,
            max_len: 64,
        }
    }

    /// BERT-base (Table I row 3): `d_model=768, d_ff=3072, h=12`.
    pub(crate) fn bert_base() -> Self {
        Self {
            name: "BERT-base".into(),
            d_model: 768,
            d_ff: 3072,
            h: 12,
            n_layers: 12,
            vocab: 30_522,
            max_len: 64,
        }
    }

    /// BERT-large (Table I row 4): `d_model=1024, d_ff=4096, h=16`.
    pub(crate) fn bert_large() -> Self {
        Self {
            name: "BERT-large".into(),
            d_model: 1024,
            d_ff: 4096,
            h: 16,
            n_layers: 24,
            vocab: 30_522,
            max_len: 64,
        }
    }

    /// All four Table-I configurations, in table order.
    pub fn table1() -> Vec<Self> {
        vec![
            Self::transformer_base(),
            Self::transformer_big(),
            Self::bert_base(),
            Self::bert_large(),
        ]
    }

    /// A deliberately tiny configuration for unit tests and the trainable
    /// synthetic-task model: `d_model=32, d_ff=64, h=4`.
    pub fn tiny_for_tests() -> Self {
        Self {
            name: "tiny".into(),
            d_model: 32,
            d_ff: 64,
            h: 4,
            n_layers: 2,
            vocab: 32,
            max_len: 16,
        }
    }

    /// Whether the config follows the Table-I pattern `d_model = 64 h`
    /// (the property that makes every weight panel exactly 64 columns).
    pub fn follows_64h_pattern(&self) -> bool {
        self.d_model == 64 * self.h && self.d_ff == 4 * self.d_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = ModelConfig::table1();
        let rows: Vec<(usize, usize, usize)> = t.iter().map(|c| (c.d_model, c.d_ff, c.h)).collect();
        assert_eq!(
            rows,
            vec![
                (512, 2048, 8),
                (1024, 4096, 16),
                (768, 3072, 12),
                (1024, 4096, 16)
            ]
        );
    }

    #[test]
    fn every_table1_config_has_dk_64_and_64h_pattern() {
        for c in ModelConfig::table1() {
            c.validate();
            assert_eq!(c.d_k(), 64, "{}", c.name);
            assert!(c.follows_64h_pattern(), "{}", c.name);
        }
    }

    #[test]
    fn tiny_config_is_valid_but_not_64h() {
        let c = ModelConfig::tiny_for_tests();
        c.validate();
        assert_eq!(c.d_k(), 8);
        assert!(!c.follows_64h_pattern());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn validate_rejects_indivisible_heads() {
        ModelConfig {
            name: "bad".into(),
            d_model: 100,
            d_ff: 400,
            h: 3,
            n_layers: 1,
            vocab: 10,
            max_len: 8,
        }
        .validate();
    }

    #[test]
    fn serde_impls_exist() {
        fn assert_both<T: serde::Serialize + serde::Deserialize>() {}
        assert_both::<ModelConfig>();
    }
}
