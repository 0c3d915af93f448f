//! Untimed output check: a request must yield exactly the tokens it
//! yields alone, and a digest lets a change compare its outputs with
//! its parent's.

use quantized::QuantSeq2Seq;
use serving::{ContinuousBatcher, Request};

use crate::config::engine_config;
use crate::gen::GenRequest;

/// FNV-1a over a token stream; order-sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a token sequence in, length first.
    pub fn push_tokens(&mut self, tokens: &[usize]) {
        self.push(tokens.len() as u64);
        for &t in tokens {
            self.push(t as u64);
        }
    }

    /// The digest so far, as printed.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a response set, independent of completion order (requests
/// are told apart by their own content, so sort on it).
pub fn digest(responses: &[(GenRequest, Vec<usize>)]) -> Digest {
    let mut order: Vec<usize> = (0..responses.len()).collect();
    order.sort_by(|&a, &b| {
        let key = |i: usize| (&responses[i].0.src, &responses[i].0.prompt);
        key(a).cmp(&key(b))
    });
    let mut d = Digest::default();
    for i in order {
        d.push_tokens(&responses[i].0.src);
        d.push_tokens(&responses[i].1);
    }
    d
}

/// Decodes `req` alone: a fresh engine with one slot and no prefix
/// cache, the configuration whose outputs the batched, cached, wired
/// paths promise to reproduce bit for bit.
pub fn reference(model: &QuantSeq2Seq, req: &GenRequest) -> Vec<usize> {
    let mut cfg = engine_config();
    cfg.max_batch = 1;
    cfg.prefix_cache_bytes = 0;
    let mut engine = ContinuousBatcher::new(model, cfg).expect("one slot");
    engine
        .submit(Request::new(0, req.src.clone(), req.max_new).with_prompt(req.prompt.clone()))
        .expect("generated requests are valid");
    engine
        .run_to_completion()
        .pop()
        .expect("one response")
        .tokens
}

/// How many of the first `sample` responses differ from the reference.
pub fn mismatches(
    model: &QuantSeq2Seq,
    responses: &[(GenRequest, Vec<usize>)],
    sample: usize,
) -> (usize, usize) {
    let checked = &responses[..sample.min(responses.len())];
    let bad = checked
        .iter()
        .filter(|(req, got)| &reference(model, req) != got)
        .count();
    (checked.len(), bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_completion_order_but_not_content() {
        let r = |s: usize, t: usize| {
            (
                GenRequest {
                    src: vec![s, s + 1],
                    prompt: vec![],
                    max_new: 2,
                },
                vec![t, t + 1],
            )
        };
        let a = digest(&[r(1, 10), r(5, 20)]);
        let b = digest(&[r(5, 20), r(1, 10)]);
        assert_eq!(a, b);
        assert_ne!(a, digest(&[r(1, 10), r(5, 21)]));
        assert_eq!(a.hex().len(), 16);
    }
}
