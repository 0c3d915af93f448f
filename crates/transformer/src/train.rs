//! Training loop for the synthetic-task model (the substrate of the
//! Section V-A quantization study).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bleu::corpus_bleu;
use crate::config::ModelConfig;
use crate::loss::{cross_entropy_smoothed, token_accuracy};
use crate::model::Seq2SeqTransformer;
use crate::opt::{noam_lr, Adam, HasParams};
use crate::tasks::{teacher_forcing, TaskGen, BOS, EOS};

/// Hyper-parameters for a training run.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Sequence pairs accumulated per optimizer step.
    pub batch: usize,
    /// Noam warmup steps.
    pub warmup: u64,
    /// Peak-scale multiplier on the Noam schedule.
    pub lr_scale: f32,
    /// Gradient-norm clip (0 disables).
    pub clip: f32,
    /// Label-smoothing ε (Vaswani et al. use 0.1; 0 disables).
    pub label_smoothing: f32,
    /// RNG seed for data sampling.
    pub seed: u64,
}

impl Default for TrainSpec {
    fn default() -> Self {
        Self {
            steps: 300,
            batch: 8,
            warmup: 60,
            lr_scale: 0.5,
            clip: 1.0,
            label_smoothing: 0.0,
            seed: 0xC0FFEE,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per optimizer step.
    pub losses: Vec<f32>,
    /// Final-step mean loss.
    pub final_loss: f32,
}

/// Trains `model` on `gen`'s task. Returns the per-step loss curve.
pub fn train(model: &mut Seq2SeqTransformer, gen: &TaskGen, spec: &TrainSpec) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut adam = Adam::new(1e-3);
    let d_model = model.config().d_model;
    let mut losses = Vec::with_capacity(spec.steps);
    for step in 1..=spec.steps {
        adam.set_lr(spec.lr_scale * noam_lr(d_model, step as u64, spec.warmup));
        model.zero_grad();
        let mut step_loss = 0.0f32;
        for _ in 0..spec.batch {
            let (src, tgt) = gen.sample(&mut rng);
            let (src, tgt_in, tgt_out) = teacher_forcing(&src, &tgt);
            let logits = model.forward_train(&src, &tgt_in);
            let (loss, dlogits) =
                cross_entropy_smoothed(&logits, &tgt_out, None, spec.label_smoothing);
            step_loss += loss;
            model.backward(&dlogits);
        }
        // mean over the batch
        model.scale_grads(1.0 / spec.batch as f32);
        if spec.clip > 0.0 {
            let n = model.grad_norm();
            if n > spec.clip {
                model.scale_grads(spec.clip / n);
            }
        }
        adam.step(model);
        losses.push(step_loss / spec.batch as f32);
    }
    let final_loss = losses.last().copied().unwrap_or(f32::NAN);
    TrainReport { losses, final_loss }
}

/// Evaluation of a model on a held-out corpus.
#[derive(Debug, Clone, Copy)]
pub struct EvalReport {
    /// Corpus BLEU-4 (0–100) of greedy decodes against references.
    pub bleu: f64,
    /// Teacher-forced next-token accuracy.
    pub token_accuracy: f32,
    /// Exact-match rate of greedy decodes.
    pub exact_match: f32,
}

/// Evaluates `model` on `corpus` with greedy decoding and teacher-forced
/// accuracy.
pub fn evaluate(model: &mut Seq2SeqTransformer, corpus: &[(Vec<usize>, Vec<usize>)]) -> EvalReport {
    assert!(!corpus.is_empty(), "empty evaluation corpus");
    let max_len = model.config().max_len;
    let mut hyps = Vec::with_capacity(corpus.len());
    let mut refs = Vec::with_capacity(corpus.len());
    let mut acc_sum = 0.0f32;
    let mut exact = 0usize;
    for (src, tgt) in corpus {
        let hyp = model.greedy_decode(src, BOS, EOS, max_len);
        if hyp == *tgt {
            exact += 1;
        }
        let (s, tin, tout) = teacher_forcing(src, tgt);
        let logits = model.forward_train(&s, &tin);
        acc_sum += token_accuracy(&logits, &tout, None);
        hyps.push(hyp);
        refs.push(tgt.clone());
    }
    EvalReport {
        bleu: corpus_bleu(&hyps, &refs),
        token_accuracy: acc_sum / corpus.len() as f32,
        exact_match: exact as f32 / corpus.len() as f32,
    }
}

/// Builds the standard study model: a small but real Transformer
/// (2 encoder + 2 decoder layers, `d_model = 64`, `h = 4`) that trains to
/// high BLEU on the synthetic tasks within a few hundred steps on a CPU.
pub fn study_config() -> ModelConfig {
    ModelConfig {
        name: "quantization-study".into(),
        d_model: 64,
        d_ff: 256,
        h: 4,
        n_layers: 2,
        vocab: 24,
        max_len: 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::Task;

    #[test]
    fn training_reduces_loss_substantially() {
        let mut cfg = study_config();
        cfg.n_layers = 1;
        cfg.d_model = 32;
        cfg.d_ff = 64;
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Copy, cfg.vocab, 3, 6);
        let spec = TrainSpec {
            steps: 300,
            batch: 4,
            warmup: 60,
            lr_scale: 0.5,
            ..TrainSpec::default()
        };
        let report = train(&mut model, &gen, &spec);
        let early: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = report.losses[report.losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early * 0.5, "loss did not drop: {early} -> {late}");
    }

    #[test]
    fn evaluate_reports_consistent_metrics() {
        let mut cfg = study_config();
        cfg.n_layers = 1;
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Copy, cfg.vocab, 3, 5);
        let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(3));
        let report = evaluate(&mut model, &corpus);
        assert!((0.0..=100.0).contains(&report.bleu));
        assert!((0.0..=1.0).contains(&report.token_accuracy));
        assert!((0.0..=1.0).contains(&report.exact_match));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn evaluate_rejects_empty_corpus() {
        let cfg = study_config();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let _ = evaluate(&mut model, &[]);
    }
}
