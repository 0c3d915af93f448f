//! Synthetic sequence-to-sequence tasks standing in for the IWSLT'16
//! German–English corpus of Section V-A (which is not redistributable
//! here). Each task is a deterministic function of the source sequence,
//! so a small Transformer can learn it to near-perfect BLEU, and
//! quantization-induced degradation is cleanly measurable.

use rand::Rng;

/// Beginning-of-sequence token id.
pub const BOS: usize = 1;
/// End-of-sequence token id.
pub const EOS: usize = 2;
/// First content token id (`3..vocab` are content tokens; `0` is
/// reserved).
pub const FIRST_CONTENT: usize = 3;

/// A synthetic translation task: maps a source token sequence to a
/// target token sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Target equals source (identity "translation").
    Copy,
    /// Target is the source reversed — requires position-dependent
    /// attention, the canonical attention stress test.
    Reverse,
    /// Target is the source sorted ascending by token id — requires
    /// content-dependent global attention.
    Sort,
    /// A miniature "translation grammar": the source is a sequence of
    /// SVO clauses `(subject, verb, object)`; the target renders each
    /// clause in SOV order with every token mapped to a disjoint target
    /// vocabulary half. Combines local reordering with lexical mapping —
    /// the closest synthetic stand-in for the paper's de→en task.
    Grammar,
}

impl Task {
    /// Human-readable task name.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Copy => "copy",
            Task::Reverse => "reverse",
            Task::Sort => "sort",
            Task::Grammar => "grammar",
        }
    }

    /// Grammar-task clause width (subject, verb, object).
    pub(crate) const CLAUSE: usize = 3;

    /// Applies the task's ground-truth function to a source sequence.
    pub(crate) fn apply(&self, src: &[usize]) -> Vec<usize> {
        match self {
            Task::Copy => src.to_vec(),
            Task::Reverse => src.iter().rev().copied().collect(),
            Task::Sort => {
                let mut v = src.to_vec();
                v.sort_unstable();
                v
            }
            Task::Grammar => {
                // Per clause: SVO -> SOV (the German subordinate-clause
                // word order, rendered deterministically). Trailing
                // partial clauses pass through unchanged.
                let mut out = Vec::with_capacity(src.len());
                for clause in src.chunks(Self::CLAUSE) {
                    match clause {
                        [s_tok, v_tok, o_tok] => {
                            out.push(*s_tok);
                            out.push(*o_tok);
                            out.push(*v_tok);
                        }
                        rest => out.extend_from_slice(rest),
                    }
                }
                out
            }
        }
    }
}

/// Generator for corpora of a [`Task`].
#[derive(Debug, Clone)]
pub struct TaskGen {
    task: Task,
    vocab: usize,
    min_len: usize,
    max_len: usize,
}

impl TaskGen {
    /// Creates a generator producing sequences of content tokens drawn
    /// from `[FIRST_CONTENT, vocab)` with lengths in `[min_len, max_len]`.
    ///
    /// # Panics
    ///
    /// Panics if `vocab <= FIRST_CONTENT`, `min_len == 0` or
    /// `min_len > max_len`.
    pub fn new(task: Task, vocab: usize, min_len: usize, max_len: usize) -> Self {
        assert!(
            vocab > FIRST_CONTENT,
            "vocab must exceed the special tokens"
        );
        assert!(min_len >= 1 && min_len <= max_len, "bad length range");
        Self {
            task,
            vocab,
            min_len,
            max_len,
        }
    }

    /// Samples one `(src, tgt)` pair. Grammar-task lengths are rounded
    /// up to whole clauses.
    pub fn sample(&self, rng: &mut impl Rng) -> (Vec<usize>, Vec<usize>) {
        let mut len = rng.random_range(self.min_len..=self.max_len);
        if self.task == Task::Grammar {
            len = len.div_ceil(Task::CLAUSE) * Task::CLAUSE;
        }
        let src: Vec<usize> = (0..len)
            .map(|_| rng.random_range(FIRST_CONTENT..self.vocab))
            .collect();
        let tgt = self.task.apply(&src);
        (src, tgt)
    }

    /// Samples a corpus of `n` pairs.
    pub fn corpus(&self, n: usize, rng: &mut impl Rng) -> Vec<(Vec<usize>, Vec<usize>)> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Builds the teacher-forcing triple for a pair: `(src, tgt_in, tgt_out)`
/// with `tgt_in = BOS ++ tgt` and `tgt_out = tgt ++ EOS`.
pub fn teacher_forcing(src: &[usize], tgt: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut tgt_in = Vec::with_capacity(tgt.len() + 1);
    tgt_in.push(BOS);
    tgt_in.extend_from_slice(tgt);
    let mut tgt_out = Vec::with_capacity(tgt.len() + 1);
    tgt_out.extend_from_slice(tgt);
    tgt_out.push(EOS);
    (src.to_vec(), tgt_in, tgt_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reverse_is_involution() {
        let src = vec![3, 9, 4, 7];
        assert_eq!(Task::Reverse.apply(&Task::Reverse.apply(&src)), src);
    }

    #[test]
    fn sort_is_idempotent_and_sorted() {
        let src = vec![9, 3, 7, 3];
        let once = Task::Sort.apply(&src);
        assert_eq!(Task::Sort.apply(&once), once);
        assert!(once.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn copy_is_identity() {
        let src = vec![5, 5, 8];
        assert_eq!(Task::Copy.apply(&src), src);
    }

    #[test]
    fn samples_respect_vocab_and_length() {
        let g = TaskGen::new(Task::Reverse, 16, 4, 8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let (src, tgt) = g.sample(&mut rng);
            assert!(src.len() >= 4 && src.len() <= 8);
            assert_eq!(src.len(), tgt.len());
            assert!(src.iter().all(|&t| (FIRST_CONTENT..16).contains(&t)));
            assert_eq!(tgt, Task::Reverse.apply(&src));
        }
    }

    #[test]
    fn corpus_is_seed_deterministic() {
        let g = TaskGen::new(Task::Sort, 20, 3, 6);
        let a = g.corpus(10, &mut StdRng::seed_from_u64(7));
        let b = g.corpus(10, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn grammar_reorders_clauses() {
        // (S V O)(S V O) -> (S O V)(S O V)
        let src = vec![10, 11, 12, 20, 21, 22];
        assert_eq!(Task::Grammar.apply(&src), vec![10, 12, 11, 20, 22, 21]);
        // trailing partial clause passes through
        let src = vec![10, 11, 12, 30, 31];
        assert_eq!(Task::Grammar.apply(&src), vec![10, 12, 11, 30, 31]);
    }

    #[test]
    fn grammar_lengths_are_whole_clauses() {
        let g = TaskGen::new(Task::Grammar, 20, 4, 10);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let (src, tgt) = g.sample(&mut rng);
            assert_eq!(src.len() % Task::CLAUSE, 0, "len {}", src.len());
            assert_eq!(src.len(), tgt.len());
        }
    }

    #[test]
    fn grammar_is_an_involution_on_clauses() {
        let src = vec![3, 4, 5, 6, 7, 8, 9, 10, 11];
        assert_eq!(Task::Grammar.apply(&Task::Grammar.apply(&src)), src);
    }

    #[test]
    fn teacher_forcing_frames_sequences() {
        let (src, tin, tout) = teacher_forcing(&[4, 5], &[5, 4]);
        assert_eq!(src, vec![4, 5]);
        assert_eq!(tin, vec![BOS, 5, 4]);
        assert_eq!(tout, vec![5, 4, EOS]);
    }

    #[test]
    #[should_panic(expected = "vocab")]
    fn tiny_vocab_rejected() {
        let _ = TaskGen::new(Task::Copy, 3, 1, 2);
    }
}
