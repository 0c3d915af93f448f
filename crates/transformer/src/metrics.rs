//! Additional sequence-evaluation metrics beyond BLEU: token edit
//! distance (Levenshtein) and the word-error-rate convention built on
//! it.

/// Levenshtein distance between two token sequences (insertions,
/// deletions, substitutions all cost 1). `O(|a|·|b|)` time, `O(|b|)`
/// space.
pub(crate) fn edit_distance(a: &[usize], b: &[usize]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ta) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &tb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ta != tb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Token error rate over a corpus: `Σ edit_distance / Σ |reference|`
/// (the WER convention; can exceed 1.0 for pathological hypotheses).
///
/// # Panics
///
/// Panics if corpora lengths differ, the corpus is empty, or every
/// reference is empty.
pub fn token_error_rate(hypotheses: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(hypotheses.len(), references.len(), "corpus length mismatch");
    assert!(!hypotheses.is_empty(), "empty corpus");
    let mut edits = 0usize;
    let mut ref_len = 0usize;
    for (h, r) in hypotheses.iter().zip(references) {
        edits += edit_distance(h, r);
        ref_len += r.len();
    }
    assert!(ref_len > 0, "references are all empty");
    edits as f64 / ref_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(edit_distance(&[], &[]), 0);
    }

    #[test]
    fn textbook_cases() {
        // kitten -> sitting (as token ids)
        let kitten = [10, 8, 19, 19, 4, 13];
        let sitting = [18, 8, 19, 19, 8, 13, 6];
        assert_eq!(edit_distance(&kitten, &sitting), 3);
        assert_eq!(edit_distance(&[1], &[]), 1);
        assert_eq!(edit_distance(&[], &[1, 2]), 2);
        assert_eq!(edit_distance(&[1, 2, 3], &[3, 2, 1]), 2);
    }

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let a = [1usize, 5, 2, 8];
        let b = [1usize, 2, 8, 9];
        let c = [5usize, 5, 5];
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }

    #[test]
    fn distance_bounded_by_longer_length() {
        let a = [1usize, 2, 3, 4, 5];
        let b = [9usize, 9];
        assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
        assert!(edit_distance(&a, &b) >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn ter_perfect_is_zero_and_scales() {
        let refs = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(token_error_rate(&refs, &refs), 0.0);
        let hyps = vec![vec![1, 2, 9], vec![4, 5]];
        assert!((token_error_rate(&hyps, &refs) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ter_rejects_mismatched_corpora() {
        let _ = token_error_rate(&[vec![1]], &[vec![1], vec![2]]);
    }
}
