//! Variable-length batching: pad token sequences to a common length
//! (the accelerator's array height `s`) — how a deployment feeds
//! ragged sentences to a fixed `s × 64` array.

use crate::tasks::PAD;

/// One length bucket produced by [`PaddedBatch::buckets`]: a padded
/// batch of similar-length sequences plus the positions they came from
/// in the original slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Index of each bucket member in the original `seqs` slice, in
    /// ascending length order (ties in input order).
    pub indices: Vec<usize>,
    /// The members, padded to the bucket's longest sequence.
    pub batch: PaddedBatch,
}

impl Bucket {
    /// Padded rows wasted by this bucket:
    /// `Σ (padded_len − len_i)` over its members.
    #[cfg(test)]
    fn waste(&self) -> usize {
        self.batch
            .lengths
            .iter()
            .map(|&l| self.batch.padded_len - l)
            .sum()
    }
}

/// A padded batch: token matrix rows plus per-sequence valid lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddedBatch {
    /// Token ids, one padded sequence per row (`PAD`-filled).
    pub tokens: Vec<Vec<usize>>,
    /// Real length of each sequence.
    pub lengths: Vec<usize>,
    /// The common padded length.
    pub padded_len: usize,
}

impl PaddedBatch {
    /// Pads `seqs` to `max(len)` (or to `min_len`, whichever is larger).
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty or contains an empty sequence.
    pub(crate) fn new(seqs: &[Vec<usize>], min_len: usize) -> Self {
        assert!(!seqs.is_empty(), "empty batch");
        assert!(
            seqs.iter().all(|s| !s.is_empty()),
            "empty sequence in batch"
        );
        let padded_len = seqs
            .iter()
            .map(|s| s.len())
            .max()
            .expect("non-empty")
            .max(min_len);
        let tokens = seqs
            .iter()
            .map(|s| {
                let mut row = s.clone();
                row.resize(padded_len, PAD);
                row
            })
            .collect();
        Self {
            tokens,
            lengths: seqs.iter().map(|s| s.len()).collect(),
            padded_len,
        }
    }

    /// Splits `seqs` into length-sorted buckets, greedily growing each
    /// bucket while its total padding waste (padded rows that carry no
    /// real tokens) stays at most `max_waste`. With `max_waste = 0` every
    /// bucket holds sequences of exactly one length; a huge `max_waste`
    /// reproduces a single [`PaddedBatch::new`] over everything. Every
    /// input index appears in exactly one bucket.
    ///
    /// Ragged traffic padded naively wastes array rows on every padded
    /// position; bucketing bounds that waste per admitted batch, which is
    /// how the serving layer keeps the `s × 64` array busy with real
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty or contains an empty sequence.
    pub fn buckets(seqs: &[Vec<usize>], max_waste: usize) -> Vec<Bucket> {
        assert!(!seqs.is_empty(), "empty batch");
        assert!(
            seqs.iter().all(|s| !s.is_empty()),
            "empty sequence in batch"
        );
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by_key(|&i| seqs[i].len());
        let mut out = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        let mut len_sum = 0usize;
        for &i in &order {
            let len = seqs[i].len();
            // Sorted ascending: `len` is the candidate bucket's padded
            // length, so its waste is `len * |members| - Σ lengths`.
            let waste = len * members.len() - len_sum;
            if !members.is_empty() && waste > max_waste {
                out.push(Self::close_bucket(seqs, std::mem::take(&mut members)));
                len_sum = 0;
            }
            members.push(i);
            len_sum += len;
        }
        out.push(Self::close_bucket(seqs, members));
        out
    }

    fn close_bucket(seqs: &[Vec<usize>], indices: Vec<usize>) -> Bucket {
        let picked: Vec<Vec<usize>> = indices.iter().map(|&i| seqs[i].clone()).collect();
        Bucket {
            batch: PaddedBatch::new(&picked, 0),
            indices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> PaddedBatch {
        PaddedBatch::new(&[vec![3, 4, 5], vec![6, 7], vec![8, 9, 10, 11]], 0)
    }

    #[test]
    fn pads_to_the_longest_sequence() {
        let b = batch();
        assert_eq!(b.padded_len, 4);
        assert_eq!(b.tokens[0], vec![3, 4, 5, PAD]);
        assert_eq!(b.tokens[1], vec![6, 7, PAD, PAD]);
        assert_eq!(b.tokens[2], vec![8, 9, 10, 11]);
        assert_eq!(b.lengths, vec![3, 2, 4]);
        assert_eq!(b.tokens.len(), 3);
    }

    #[test]
    fn min_len_forces_array_height() {
        let b = PaddedBatch::new(&[vec![3, 4]], 8);
        assert_eq!(b.padded_len, 8);
        assert_eq!(b.tokens[0].len(), 8);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let _ = PaddedBatch::new(&[], 0);
    }

    /// A pathological mix: a pile of tiny sequences plus one huge one.
    fn ragged() -> Vec<Vec<usize>> {
        let mut seqs: Vec<Vec<usize>> = (0..6).map(|i| vec![3 + i; 2]).collect();
        seqs.push(vec![7; 40]); // the outlier
        seqs.push(vec![8; 3]);
        seqs
    }

    #[test]
    fn buckets_cover_every_index_exactly_once() {
        let seqs = ragged();
        for max_waste in [0usize, 1, 4, 1000] {
            let buckets = PaddedBatch::buckets(&seqs, max_waste);
            let mut seen: Vec<usize> = buckets.iter().flat_map(|b| b.indices.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..seqs.len()).collect::<Vec<_>>(), "{max_waste}");
            for b in &buckets {
                assert_eq!(b.indices.len(), b.batch.tokens.len());
                for (&i, &l) in b.indices.iter().zip(&b.batch.lengths) {
                    assert_eq!(seqs[i].len(), l, "length bookkeeping");
                }
            }
        }
    }

    #[test]
    fn buckets_respect_the_waste_bound() {
        let seqs = ragged();
        for max_waste in [0usize, 1, 4, 10] {
            for b in PaddedBatch::buckets(&seqs, max_waste) {
                assert!(
                    b.waste() <= max_waste,
                    "bucket wastes {} > {max_waste}",
                    b.waste()
                );
            }
        }
    }

    #[test]
    fn bucketing_beats_naive_padding_on_pathological_mixes() {
        // Naively padding the ragged mix to the outlier's length wastes
        // 38 rows per 2-token sequence; the bucketed waste must be far
        // smaller (and zero at max_waste = 0).
        let seqs = ragged();
        let naive = PaddedBatch::new(&seqs, 0);
        let naive_waste: usize = naive.lengths.iter().map(|&l| naive.padded_len - l).sum();
        let tight: usize = PaddedBatch::buckets(&seqs, 0)
            .iter()
            .map(Bucket::waste)
            .sum();
        assert_eq!(tight, 0, "equal-length buckets waste nothing");
        assert!(naive_waste > 200, "mix is pathological: {naive_waste}");
        // An infinite budget degenerates to the naive single batch.
        let loose = PaddedBatch::buckets(&seqs, usize::MAX);
        assert_eq!(loose.len(), 1);
        assert_eq!(loose[0].batch.padded_len, naive.padded_len);
    }

    #[test]
    fn buckets_sort_by_length_with_stable_ties() {
        let seqs = vec![vec![1; 3], vec![2; 2], vec![3; 3], vec![4; 2]];
        let buckets = PaddedBatch::buckets(&seqs, 0);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].indices, vec![1, 3]); // the 2-length pair, input order
        assert_eq!(buckets[1].indices, vec![0, 2]);
    }
}
