//! Shared-prefix cache: a flat list of page-aligned session snapshots.
//!
//! Serving workloads repeat prompt prefixes constantly — shared system
//! prompts, few-shot templates, multi-turn histories. Recomputing the
//! prefill for a prefix the engine already ran wastes both array cycles
//! and KV-pool bytes. This module caches **page-aligned session
//! snapshots** keyed on token ids: an entry is a forked
//! [`QuantIncrementalSession`] whose paged self-attention K/V rows are
//! *shared* (refcounted, copy-on-write — see `tensor::kvpool`) with the
//! live session it was forked from, so a cached prefix costs ~1× its KV
//! bytes no matter how many sessions later attach to it.
//!
//! Keys are `src ++ [SRC_SEP] ++ consumed-target-tokens`. The source
//! sentence participates because every decoder layer's **cross**-
//! attention K/V derive from the encoder memory: a target prefix is
//! only reusable under the *exact* source that produced it. The
//! separator keeps `src = [a, b]` + target `[c]` distinct from
//! `src = [a]` + target `[b, c]`.
//!
//! The engine makes two calls. [`PrefixIndex::offer`] snapshots a
//! session whose prefill just completed, rolled back to a page
//! boundary, so a whole-entry hit shares pages and copies nothing.
//! [`PrefixIndex::attach`] hands an admitted request a fork of the
//! entry sharing its longest common prefix with the request — the
//! shallowest such entry, ties to the smaller key — rolled back to
//! where the two diverge (copy-on-write protects the entry's pages;
//! rolled-back rows merely drop refcounts). This is what makes the
//! classic shared-preamble workload (common system prompt, distinct
//! per-request tails) hit: the first request's snapshot serves every
//! later request up to the divergence. Eviction is LRU under a byte
//! budget ([`PrefixIndex::new`]); evicting an entry releases its fork,
//! which only returns pages whose refcount drops to zero — pages still
//! shared with live sessions survive untouched.
//!
//! A list is enough: a 256-row entry of the serving model is 1.5 MiB of
//! K/V, so a 64 MiB budget holds ≤ 42 entries, and every operation is
//! one pass over them.

use quantized::incremental::{KvArena, QuantIncrementalSession};
use tensor::phase::{self, Phase};

/// Separator token between the source sentence and the consumed
/// target-side tokens in a prefix key. `usize::MAX` cannot collide with
/// a vocabulary id (token ids index embedding rows).
pub(crate) const SRC_SEP: usize = usize::MAX;

/// Builds the cache key for a request: `src ++ [SRC_SEP] ++ target`,
/// where `target` is the consumed target-side row stream
/// (`[BOS] + prompt`).
pub(crate) fn prefix_key(src: &[usize], target: &[usize]) -> Vec<usize> {
    let mut key = Vec::with_capacity(src.len() + 1 + target.len());
    key.extend_from_slice(src);
    key.push(SRC_SEP);
    key.extend_from_slice(target);
    key
}

/// One cached prefix: a page-aligned forked session plus bookkeeping.
#[derive(Debug)]
struct Entry {
    key: Vec<usize>,
    session: QuantIncrementalSession,
    /// Logical resident KV bytes charged against the budget.
    bytes: usize,
    /// LRU stamp (monotone per index).
    last_used: u64,
}

/// The prefix cache: session snapshots bounded by a byte budget with
/// LRU eviction.
#[derive(Debug)]
pub(crate) struct PrefixIndex {
    entries: Vec<Entry>,
    /// Byte budget; `0` disables the index entirely.
    budget: usize,
    bytes: usize,
    tick: u64,
}

impl PrefixIndex {
    /// An index bounded to `budget` logical KV bytes (`0` disables it:
    /// every lookup misses and every insert is dropped).
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            entries: Vec::new(),
            budget,
            bytes: 0,
            tick: 0,
        }
    }

    /// Whether the index accepts entries at all.
    pub(crate) fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Logical KV bytes currently charged against the budget.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Cached prefixes currently held.
    pub(crate) fn entries(&self) -> usize {
        self.entries.len()
    }

    /// A fork of the longest reusable cached prefix of the request
    /// `key`, rolled back to the rows it shares with the request, and
    /// that row count; `None` on a miss. The request ingests its target
    /// rows past the count onto the fork.
    pub(crate) fn attach(
        &mut self,
        key: &[usize],
        arena: &mut KvArena,
    ) -> Option<(QuantIncrementalSession, usize)> {
        let (snap, rows) = self.lookup(key)?;
        let mut session = snap.fork(arena);
        if session.pos() > rows {
            let extra = session.pos() - rows;
            session.rollback_rows(arena, extra);
        }
        Some((session, rows))
    }

    /// Snapshots `session`, whose prefill of the request `key` just
    /// completed, for later requests sharing the prefix. The fork is
    /// rolled back to the last page boundary at or below `pos - 1`, so
    /// it shares every page it keeps with `session`. Nothing is stored
    /// when that boundary is row 0 or the prefix is already cached.
    pub(crate) fn offer(
        &mut self,
        key: &[usize],
        session: &QuantIncrementalSession,
        arena: &mut KvArena,
    ) {
        if !self.enabled() {
            return;
        }
        let _snapshot = phase::span(Phase::Admission);
        let pos = session.pos();
        // Align over `pos - 1`, not `pos`: an exact-repeat request may
        // reuse at most `pos - 1` rows (it must re-ingest the row whose
        // logits seed generation), so a snapshot at full page-aligned
        // length would be unreachable for the very requests it is for.
        let aligned = ((pos - 1) / arena.page_rows()) * arena.page_rows();
        let key = &key[..key.len() - (pos - aligned)];
        if aligned == 0 || self.entries.iter().any(|e| e.key == key) {
            return;
        }
        let mut snap = session.fork(arena);
        snap.rollback_rows(arena, pos - aligned);
        self.insert(key, snap, arena);
    }

    /// Longest reusable cached prefix of `key`, bumping the serving
    /// entry's LRU stamp. Returns the snapshot to fork and the number of
    /// its leading target rows that are valid for this request — the
    /// snapshot may hold *more* rows (it came from a prompt that shares
    /// only a preamble with this one). Reuse is capped at one row *less*
    /// than the request's target rows: a session must re-ingest at
    /// least one row to produce the logits the next token is sampled
    /// from.
    ///
    /// Of the entries sharing the longest common prefix with `key`, the
    /// shallowest (ties to the smaller key) serves, so the same
    /// snapshot serves every hit on that prefix and the caller's
    /// rollback is smallest.
    fn lookup(&mut self, key: &[usize]) -> Option<(&QuantIncrementalSession, usize)> {
        let sep = key.iter().position(|&t| t == SRC_SEP)?;
        let max_rows = (key.len() - sep - 1).saturating_sub(1);
        let common = |k: &[usize]| k.iter().zip(key).take_while(|(a, b)| a == b).count();
        let (depth, e) = self
            .entries
            .iter_mut()
            .map(|e| (common(&e.key), e))
            .max_by(|(da, a), (db, b)| {
                da.cmp(db)
                    .then_with(|| (b.key.len(), &b.key).cmp(&(a.key.len(), &a.key)))
            })?;
        // Matching must reach past the separator: a target row is only
        // reusable under the exact source that produced it.
        let usable = depth.saturating_sub(sep + 1).min(max_rows);
        if usable == 0 {
            return None;
        }
        debug_assert!(e.session.pos() >= usable, "entries hold >= matched rows");
        self.tick += 1;
        e.last_used = self.tick;
        Some((&e.session, usable))
    }

    /// Inserts a non-empty page-aligned snapshot at `key`, evicting LRU
    /// entries until the budget holds. The snapshot is released (not
    /// stored) if it alone exceeds the budget — always, on a disabled
    /// index — or `key` is already present; the caller never has to
    /// clean up. Returns whether the snapshot was kept.
    fn insert(
        &mut self,
        key: &[usize],
        mut session: QuantIncrementalSession,
        arena: &mut KvArena,
    ) -> bool {
        let bytes = session.resident_kv_bytes(arena);
        if bytes > self.budget || self.entries.iter().any(|e| e.key == key) {
            session.release(arena);
            return false;
        }
        self.tick += 1;
        self.entries.push(Entry {
            key: key.to_vec(),
            session,
            bytes,
            last_used: self.tick,
        });
        self.bytes += bytes;
        // The fresh entry carries the newest stamp, so eviction reaches
        // it last — and never needs to, since bytes <= budget held.
        while self.bytes > self.budget {
            self.evict_lru(arena);
        }
        true
    }

    /// Evicts the least-recently-used entry, releasing its fork into
    /// `arena` (shared pages survive via their refcounts). No-op on an
    /// empty index.
    fn evict_lru(&mut self, arena: &mut KvArena) {
        let Some(i) = (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_used) else {
            return;
        };
        let mut entry = self.entries.swap_remove(i);
        entry.session.release(arena);
        self.bytes -= entry.bytes;
    }

    /// Drops every entry, releasing all forks into `arena`.
    #[cfg(test)]
    fn clear(&mut self, arena: &mut KvArena) {
        while !self.entries.is_empty() {
            self.evict_lru(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantized::QuantSeq2Seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen, BOS};

    fn tiny_model() -> QuantSeq2Seq {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
        let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(6));
        QuantSeq2Seq::from_trained(&model, &corpus, quantized::SoftmaxMode::Hardware)
    }

    /// Runs `target` rows into a fresh session and rolls back to a page
    /// boundary — the exact snapshot shape the engine inserts.
    fn aligned_snapshot(
        model: &QuantSeq2Seq,
        arena: &mut KvArena,
        src: &[usize],
        target: &[usize],
    ) -> (QuantIncrementalSession, usize) {
        let mut s = model.start_session(arena, src);
        let mut sess = vec![&mut s];
        let _ = model.prefill_sessions(arena, &mut sess, &[target]);
        let page = arena.page_rows();
        let aligned = (target.len() / page) * page;
        if target.len() > aligned {
            s.rollback_rows(arena, target.len() - aligned);
        }
        (s, aligned)
    }

    #[test]
    fn key_separator_disambiguates_src_target_split() {
        let a = prefix_key(&[1, 2], &[3]);
        let b = prefix_key(&[1], &[2, 3]);
        assert_ne!(a, b);
        assert_eq!(a, vec![1, 2, SRC_SEP, 3]);
    }

    #[test]
    fn lookup_finds_longest_aligned_prefix_and_caps_rows() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(usize::MAX);
        let src = vec![1, 2, 3];
        let target = vec![BOS, 7, 8, 9, 7, 8]; // 6 rows, pages of 2
        for rows in [2usize, 4] {
            let (snap, aligned) = aligned_snapshot(&model, &mut arena, &src, &target[..rows]);
            assert_eq!(aligned, rows);
            assert!(index.insert(&prefix_key(&src, &target[..rows]), snap, &mut arena));
        }
        assert_eq!(index.entries(), 2);

        // The deepest stored prefix wins.
        let key = prefix_key(&src, &target);
        let (_, rows) = index.lookup(&key).expect("hit");
        assert_eq!(rows, 4);
        // A request re-ingests at least its last row, which trims the
        // reuse below the deepest entry's rows: the attached fork is
        // rolled back to the cap.
        let (mut fork, rows) = index
            .attach(&prefix_key(&src, &target[..4]), &mut arena)
            .expect("hit");
        assert_eq!((rows, fork.pos()), (3, 3));
        fork.release(&mut arena);
        // A different source misses even with an identical target: the
        // cross-attention K/V under the hood belong to `src` alone.
        assert!(index.lookup(&prefix_key(&[2, 2, 2], &target)).is_none());

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0, "clear released every fork");
    }

    #[test]
    fn diverged_tails_reuse_the_shared_preamble() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(usize::MAX);
        let src = vec![1, 2, 3];
        let a = vec![BOS, 7, 8, 9, 7, 8]; // cached in full (6 rows)
        let b = vec![BOS, 7, 8, 9, 5, 5, 5]; // shares only 4 leading rows
        let (snap, aligned) = aligned_snapshot(&model, &mut arena, &src, &a);
        assert_eq!(aligned, 6);
        assert!(index.insert(&prefix_key(&src, &a), snap, &mut arena));

        // The walk diverges after `[BOS, 7, 8, 9]`; the cached deeper
        // snapshot still serves those four rows (fork + roll back).
        let (snap, rows) = index
            .lookup(&prefix_key(&src, &b))
            .expect("preamble must hit");
        assert_eq!(rows, 4);
        assert_eq!(snap.pos(), 6, "entry itself is untrimmed");

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn a_hit_takes_the_shallowest_matching_entry_ties_to_the_smaller_key() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(usize::MAX);
        let src = vec![1, 2, 3];
        // Inserted deepest first and the larger tie-breaker before the
        // smaller, so neither insertion order nor recency decides.
        for target in [
            vec![BOS, 7, 8, 9, 7, 8],
            vec![BOS, 7, 8, 6],
            vec![BOS, 7, 8, 5],
        ] {
            let (snap, aligned) = aligned_snapshot(&model, &mut arena, &src, &target);
            assert_eq!(aligned, target.len());
            assert!(index.insert(&prefix_key(&src, &target), snap, &mut arena));
        }
        // All three agree with the request on `[BOS, 7, 8]` and no
        // further; the 4-row snapshots are the shallowest, and of those
        // the one whose row 3 is token 5 has the smaller key.
        let request = vec![BOS, 7, 8, 4, 4, 4];
        let (snap, rows) = index
            .lookup(&prefix_key(&src, &request))
            .expect("the shared rows must hit");
        assert_eq!(rows, 3);
        assert_eq!(snap.pos(), 4, "the shallowest candidate serves the hit");
        let k_row3 = |s: &QuantIncrementalSession, arena: &KvArena| {
            s.self_attention_caches(arena, 0).0.row(3).to_vec()
        };
        let served = k_row3(snap, &arena);
        for (tok, wins) in [(5, true), (6, false)] {
            let (mut s, _) = aligned_snapshot(&model, &mut arena, &src, &[BOS, 7, 8, tok]);
            assert_eq!(served == k_row3(&s, &arena), wins, "row 3 is token 5's");
            s.release(&mut arena);
        }

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn disabled_index_stores_nothing_and_releases_the_offered_fork() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(0);
        assert!(!index.enabled());
        let (snap, _) = aligned_snapshot(&model, &mut arena, &[1, 2], &[BOS, 5, 6, 7]);
        assert!(!index.insert(&prefix_key(&[1, 2], &[BOS, 5, 6, 7]), snap, &mut arena));
        assert_eq!(index.entries(), 0);
        assert_eq!(arena.kv_bytes_in_use(), 0, "rejected fork must be released");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let src = vec![4, 5, 6];
        let target = vec![BOS, 3, 9, 3, 9, 3];
        // Budget sized for exactly two 2-row entries.
        let (probe, _) = aligned_snapshot(&model, &mut arena, &src, &target[..2]);
        let entry_bytes = probe.resident_kv_bytes(&arena);
        {
            let mut probe = probe;
            probe.release(&mut arena);
        }
        let mut index = PrefixIndex::new(2 * entry_bytes);

        let srcs = [vec![4, 5, 6], vec![5, 6, 7], vec![6, 7, 8]];
        for s in &srcs {
            let (snap, _) = aligned_snapshot(&model, &mut arena, s, &target[..2]);
            assert!(index.insert(&prefix_key(s, &target[..2]), snap, &mut arena));
        }
        // Third insert evicted the first (LRU) entry.
        assert_eq!(index.entries(), 2);
        assert!(index.bytes() <= 2 * entry_bytes);
        assert!(index.lookup(&prefix_key(&srcs[0], &target)).is_none());
        assert!(index.lookup(&prefix_key(&srcs[1], &target)).is_some());

        // Touching srcs[1] then inserting again must evict srcs[2].
        let (snap, _) = aligned_snapshot(&model, &mut arena, &[7, 8, 9], &target[..2]);
        assert!(index.insert(&prefix_key(&[7, 8, 9], &target[..2]), snap, &mut arena));
        assert!(index.lookup(&prefix_key(&srcs[1], &target)).is_some());
        assert!(index.lookup(&prefix_key(&srcs[2], &target)).is_none());

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }
}
