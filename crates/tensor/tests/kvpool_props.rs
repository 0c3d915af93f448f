//! Property tests for the paged KV pool's free-list allocator and
//! copy-on-write page sharing.
//!
//! The invariants under test: across arbitrary interleavings of
//! per-sequence appends, chunk rollbacks (truncation across page
//! boundaries), full releases, and **forks** (refcounted page sharing),
//!
//! * the pool never **leaks** (pages in use always equals the number of
//!   *distinct* pages reachable from live sequences, every page's
//!   refcount equals the number of live sequences holding it, and
//!   releasing everything returns the pool to zero resident bytes),
//! * the pool never **double-frees**, cross-links, or lets a write leak
//!   through a fork (every sequence's rows read back bit-identical to a
//!   flat no-sharing shadow maintained in plain `Vec`s, so a page
//!   recycled while still referenced — or mutated while shared — would
//!   be caught immediately),
//! * `gather_panel` stays bit-identical to slicing the flat shadow.

use std::collections::HashMap;

use proptest::prelude::*;
use tensor::kvpool::{KvPool, KvSeq};

/// One step of the random schedule, applied to a sequence index.
#[derive(Debug, Clone)]
enum Op {
    /// Append `n` rows (1..=9) to sequence `seq`.
    Push { seq: usize, n: usize },
    /// Roll back up to `n` rows (chunk retry / speculative rollback).
    Rollback { seq: usize, n: usize },
    /// Retire the sequence, dropping every page reference it holds.
    Release { seq: usize },
    /// Replace sequence `dst` with a fork of `src` (prefix-cache hit).
    Fork { src: usize, dst: usize },
}

/// 4:2:1:2 weighted Push/Rollback/Release/Fork (the vendored proptest
/// has no `prop_oneof`, so a kind index is mapped by hand). Fork picks
/// a destination distinct from the source.
fn op_strategy(n_seqs: usize) -> impl Strategy<Value = Op> {
    (0usize..9, 0..n_seqs, 1usize..=9).prop_map(move |(kind, seq, n)| match kind {
        0..=3 => Op::Push { seq, n },
        4..=5 => Op::Rollback { seq, n },
        6 => Op::Release { seq },
        _ => Op::Fork {
            src: seq,
            dst: (seq + 1 + (n % (n_seqs - 1))) % n_seqs,
        },
    })
}

/// A deterministic, content-unique row: byte `c` of stamp `stamp` of
/// sequence `s` — any page aliasing between sequences (or a write
/// leaking through a shared page) shows up as a byte mismatch against
/// the shadow. The stamp is globally monotone so rows re-pushed after a
/// rollback, and rows pushed onto a fork, always carry fresh content.
fn row_bytes(seq: usize, stamp: usize, cols: usize) -> Vec<i8> {
    (0..cols)
        .map(|c| ((seq * 131 + stamp * 17 + c * 3) % 251) as u8 as i8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_schedules_never_leak_or_alias(
        page_rows in 1usize..=7,
        cols in 1usize..=6,
        ops in proptest::collection::vec(op_strategy(4), 1..120),
    ) {
        let n_seqs = 4;
        let mut pool: KvPool<i8> = KvPool::new(page_rows, cols);
        let mut seqs: Vec<KvSeq> = (0..n_seqs).map(|_| KvSeq::new()).collect();
        // Flat no-sharing shadow: the rows each sequence logically
        // holds. Forks deep-copy the shadow, so any write that leaks
        // through a shared page diverges from it instantly.
        let mut shadow: Vec<Vec<Vec<i8>>> = vec![Vec::new(); n_seqs];
        let mut stamp = 0usize;

        for op in &ops {
            match *op {
                Op::Push { seq, n } => {
                    for _ in 0..n {
                        let row = row_bytes(seq, stamp, cols);
                        stamp += 1;
                        pool.push_row(&mut seqs[seq], &row);
                        shadow[seq].push(row);
                    }
                }
                Op::Rollback { seq, n } => {
                    let keep = shadow[seq].len().saturating_sub(n);
                    pool.truncate(&mut seqs[seq], keep);
                    shadow[seq].truncate(keep);
                }
                Op::Release { seq } => {
                    pool.release(&mut seqs[seq]);
                    shadow[seq].clear();
                }
                Op::Fork { src, dst } => {
                    let mut old = std::mem::take(&mut seqs[dst]);
                    pool.release(&mut old);
                    seqs[dst] = pool.fork(&seqs[src]);
                    shadow[dst] = shadow[src].clone();
                }
            }

            // No leak / no double-free: the pool's notion of "in use"
            // must equal the *distinct* pages reachable from live
            // sequences, every page's refcount must equal the number of
            // live sequences holding it, and every sequence holds
            // exactly the pages its row count needs.
            let mut holders: HashMap<usize, u32> = HashMap::new();
            for s in &seqs {
                for &p in s.page_ids() {
                    *holders.entry(p).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(pool.pages_in_use(), holders.len());
            for (&p, &n_holders) in &holders {
                prop_assert_eq!(pool.page_ref(p), n_holders, "page {} refcount", p);
            }
            for (s, sh) in seqs.iter().zip(&shadow) {
                prop_assert_eq!(s.rows(), sh.len());
                prop_assert_eq!(s.pages_held(), sh.len().div_ceil(page_rows));
            }

            // No aliasing, no COW leak: every live row reads back
            // bit-identical to the flat shadow (a recycled-but-still-
            // referenced page, or a sibling's write landing in a shared
            // page, would hold foreign bytes).
            for (si, (s, sh)) in seqs.iter().zip(&shadow).enumerate() {
                for (r, want) in sh.iter().enumerate() {
                    prop_assert_eq!(pool.row(s, r), &want[..], "seq {} row {}", si, r);
                }
            }
        }

        // gather_panel over the full width matches flat slicing.
        for (s, sh) in seqs.iter().zip(&shadow) {
            if sh.is_empty() {
                continue;
            }
            let panel = pool.gather_panel(s, 0..sh.len(), 0, cols);
            for (r, want) in sh.iter().enumerate() {
                prop_assert_eq!(panel.row(r), &want[..]);
            }
        }

        // Releasing everything returns the pool to zero resident bytes
        // — the free list got every page back, shared or not.
        for s in &mut seqs {
            pool.release(s);
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
        prop_assert_eq!(pool.bytes_in_use(), 0);
    }

    #[test]
    fn shared_prefix_rows_matches_a_row_by_row_definition(
        ops in proptest::collection::vec(op_strategy(4), 1..120),
    ) {
        // Row `t` is shared by a set of sequences when each of them holds
        // it, at the same pool page, in a page that is full in each of
        // them; `shared_prefix_rows` is the leading run of such rows.
        // Checked after every step of a random schedule, for every subset
        // of two or more sequences, and the rows it reports must really be
        // one storage: the same bytes at the same address in every member.
        let page_rows = 4;
        let mut pool: KvPool<i8> = KvPool::new(page_rows, 3);
        let mut seqs: Vec<KvSeq> = (0..4).map(|_| KvSeq::new()).collect();
        let mut stamp = 0usize;
        for op in &ops {
            match *op {
                Op::Push { seq, n } => {
                    for _ in 0..n {
                        pool.push_row(&mut seqs[seq], &row_bytes(seq, stamp, 3));
                        stamp += 1;
                    }
                }
                Op::Rollback { seq, n } => {
                    let keep = seqs[seq].rows().saturating_sub(n);
                    pool.truncate(&mut seqs[seq], keep);
                }
                Op::Release { seq } => pool.release(&mut seqs[seq]),
                Op::Fork { src, dst } => {
                    let mut old = std::mem::take(&mut seqs[dst]);
                    pool.release(&mut old);
                    seqs[dst] = pool.fork(&seqs[src]);
                }
            }
            for mask in 1u32..16 {
                let set: Vec<&KvSeq> = (0..4)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| &seqs[i])
                    .collect();
                if set.len() < 2 {
                    continue;
                }
                let shared_row = |t: usize| {
                    let p = t / page_rows;
                    set.iter().all(|s| {
                        (p + 1) * page_rows <= s.rows() && s.page_ids()[p] == set[0].page_ids()[p]
                    })
                };
                let want = (0..).take_while(|&t| shared_row(t)).count();
                let got = pool.shared_prefix_rows(&set);
                prop_assert_eq!(got, want, "sequences {:#b}", mask);
                for t in 0..got {
                    for s in &set[1..] {
                        prop_assert!(std::ptr::eq(pool.row(s, t), pool.row(set[0], t)));
                    }
                }
            }
        }
    }

    #[test]
    fn recycled_pages_serve_new_sequences_without_growth(
        page_rows in 1usize..=5,
        rows in 1usize..=40,
    ) {
        // Fill one sequence, release it, fill another of the same size:
        // the second must be served entirely from recycled pages.
        let mut pool: KvPool<i8> = KvPool::new(page_rows, 3);
        let mut a = KvSeq::new();
        for r in 0..rows {
            pool.push_row(&mut a, &row_bytes(0, r, 3));
        }
        let allocated = pool.bytes_allocated();
        pool.release(&mut a);
        let mut b = KvSeq::new();
        for r in 0..rows {
            pool.push_row(&mut b, &row_bytes(1, r, 3));
        }
        prop_assert_eq!(pool.bytes_allocated(), allocated);
        for r in 0..rows {
            prop_assert_eq!(pool.row(&b, r), &row_bytes(1, r, 3)[..]);
        }
    }

    #[test]
    fn fork_chain_shares_all_full_pages(
        page_rows in 1usize..=6,
        rows in 1usize..=48,
        forks in 1usize..=6,
    ) {
        // N forks of one page-aligned-truncated sequence must cost zero
        // extra full pages: bytes_in_use counts each shared page once.
        let mut pool: KvPool<i8> = KvPool::new(page_rows, 3);
        let mut base = KvSeq::new();
        for r in 0..rows {
            pool.push_row(&mut base, &row_bytes(0, r, 3));
        }
        let aligned = (rows / page_rows) * page_rows;
        pool.truncate(&mut base, aligned);
        let before = pool.bytes_in_use();
        let mut kids = Vec::new();
        for _ in 0..forks {
            kids.push(pool.fork(&base));
        }
        prop_assert_eq!(pool.bytes_in_use(), before, "fork copied a full page");
        for k in &kids {
            for r in 0..aligned {
                prop_assert_eq!(pool.row(k, r), &row_bytes(0, r, 3)[..]);
            }
        }
        // Tear down in mixed order; no page may leak.
        pool.release(&mut base);
        for k in &mut kids {
            pool.release(k);
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
    }
}
