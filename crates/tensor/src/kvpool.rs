//! Paged block storage for incremental-decoding KV caches.
//!
//! The incremental decoders used to give every session a flat
//! [`Mat`] per layer, reserved to the model's `max_len` up front —
//! worst-case provisioning that caps how many sessions fit in a fixed
//! memory budget. [`KvPool`] replaces that with the classic paged
//! layout: storage is a set of fixed-size **pages** (`page_rows × cols`
//! each), a free list recycles pages across sessions, and every
//! sequence is a [`KvSeq`] *block table* — an ordered list of page
//! indices plus a logical row count. Sessions allocate pages on demand
//! as rows are pushed, shrink across page boundaries on rollback, and
//! release every page copy-free on retirement.
//!
//! **Reading in place:** a page stores exactly the rows that a flat
//! `Mat` would hold, in the same order, contiguously (`page_rows × cols`,
//! row-major). [`KvPool::page_runs`] walks a row range of a sequence as
//! maximal page-resident *runs* — borrowed slices, one per page touched —
//! so attention reads K and V where they live, with no copy.
//!
//! **Sharing:** pages are reference-counted, so a sequence can be
//! [`KvPool::fork`]ed in O(pages) without copying KV bytes: full pages
//! are shared (refcount bumped), only the partially-filled tail page is
//! copied. Writes go through [`KvPool::push_row`], which copies a
//! shared page before mutating it (copy-on-write), so no write is ever
//! visible through a sibling fork; [`KvPool::truncate`] and
//! [`KvPool::release`] decrement refcounts and recycle a page only when
//! the last holder lets go. This is what the serving layer's
//! shared-prefix cache is built on.
//!
//! **Reading shared rows once:** [`KvPool::shared_prefix_rows`] says how
//! many leading rows a set of sequences holds in the very same pages —
//! same page id at the same block-table index, full in every sequence.
//! Attention reads those rows once for all the sequences
//! (`quantized::attention_cohorts`), and [`KvPool::page_runs`] takes a
//! row range so the shared rows and each sequence's own rows are walked
//! apart.
//!
//! The page size is tunable via the `ACCEL_KV_PAGE` environment
//! variable (see [`page_rows_from_env`]); CI runs a tiny-page stress
//! matrix so page-boundary paths are exercised on every change.

use std::ops::Range;

use crate::Mat;

/// Default page height (rows per page) when `ACCEL_KV_PAGE` is unset.
pub const DEFAULT_PAGE_ROWS: usize = 16;

/// Reads the page height from the `ACCEL_KV_PAGE` environment variable,
/// falling back to `default`. Parsed on every call (cheap — once per
/// arena construction), so tests and CI matrices can vary it without
/// process-global caching. Parsing lives in [`crate::envcfg`].
pub fn page_rows_from_env(default: usize) -> usize {
    crate::envcfg::kv_page_rows(default)
}

/// A sequence's block table: the ordered pages it owns inside one
/// [`KvPool`], plus its logical row count. Create with [`KvSeq::new`],
/// grow with [`KvPool::push_row`], shrink with [`KvPool::truncate`],
/// and hand back with [`KvPool::release`].
///
/// A `KvSeq` is only meaningful against the pool that grew it; the
/// pool's accessors assert index validity in debug builds.
///
/// Deliberately **not** `Clone`: duplicating a block table without
/// touching the pool's refcounts would alias pages invisibly. Use
/// [`KvPool::fork`] to share a sequence.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct KvSeq {
    pages: Vec<usize>,
    rows: usize,
}

impl KvSeq {
    /// An empty sequence holding no pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Pages currently held (resident, whether full or partial).
    pub fn pages_held(&self) -> usize {
        self.pages.len()
    }

    /// The pool page indices this sequence holds, in logical order.
    /// Exposed so byte accounting can count a page shared by several
    /// sequences exactly once (dedupe on `(pool, page)` identity).
    pub fn page_ids(&self) -> &[usize] {
        &self.pages
    }
}

/// A shared pool of fixed-size `page_rows × cols` pages with free-list
/// recycling. One pool serves every session and layer of a model side
/// (all caches share `cols = d_model`).
#[derive(Debug, Clone)]
pub struct KvPool<T> {
    page_rows: usize,
    cols: usize,
    pages: Vec<Mat<T>>,
    /// Per-page reference count, parallel to `pages`. `0` means the
    /// page sits on the free list; forking a sequence bumps the count
    /// of every shared page.
    refs: Vec<u32>,
    free: Vec<usize>,
    max_pages: Option<usize>,
}

impl<T: Copy + Default> KvPool<T> {
    /// An unbounded pool of `page_rows × cols` pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows` or `cols` is zero.
    pub fn new(page_rows: usize, cols: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be positive");
        assert!(cols > 0, "cols must be positive");
        Self {
            page_rows,
            cols,
            pages: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            max_pages: None,
        }
    }

    /// A pool that refuses to allocate more than `max_pages` pages
    /// (the fixed KV memory budget of a serving host).
    pub fn with_max_pages(page_rows: usize, cols: usize, max_pages: usize) -> Self {
        let mut p = Self::new(page_rows, cols);
        p.max_pages = Some(max_pages);
        p
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pages handed out to live sequences.
    pub fn pages_in_use(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Pages on the free list, ready for reuse.
    pub fn pages_free(&self) -> usize {
        self.free.len()
    }

    /// Bytes resident in pages currently held by sequences. Free-listed
    /// pages are excluded — they are reusable capacity, not live KV.
    pub fn bytes_in_use(&self) -> usize {
        self.pages_in_use() * self.page_rows * self.cols * std::mem::size_of::<T>()
    }

    /// Bytes ever allocated (live + free-listed pages) — the pool's
    /// high-water footprint.
    pub fn bytes_allocated(&self) -> usize {
        self.pages.len() * self.page_rows * self.cols * std::mem::size_of::<T>()
    }

    /// Rows of page storage resident for `seq` (its logical rows rounded
    /// up to whole pages).
    pub fn resident_rows(&self, seq: &KvSeq) -> usize {
        seq.pages.len() * self.page_rows
    }

    fn acquire_page(&mut self) -> usize {
        if let Some(i) = self.free.pop() {
            debug_assert_eq!(self.refs[i], 0, "free page {i} still referenced");
            self.refs[i] = 1;
            return i;
        }
        if let Some(max) = self.max_pages {
            assert!(
                self.pages.len() < max,
                "KV pool exhausted: {max} pages allocated and none free"
            );
        }
        self.pages.push(Mat::zeros(self.page_rows, self.cols));
        self.refs.push(1);
        self.pages.len() - 1
    }

    /// Reference count of pool page `page` (`0` = on the free list).
    pub fn page_ref(&self, page: usize) -> u32 {
        self.refs[page]
    }

    /// Ensures `seq`'s page `p` is exclusively owned, copying the first
    /// `valid_rows` rows into a fresh page if it is shared — the
    /// copy-on-write step. Returns the (possibly new) pool page index.
    fn ensure_exclusive(&mut self, seq: &mut KvSeq, p: usize, valid_rows: usize) -> usize {
        let old = seq.pages[p];
        if self.refs[old] <= 1 {
            return old;
        }
        let fresh = self.acquire_page();
        self.copy_rows(old, fresh, valid_rows);
        self.refs[old] -= 1;
        seq.pages[p] = fresh;
        fresh
    }

    /// Appends one row to `seq`, allocating a page on demand when the
    /// sequence's last page is full. If the target page is shared with
    /// a fork, it is copied first (copy-on-write) so the write is never
    /// visible through a sibling sequence.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`, or the pool's page budget
    /// ([`KvPool::with_max_pages`]) is exhausted.
    pub fn push_row(&mut self, seq: &mut KvSeq, row: &[T]) {
        assert_eq!(
            row.len(),
            self.cols,
            "push_row width {} != cols {}",
            row.len(),
            self.cols
        );
        if seq.rows == seq.pages.len() * self.page_rows {
            let page = self.acquire_page();
            seq.pages.push(page);
        }
        let p = seq.rows / self.page_rows;
        let r = seq.rows % self.page_rows;
        let page = self.ensure_exclusive(seq, p, r);
        self.pages[page].row_mut(r).copy_from_slice(row);
        seq.rows += 1;
    }

    /// Copies the first `rows` rows of page `src` into page `dst`.
    fn copy_rows(&mut self, src: usize, dst: usize, rows: usize) {
        let n = rows * self.cols;
        let (src, dst) = if src < dst {
            let (lo, hi) = self.pages.split_at_mut(dst);
            (&lo[src], &mut hi[0])
        } else {
            let (lo, hi) = self.pages.split_at_mut(src);
            (&hi[0], &mut lo[dst])
        };
        dst.as_mut_slice()[..n].copy_from_slice(&src.as_slice()[..n]);
    }

    /// Forks `seq`: the returned sequence sees exactly the same logical
    /// rows, sharing every full page with the parent (refcount bump, no
    /// copy) and copying only the partially-filled tail page. O(pages)
    /// plus at most one page copy, regardless of sequence length.
    ///
    /// Parent and child are symmetric afterwards: either may push,
    /// truncate, or release independently; writes to shared pages go
    /// through copy-on-write in [`KvPool::push_row`].
    pub fn fork(&mut self, seq: &KvSeq) -> KvSeq {
        let full = seq.rows / self.page_rows;
        let tail_rows = seq.rows % self.page_rows;
        let mut pages = Vec::with_capacity(seq.pages.len());
        for &p in &seq.pages[..full] {
            self.refs[p] += 1;
            pages.push(p);
        }
        if tail_rows > 0 {
            let src = seq.pages[full];
            let fresh = self.acquire_page();
            self.copy_rows(src, fresh, tail_rows);
            pages.push(fresh);
        }
        KvSeq {
            pages,
            rows: seq.rows,
        }
    }

    /// Borrow of `seq`'s logical row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= seq.rows()`.
    pub fn row<'a>(&'a self, seq: &KvSeq, r: usize) -> &'a [T] {
        assert!(r < seq.rows, "row {r} out of bounds ({})", seq.rows);
        self.pages[seq.pages[r / self.page_rows]].row(r % self.page_rows)
    }

    /// Walks `seq`'s logical rows `rows` as page-resident runs: each item
    /// is `(first logical row, slice)`, the slice holding that run's rows
    /// (`slice.len() / cols` of them) contiguously, row-major, borrowed
    /// from the page they live in. Runs tile `rows` in order, never cross
    /// a page, and are maximal (a run ends only at a page end or at
    /// `rows.end`). This is how attention reads a paged cache in place.
    ///
    /// # Panics
    ///
    /// Panics if the row range runs past the sequence's rows.
    pub fn page_runs<'a>(&'a self, seq: &'a KvSeq, rows: Range<usize>) -> PageRuns<'a, T> {
        assert!(
            rows.start <= rows.end && rows.end <= seq.rows,
            "rows {}..{} exceed the sequence's {}",
            rows.start,
            rows.end,
            seq.rows
        );
        PageRuns {
            pool: self,
            seq,
            next: rows.start,
            end: rows.end,
        }
    }

    /// Rows that every sequence in `seqs` holds in the same storage: the
    /// leading pages with the same pool page at the same block-table
    /// index in every one of them **and full in every one of them**. A
    /// fork rolled back into a shared page keeps that page's id but
    /// fewer valid rows, so a page partial in any sequence ends the
    /// count. Always a whole number of pages; `0` for no sequences.
    /// Attention reads these rows once for all the sequences
    /// (`quantized::attention_cohorts`).
    pub fn shared_prefix_rows(&self, seqs: &[&KvSeq]) -> usize {
        let Some((first, rest)) = seqs.split_first() else {
            return 0;
        };
        let full = seqs
            .iter()
            .map(|s| s.rows / self.page_rows)
            .min()
            .unwrap_or(0);
        let pages = (0..full)
            .take_while(|&p| rest.iter().all(|s| s.pages[p] == first.pages[p]))
            .count();
        pages * self.page_rows
    }

    /// Shrinks `seq` to its first `rows` rows, dropping this sequence's
    /// reference on now-unused trailing pages; a page is recycled to
    /// the free list only when the last referencing sequence lets go.
    /// Works across page boundaries — truncating from row 17 to row 15
    /// with 16-row pages drops the second page — which is what the
    /// serving layer's rollback-and-recompute relies on. Truncation
    /// never writes page contents, so rolling back into a shared page
    /// is safe: the subsequent re-push copies-on-write.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the sequence's current row count.
    pub fn truncate(&mut self, seq: &mut KvSeq, rows: usize) {
        assert!(
            rows <= seq.rows,
            "truncate {rows} exceeds current rows {}",
            seq.rows
        );
        seq.rows = rows;
        let needed = rows.div_ceil(self.page_rows);
        while seq.pages.len() > needed {
            let page = seq.pages.pop().expect("len checked");
            debug_assert!(self.refs[page] > 0, "page {page} double-freed");
            self.refs[page] -= 1;
            if self.refs[page] == 0 {
                self.free.push(page);
            }
        }
    }

    /// Drops every page reference `seq` holds, recycling pages whose
    /// last reference this was (copy-free — the page contents are left
    /// in place and overwritten by the next owner).
    pub fn release(&mut self, seq: &mut KvSeq) {
        self.truncate(seq, 0);
    }
}

/// Iterator of [`KvPool::page_runs`].
#[derive(Debug, Clone)]
pub struct PageRuns<'a, T> {
    pool: &'a KvPool<T>,
    seq: &'a KvSeq,
    next: usize,
    end: usize,
}

impl<'a, T> Iterator for PageRuns<'a, T> {
    type Item = (usize, &'a [T]);

    fn next(&mut self) -> Option<Self::Item> {
        let r = self.next;
        if r >= self.end {
            return None;
        }
        let pr = self.pool.page_rows;
        let (p, first) = (r / pr, r % pr);
        let take = (pr - first).min(self.end - r);
        let cols = self.pool.cols;
        let data =
            &self.pool.pages[self.seq.pages[p]].as_slice()[first * cols..(first + take) * cols];
        self.next = r + take;
        Some((r, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All of `seq`'s rows, read through [`KvPool::page_runs`].
    fn rows_of<T: Copy + Default>(pool: &KvPool<T>, seq: &KvSeq) -> Vec<T> {
        pool.page_runs(seq, 0..seq.rows())
            .flat_map(|(_, run)| run.iter().copied())
            .collect()
    }

    fn fill(pool: &mut KvPool<i8>, seq: &mut KvSeq, n: usize, base: i8) {
        for i in 0..n {
            let row = vec![base.wrapping_add(i as i8); pool.cols()];
            pool.push_row(seq, &row);
        }
    }

    #[test]
    fn rows_round_trip_across_pages() {
        let mut pool = KvPool::<i8>::new(4, 3);
        let mut seq = KvSeq::new();
        fill(&mut pool, &mut seq, 10, 1);
        assert_eq!(seq.rows(), 10);
        assert_eq!(seq.pages_held(), 3);
        assert_eq!(pool.resident_rows(&seq), 12);
        for r in 0..10 {
            assert_eq!(pool.row(&seq, r), vec![1 + r as i8; 3].as_slice());
        }
    }

    #[test]
    fn page_runs_read_rows_in_place() {
        let mut pool = KvPool::<i8>::new(3, 8);
        let mut seq = KvSeq::new();
        let flat: Vec<i8> = (0..7 * 8).map(|v| v as i8).collect();
        for row in flat.chunks(8) {
            pool.push_row(&mut seq, row);
        }
        // Whole sequence, a page-aligned tail, a range inside one page,
        // one straddling two boundaries, and an empty range.
        for (r0, r1) in [(0usize, 7usize), (3, 7), (4, 5), (2, 7), (5, 5)] {
            let runs: Vec<(usize, &[i8])> = pool.page_runs(&seq, r0..r1).collect();
            let mut at = r0;
            for &(start, run) in &runs {
                assert_eq!(start, at, "runs tile the range in order");
                let n = run.len() / 8;
                assert!(
                    n > 0 && start / 3 == (start + n - 1) / 3,
                    "one page per run"
                );
                assert!(
                    start % 3 == 0 || start == r0,
                    "a run starts a page or the range"
                );
                at += n;
            }
            assert_eq!(at, r1);
            let read: Vec<i8> = runs
                .iter()
                .flat_map(|(_, run)| run.iter().copied())
                .collect();
            assert_eq!(read, flat[r0 * 8..r1 * 8], "rows {r0}..{r1}");
        }
        assert_eq!(rows_of(&pool, &seq), flat);
    }

    #[test]
    fn truncate_frees_pages_across_boundaries() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut seq = KvSeq::new();
        fill(&mut pool, &mut seq, 9, 0); // 3 pages
        pool.truncate(&mut seq, 4); // exactly one page's worth
        assert_eq!(seq.pages_held(), 1);
        assert_eq!(pool.pages_free(), 2);
        // Rollback one row below a boundary from above it.
        fill(&mut pool, &mut seq, 1, 50); // row 4 -> second page
        assert_eq!(seq.pages_held(), 2);
        pool.truncate(&mut seq, 3);
        assert_eq!(seq.pages_held(), 1);
        assert_eq!(pool.row(&seq, 2), &[2, 2]);
    }

    #[test]
    fn release_recycles_pages_to_other_sequences() {
        let mut pool = KvPool::<i8>::new(2, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 6, 1);
        let held = pool.pages_in_use();
        pool.release(&mut a);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(a.rows(), 0);
        let mut b = KvSeq::new();
        fill(&mut pool, &mut b, 6, 9);
        // No fresh allocation was needed.
        assert_eq!(pool.pages_in_use(), held);
        assert_eq!(pool.pages_free(), 0);
        assert_eq!(pool.row(&b, 5), &[14, 14]);
    }

    #[test]
    fn bytes_accounting_tracks_live_pages_only() {
        let mut pool = KvPool::<f32>::new(4, 8);
        assert_eq!(pool.bytes_in_use(), 0);
        let mut seq = KvSeq::new();
        pool.push_row(&mut seq, &[0.0; 8]);
        assert_eq!(pool.bytes_in_use(), 4 * 8 * 4);
        pool.release(&mut seq);
        assert_eq!(pool.bytes_in_use(), 0);
        assert_eq!(pool.bytes_allocated(), 4 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "KV pool exhausted")]
    fn page_budget_is_enforced() {
        let mut pool = KvPool::<i8>::with_max_pages(2, 2, 1);
        let mut seq = KvSeq::new();
        fill(&mut pool, &mut seq, 3, 0);
    }

    #[test]
    #[should_panic(expected = "push_row width")]
    fn wrong_width_rejected() {
        let mut pool = KvPool::<i8>::new(2, 3);
        let mut seq = KvSeq::new();
        pool.push_row(&mut seq, &[1, 2]);
    }

    #[test]
    fn fork_shares_full_pages_and_copies_tail() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 10, 1); // 2 full pages + 2-row tail
        let used_before = pool.pages_in_use();
        let b = pool.fork(&a);
        // Only the tail page is duplicated.
        assert_eq!(pool.pages_in_use(), used_before + 1);
        assert_eq!(b.rows(), 10);
        assert_eq!(a.page_ids()[..2], b.page_ids()[..2]);
        assert_ne!(a.page_ids()[2], b.page_ids()[2]);
        assert_eq!(pool.page_ref(a.page_ids()[0]), 2);
        assert_eq!(rows_of(&pool, &a), rows_of(&pool, &b));
    }

    #[test]
    fn fork_of_page_aligned_seq_copies_nothing() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1);
        let used = pool.pages_in_use();
        let b = pool.fork(&a);
        assert_eq!(pool.pages_in_use(), used);
        assert_eq!(rows_of(&pool, &a), rows_of(&pool, &b));
    }

    #[test]
    fn writes_after_fork_are_isolated() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 10, 1);
        let mut b = pool.fork(&a);
        let snap_a = rows_of(&pool, &a);
        fill(&mut pool, &mut b, 3, 100); // grows b's private tail
        assert_eq!(rows_of(&pool, &a), snap_a);
        assert_eq!(b.rows(), 13);
        assert_eq!(pool.row(&b, 10), &[100, 100]);
    }

    #[test]
    fn rollback_into_shared_page_cows_on_repush() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1); // two full pages
        let mut b = pool.fork(&a); // both pages shared
        assert_eq!(pool.page_ref(a.page_ids()[1]), 2);
        // Roll b back below the page boundary, into the shared page...
        pool.truncate(&mut b, 6);
        let snap_a = rows_of(&pool, &a);
        // ...then re-push: the shared page must be copied, not mutated.
        fill(&mut pool, &mut b, 2, 50);
        assert_eq!(rows_of(&pool, &a), snap_a, "write leaked through fork");
        assert_eq!(pool.row(&b, 5), &[6, 6]);
        assert_eq!(pool.row(&b, 6), &[50, 50]);
        assert_eq!(pool.page_ref(a.page_ids()[1]), 1);
    }

    #[test]
    fn release_recycles_only_at_refcount_zero() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1);
        let mut b = pool.fork(&a);
        pool.release(&mut a);
        // b still holds both pages; nothing recycled yet.
        assert_eq!(pool.pages_free(), 0);
        assert_eq!(pool.row(&b, 7), &[8, 8]);
        pool.release(&mut b);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.pages_free(), 2);
    }

    #[test]
    fn shared_pages_counted_once_in_bytes_in_use() {
        let mut pool = KvPool::<i8>::new(4, 8);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1); // 2 pages = 64 bytes
        assert_eq!(pool.bytes_in_use(), 64);
        let _b = pool.fork(&a);
        // Fully page-aligned fork: zero extra bytes.
        assert_eq!(pool.bytes_in_use(), 64);
    }

    #[test]
    fn env_page_rows_parsing() {
        // Only exercises the fallback path (the variable is not set in
        // the test environment unless the CI page-stress matrix sets it,
        // in which case the parsed value must be positive).
        let v = page_rows_from_env(16);
        assert!(v > 0);
        match std::env::var("ACCEL_KV_PAGE") {
            Ok(s) => assert_eq!(v, s.trim().parse::<usize>().unwrap_or(16).max(1)),
            Err(_) => assert_eq!(v, 16),
        }
    }
}
