//! Per-node page state.
//!
//! Each node sees every shared page as either *homed here* (it holds the
//! authoritative copy and its version vector `p.v`) or *remote* (it may hold
//! a cached copy, which write notices invalidate).
//!
//! Writes are detected at the API boundary (see DESIGN.md: this substitutes
//! for the paper's mprotect/SIGSEGV machinery): the first write to a page in
//! an interval creates a *twin*; at interval end, [`PageTable::end_interval`]
//! turns twins into word-granularity diffs exactly as HLRC does.
//!
//! Home-page state itself lives in the sharded [`HomeStore`], shared with
//! the service thread's home handlers (which never take the big lock);
//! this table keeps the remote-page cache (application-thread state under
//! the node's big lock) plus a slot marker recording where each page is
//! homed.

use std::sync::Arc;

use dsm_page::{
    Diff, DiffScratch, Interval, Page, PageId, PagePool, PoolStats, ProcId, VectorClock,
};

use crate::flush::{self, DiffJob};
use crate::homestore::HomeStore;

/// Validity of a cached remote page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// No usable local copy; the next access must fetch from the home.
    Invalid,
    /// The cached copy satisfies every invalidation seen so far.
    Valid,
}

/// State for a page homed elsewhere.
#[derive(Debug)]
pub struct PageMeta {
    /// The page's home node.
    pub home: ProcId,
    /// Validity of `copy`.
    pub state: PageState,
    /// Cached copy (meaningful when `state == Valid`).
    pub copy: Option<Page>,
    /// Minimal version the next fetch must include (join of invalidations).
    pub needed: VectorClock,
}

#[derive(Debug)]
enum Entry {
    /// Homed here; the data lives in the [`HomeStore`].
    Home,
    Remote(PageMeta),
}

#[derive(Debug)]
struct Slot {
    entry: Entry,
    /// Pre-write copy for the current interval; `Some` iff this node wrote
    /// the (remote) page in the current interval. Home twins live in the
    /// home store, under the same shard lock as the copy they snapshot.
    twin: Option<Page>,
}

/// What an access needs before it can proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The local copy is usable.
    Ready,
    /// Fetch the page from `home` with at least version `needed` (for homed
    /// pages this means: wait until in-flight diffs arrive).
    NeedFetch {
        /// The page's home node.
        home: ProcId,
        /// Minimal version the fetched copy must include.
        needed: VectorClock,
    },
}

/// The full per-node page table.
#[derive(Debug)]
pub struct PageTable {
    me: ProcId,
    page_size: usize,
    slots: Vec<Slot>,
    /// Sharded authoritative copies of pages homed here, shared with the
    /// service thread.
    home: Arc<HomeStore>,
    /// Free list recycling twin / copy-on-write buffers across intervals
    /// (remote pages; each home-store shard pools its own).
    pool: PagePool,
    /// Reused diff-creation scratch (one per node, per the zero-copy design).
    scratch: DiffScratch,
    /// Remote pages twinned this interval, in twin-creation order — the
    /// dirty set, so the release flush touches only written slots instead of
    /// scanning the whole table. Invariant: a page is listed iff its slot
    /// has a twin (`invalidate` asserts no twin, so entries never go stale).
    twinned: Vec<PageId>,
}

impl PageTable {
    /// An empty table for node `me` of an `n`-node cluster.
    pub fn new(me: ProcId, n: usize, page_size: usize) -> Self {
        PageTable {
            me,
            page_size,
            slots: Vec::new(),
            home: Arc::new(HomeStore::new(n, page_size)),
            pool: PagePool::new(page_size),
            scratch: DiffScratch::new(),
            twinned: Vec::new(),
        }
    }

    /// Cumulative buffer-pool counters (exported through run reports),
    /// merged over the remote-page pool and the home-store shard pools.
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.merge(&self.home.pool_stats());
        stats
    }

    /// This node's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages in the shared space.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no pages exist yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shared home store, for the service thread's home handlers.
    pub fn home_store(&self) -> Arc<HomeStore> {
        Arc::clone(&self.home)
    }

    /// Append the next shared page, homed at `home`. Every node must call
    /// this in the same order with the same arguments (allocation is a
    /// deterministic SPMD operation). Returns the new page id.
    pub fn add_page(&mut self, home: ProcId) -> PageId {
        let id = PageId(self.slots.len() as u32);
        let entry = if home == self.me {
            self.home.add(id);
            Entry::Home
        } else {
            Entry::Remote(PageMeta {
                home,
                state: PageState::Invalid,
                copy: None,
                needed: VectorClock::zero(self.cluster_size()),
            })
        };
        self.slots.push(Slot { entry, twin: None });
        id
    }

    fn cluster_size(&self) -> usize {
        // The home store knows `n`; avoid storing it twice.
        self.home.cluster_size()
    }

    /// The home of `page`.
    pub fn home_of(&self, page: PageId) -> ProcId {
        match &self.slots[page.index()].entry {
            Entry::Home => self.me,
            Entry::Remote(m) => m.home,
        }
    }

    /// Is `page` homed at this node?
    pub fn is_home(&self, page: PageId) -> bool {
        matches!(self.slots[page.index()].entry, Entry::Home)
    }

    /// Can `page` be accessed right now, and if not, what fetch is needed?
    /// The miss path's question: a hit goes straight to
    /// [`PageTable::read_into`] / [`PageTable::write`], which test
    /// readiness themselves.
    pub fn ensure_access(&self, page: PageId) -> AccessOutcome {
        match &self.slots[page.index()].entry {
            Entry::Home => match self.home.access_gap(page) {
                None => AccessOutcome::Ready,
                Some(needed) => AccessOutcome::NeedFetch {
                    home: self.me,
                    needed,
                },
            },
            Entry::Remote(m) => {
                if m.state == PageState::Valid {
                    AccessOutcome::Ready
                } else {
                    AccessOutcome::NeedFetch {
                        home: m.home,
                        needed: m.needed.clone(),
                    }
                }
            }
        }
    }

    /// Copy `dst.len()` bytes at `offset` of `page` into `dst`: the access
    /// hit path, with the readiness test and the copy in one call. Returns
    /// `false`, touching nothing, when the page is not ready — a remote
    /// page is [`PageState::Invalid`], or a home copy's version does not
    /// cover its `needed` — and the caller must fault it in (see
    /// [`PageTable::ensure_access`]) and retry.
    pub fn read_into(&self, page: PageId, offset: usize, dst: &mut [u8]) -> bool {
        match &self.slots[page.index()].entry {
            Entry::Home => self.home.read_into(page, offset, dst),
            Entry::Remote(m) => {
                if m.state != PageState::Valid {
                    return false;
                }
                let copy = m.copy.as_ref().expect("valid page has a copy");
                dst.copy_from_slice(copy.read(offset, dst.len()));
                true
            }
        }
    }

    /// Write `bytes` at `offset` of `page`, creating the twin on the first
    /// write of the interval. Returns `false`, touching nothing (no twin,
    /// no dirty-set entry, no bytes), when the page is not ready, as for
    /// [`PageTable::read_into`].
    pub fn write(&mut self, page: PageId, offset: usize, bytes: &[u8]) -> bool {
        let Self {
            slots,
            home,
            pool,
            twinned,
            ..
        } = self;
        let slot = &mut slots[page.index()];
        match &mut slot.entry {
            Entry::Home => home.write(page, offset, bytes),
            Entry::Remote(m) => {
                if m.state != PageState::Valid {
                    return false;
                }
                let copy = m.copy.as_mut().expect("valid page has a copy");
                if slot.twin.is_none() {
                    slot.twin = Some(copy.twin());
                    twinned.push(page);
                }
                copy.write_pooled(pool, offset, bytes);
                true
            }
        }
    }

    /// Any pages written (twinned) this interval? O(1): a vec emptiness
    /// check plus one atomic load — the release path's early exit.
    pub fn has_writes(&self) -> bool {
        !self.twinned.is_empty() || self.home.has_writes()
    }

    /// Install a fetched copy of a remote page, adopting the shared buffer
    /// without copying. Any replaced local copy is recycled into the pool.
    pub fn install_fetch(&mut self, page: PageId, bytes: Arc<[u8]>, version: &VectorClock) {
        let Self { slots, pool, .. } = self;
        let slot = &mut slots[page.index()];
        match &mut slot.entry {
            Entry::Home => panic!("install_fetch on homed page {page}"),
            Entry::Remote(m) => {
                debug_assert!(
                    version.covers(&m.needed),
                    "fetched copy older than required version"
                );
                if let Some(old) = m.copy.take() {
                    pool.recycle(old);
                }
                m.copy = Some(Page::from_shared(bytes));
                m.state = PageState::Valid;
            }
        }
    }

    /// Apply a write notice: invalidate the cached copy (remote) or record
    /// the pending version (home). Must not be called while the node has an
    /// unflushed twin for the page (sync ops end the interval first).
    pub fn invalidate(&mut self, page: PageId, writer: ProcId, seq: u32) {
        let Self {
            me, slots, pool, ..
        } = self;
        let slot = &mut slots[page.index()];
        assert!(
            slot.twin.is_none(),
            "invalidation with unflushed twin for {page}"
        );
        match &mut slot.entry {
            Entry::Home => self.home.bump_needed(page, writer, seq),
            Entry::Remote(m) => {
                if writer != *me {
                    m.state = PageState::Invalid;
                    if let Some(old) = m.copy.take() {
                        pool.recycle(old);
                    }
                }
                if m.needed.get(writer) < seq {
                    m.needed.set(writer, seq);
                }
            }
        }
    }

    /// Pages written (twinned) in the current interval, in page order.
    /// Touches only the dirty sets, not every slot.
    pub fn written_pages(&self) -> Vec<PageId> {
        let mut pages = self.twinned.clone();
        pages.extend(self.home.written_pages());
        pages.sort_unstable_by_key(|p| p.0);
        pages
    }

    /// End the current interval: turn every twin into a diff, drop the
    /// twins, and (for homed pages) advance `p.v[me]` to the interval.
    ///
    /// Only dirty pages are visited (the `twinned` list and the home
    /// store's dirty shards), and diff creation runs *outside* the home
    /// shard locks — inline for small dirty sets, fanned out to the
    /// [`flush::FlushPool`] workers for large ones.
    ///
    /// Returns `(diffs, written)`, both in page order: the caller sends
    /// diffs for remote pages to their homes and (in the fault-tolerant
    /// protocol) appends all of them to the diff logs; `written` is every
    /// dirty page, including those whose bytes ended up unchanged (their
    /// write notices still go out, exactly as before).
    pub fn end_interval(&mut self, interval: Interval) -> (Vec<Diff>, Vec<PageId>) {
        debug_assert_eq!(interval.proc, self.me);
        let mut jobs: Vec<DiffJob> = Vec::new();
        for page in std::mem::take(&mut self.twinned) {
            let slot = &mut self.slots[page.index()];
            let Some(twin) = slot.twin.take() else {
                continue;
            };
            let Entry::Remote(m) = &slot.entry else {
                unreachable!("home twins live in the home store");
            };
            let current = m.copy.as_ref().expect("twinned page must be valid");
            jobs.push(DiffJob {
                page,
                twin,
                current: current.clone(),
            });
        }
        jobs.sort_unstable_by_key(|j| j.page.0);
        let remote_jobs = jobs.len();
        self.home.collect_dirty(interval, &mut jobs);
        let written: Vec<PageId> = {
            let mut pages: Vec<PageId> = jobs.iter().map(|j| j.page).collect();
            pages.sort_unstable_by_key(|p| p.0);
            pages
        };
        let (results, jobs) = flush::create_diffs(interval, jobs, &mut self.scratch);
        let mut diffs: Vec<Diff> = results.into_iter().flatten().collect();
        diffs.sort_unstable_by_key(|d| d.page.0);
        // The twins' buffers are dead now — hand them back for the next
        // interval's copy-on-write (rejected harmlessly if still shared,
        // e.g. by an in-flight page reply).
        let mut home_twins = Vec::new();
        for (i, j) in jobs.into_iter().enumerate() {
            if i < remote_jobs {
                self.pool.recycle(j.twin);
            } else {
                home_twins.push((j.page, j.twin));
            }
        }
        self.home.recycle_twins(home_twins);
        (diffs, written)
    }

    /// Apply a diff at the home. Idempotent: diffs for intervals already
    /// covered by `p.v[writer]` are skipped (this makes recovery-time
    /// retransmissions safe). Returns whether the diff was applied.
    ///
    /// # Panics
    /// If this node is not the page's home.
    pub fn home_apply_diff(&mut self, diff: &Diff) -> bool {
        use crate::homestore::ApplyOutcome;
        match self.home.apply_diff(diff, || true) {
            ApplyOutcome::Applied { fresh, .. } => fresh,
            ApplyOutcome::NotHome => panic!("diff for page {} sent to non-home", diff.page),
            ApplyOutcome::Stale => unreachable!("liveness check is constant"),
        }
    }

    /// Does the home copy of `page` satisfy `needed`?
    pub fn home_satisfies(&self, page: PageId, needed: &VectorClock) -> bool {
        assert!(self.is_home(page), "home_satisfies on remote page {page}");
        self.home.satisfies(page, needed)
    }

    /// Version vector of a page homed here.
    pub fn home_version(&self, page: PageId) -> VectorClock {
        assert!(self.is_home(page), "home_version on remote page {page}");
        self.home.version_of(page)
    }

    /// Zero-copy `(version, bytes)` view of a page homed here.
    pub fn home_snapshot(&self, page: PageId) -> (VectorClock, Arc<[u8]>) {
        assert!(self.is_home(page), "home_snapshot on remote page {page}");
        self.home.snapshot(page)
    }

    /// Has `proc` ever sent a diff for `page` (homed here)?
    pub fn home_writers_contain(&self, page: PageId, proc_: ProcId) -> bool {
        self.home.writers_contain(page, proc_)
    }

    /// Ids of all pages homed at this node.
    pub fn homed_pages(&self) -> Vec<PageId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.entry, Entry::Home))
            .map(|(i, _)| PageId(i as u32))
            .collect()
    }

    /// Remote-page metadata (for checkpointing `needed` and tests).
    pub fn remote_meta(&self, page: PageId) -> &PageMeta {
        match &self.slots[page.index()].entry {
            Entry::Remote(m) => m,
            Entry::Home => panic!("remote_meta on homed page {page}"),
        }
    }

    /// Restart support: drop every cached remote copy and twin (the crash
    /// lost them) and every parked remote fetch, keeping home copies for the
    /// caller to overwrite from the checkpoint, and set the `needed` vectors
    /// from `needed_by_page` (page, writer, seq) triples saved in the
    /// checkpoint.
    pub fn reset_for_restart(&mut self, needed_by_page: &[(PageId, ProcId, u32)]) {
        let n = self.cluster_size();
        self.home.reset_for_restart();
        self.twinned.clear();
        for slot in &mut self.slots {
            slot.twin = None;
            if let Entry::Remote(m) = &mut slot.entry {
                m.state = PageState::Invalid;
                m.copy = None;
                m.needed = VectorClock::zero(n);
            }
        }
        for &(page, writer, seq) in needed_by_page {
            match &mut self.slots[page.index()].entry {
                Entry::Home => self.home.bump_needed(page, writer, seq),
                Entry::Remote(m) => m.needed.set(writer, seq),
            }
        }
    }

    /// Checkpoint support: the (page, writer, seq) triples of every nonzero
    /// `needed` entry.
    pub fn needed_triples(&self) -> Vec<(PageId, ProcId, u32)> {
        let mut out = self.home.needed_triples();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Entry::Remote(m) = &slot.entry {
                for (p, &seq) in m.needed.as_slice().iter().enumerate() {
                    if seq > 0 {
                        out.push((PageId(i as u32), p, seq));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Overwrite the authoritative copy and version of a homed page
    /// (restoring from a checkpoint during recovery).
    pub fn restore_home_page(&mut self, page: PageId, bytes: &[u8], version: VectorClock) {
        assert!(self.is_home(page), "restore of remote page {page}");
        self.home.restore(page, bytes, version);
    }

    /// Drain the homed pages changed since the last drain (incremental
    /// checkpoint support; see [`HomeStore::take_ckpt_dirty`]).
    pub fn take_ckpt_dirty(&self) -> Vec<PageId> {
        self.home.take_ckpt_dirty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(p: ProcId, s: u32) -> Interval {
        Interval { proc: p, seq: s }
    }

    fn table() -> PageTable {
        // Node 0 of 2; page 0 homed here, page 1 homed at node 1.
        let mut t = PageTable::new(0, 2, 64);
        t.add_page(0);
        t.add_page(1);
        t
    }

    fn read_vec(t: &PageTable, page: PageId, offset: usize, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        assert!(t.read_into(page, offset, &mut buf), "{page} not ready");
        buf
    }

    #[test]
    fn home_pages_are_immediately_accessible() {
        let t = table();
        assert!(t.is_home(PageId(0)));
        assert_eq!(t.ensure_access(PageId(0)), AccessOutcome::Ready);
        assert_eq!(read_vec(&t, PageId(0), 0, 4), &[0, 0, 0, 0]);
    }

    #[test]
    fn remote_pages_start_invalid_and_need_fetch() {
        let t = table();
        assert!(!t.is_home(PageId(1)));
        match t.ensure_access(PageId(1)) {
            AccessOutcome::NeedFetch { home, needed } => {
                assert_eq!(home, 1);
                assert_eq!(needed, VectorClock::zero(2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn refused_access_to_an_invalid_remote_page_touches_nothing() {
        let mut t = table();
        let mut buf = [0xAAu8; 4];
        assert!(!t.read_into(PageId(1), 0, &mut buf));
        assert_eq!(buf, [0xAA; 4]);
        assert!(!t.write(PageId(1), 0, &[1]));
        // Invalidated after a fetch: refused the same way.
        t.install_fetch(PageId(1), vec![5u8; 64].into(), &VectorClock::zero(2));
        t.invalidate(PageId(1), 1, 2);
        assert!(!t.read_into(PageId(1), 0, &mut buf));
        assert_eq!(buf, [0xAA; 4]);
        assert!(!t.write(PageId(1), 0, &[1]));
        assert!(!t.has_writes(), "no twin, no dirty entry");
        assert!(t.written_pages().is_empty());
        // The refetched copy carries no trace of the refused write.
        t.install_fetch(PageId(1), vec![6u8; 64].into(), &{
            let mut v = VectorClock::zero(2);
            v.set(1, 2);
            v
        });
        assert_eq!(read_vec(&t, PageId(1), 0, 2), &[6, 6]);
        let (diffs, written) = t.end_interval(iv(0, 1));
        assert!(diffs.is_empty() && written.is_empty());
    }

    #[test]
    fn refused_write_to_a_gated_home_page_touches_nothing() {
        let mut t = table();
        t.take_ckpt_dirty(); // fresh pages start dirty
        t.invalidate(PageId(0), 1, 2); // notice ahead of the diff
        assert!(!t.write(PageId(0), 0, &[9; 4]));
        let mut buf = [0xAAu8; 4];
        assert!(!t.read_into(PageId(0), 0, &mut buf));
        assert_eq!(buf, [0xAA; 4]);
        assert!(!t.has_writes(), "no twin, no dirty entry");
        assert!(t.written_pages().is_empty());
        assert!(t.take_ckpt_dirty().is_empty(), "no checkpoint mark");
        assert_eq!(&t.home_snapshot(PageId(0)).1[..4], &[0; 4], "no bytes");
        let (diffs, written) = t.end_interval(iv(0, 1));
        assert!(diffs.is_empty() && written.is_empty());
    }

    #[test]
    fn fetch_install_then_write_creates_twin_and_diff() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        assert_eq!(t.ensure_access(PageId(1)), AccessOutcome::Ready);
        assert!(t.write(PageId(1), 8, &[42]));
        assert!(t.has_writes());
        assert_eq!(t.written_pages(), vec![PageId(1)]);
        let (diffs, written) = t.end_interval(iv(0, 1));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].page, PageId(1));
        assert_eq!(diffs[0].interval, iv(0, 1));
        assert_eq!(written, vec![PageId(1)]);
        assert!(!t.has_writes());
        assert!(t.written_pages().is_empty());
    }

    #[test]
    fn home_writes_advance_own_version_at_interval_end() {
        let mut t = table();
        assert!(t.write(PageId(0), 0, &[1, 2, 3]));
        assert!(t.has_writes());
        assert_eq!(t.written_pages(), vec![PageId(0)]);
        let (diffs, _) = t.end_interval(iv(0, 3));
        // The home's own diff is returned (for FT logging) but the copy is
        // already up to date and p.v[0] advanced.
        assert_eq!(diffs.len(), 1);
        assert_eq!(t.home_version(PageId(0)).get(0), 3);
    }

    #[test]
    fn mixed_home_and_remote_writes_diff_in_page_order() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        assert!(t.write(PageId(1), 0, &[9]));
        assert!(t.write(PageId(0), 0, &[8]));
        assert_eq!(t.written_pages(), vec![PageId(0), PageId(1)]);
        let (diffs, written) = t.end_interval(iv(0, 1));
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].page, PageId(0));
        assert_eq!(diffs[1].page, PageId(1));
        assert_eq!(written, vec![PageId(0), PageId(1)]);
    }

    #[test]
    fn diff_application_is_idempotent_and_ordered() {
        let mut t = table();
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[7; 8]);
        let d = Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap();
        assert!(t.home_apply_diff(&d));
        assert!(!t.home_apply_diff(&d)); // duplicate skipped
        assert_eq!(t.home_version(PageId(0)).get(1), 2);
        assert!(t.home_writers_contain(PageId(0), 1));
        assert!(!t.home_writers_contain(PageId(0), 0));
        assert_eq!(read_vec(&t, PageId(0), 0, 8), &[7; 8]);
    }

    #[test]
    fn invalidation_forces_refetch_with_higher_version() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        t.invalidate(PageId(1), 1, 4);
        match t.ensure_access(PageId(1)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 4),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn own_write_notice_does_not_invalidate_own_copy() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        // A notice about our own interval comes back via a barrier: the
        // local copy already contains those writes.
        t.invalidate(PageId(1), 0, 1);
        assert_eq!(t.ensure_access(PageId(1)), AccessOutcome::Ready);
    }

    #[test]
    fn home_access_waits_for_pending_diffs() {
        let mut t = table();
        t.invalidate(PageId(0), 1, 2); // notice arrived before the diff
        assert!(!t.read_into(PageId(0), 0, &mut [0u8; 8]));
        match t.ensure_access(PageId(0)) {
            AccessOutcome::NeedFetch { home, needed } => {
                assert_eq!(home, 0);
                assert_eq!(needed.get(1), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Diff arrives: accessible again.
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1; 8]);
        let d = Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap();
        t.home_apply_diff(&d);
        assert_eq!(t.ensure_access(PageId(0)), AccessOutcome::Ready);
        assert_eq!(read_vec(&t, PageId(0), 0, 8), &[1; 8]);
    }

    #[test]
    fn restart_reset_drops_copies_and_restores_needed() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![1u8; 64].into(), &VectorClock::zero(2));
        t.reset_for_restart(&[(PageId(1), 1, 7)]);
        match t.ensure_access(PageId(1)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 7),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn needed_triples_roundtrip_through_reset() {
        let mut t = table();
        t.invalidate(PageId(1), 1, 3);
        t.invalidate(PageId(0), 1, 5);
        let mut triples = t.needed_triples();
        triples.sort();
        let mut t2 = table();
        t2.reset_for_restart(&triples);
        assert_eq!(t2.needed_triples().len(), 2);
        assert_eq!(t2.remote_meta(PageId(1)).needed.get(1), 3);
        match t2.ensure_access(PageId(0)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 5),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
