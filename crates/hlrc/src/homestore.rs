//! Sharded store of home-page state.
//!
//! The authoritative copies a node homes — page bytes, version vector
//! `p.v`, pending `needed` version, writer set, and the current interval's
//! twin — live here behind per-shard locks instead of the node's big state
//! lock. That lets the service thread serve `PageReq`/`PageBatchReq` traffic
//! and apply incoming diffs concurrently with application compute, which
//! only touches the shards it reads or writes.
//!
//! Lock hierarchy (see DESIGN.md): shard locks are *leaf* locks. A thread
//! holding a shard lock must not acquire the node's big lock, the sync-state
//! lock, or another shard lock (the few whole-store walks lock shards one at
//! a time in ascending order). Both the application thread (via
//! [`crate::PageTable`]) and the service thread (directly, through a shared
//! `Arc<HomeStore>`) take the same per-shard locks, so per-page operations
//! interleave exactly as they did under the big lock — just page-wise
//! instead of node-wise.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dsm_page::{
    Diff, DiffScratch, Interval, Page, PageId, PagePool, PoolStats, ProcId, VectorClock,
};
use parking_lot::Mutex;

use crate::flush::DiffJob;

/// Number of shards. Pages map to shards by `page % NUM_SHARDS`, so
/// consecutive pages — the common access pattern — spread across shards.
pub const NUM_SHARDS: usize = 8;

/// State for one page homed at this node.
#[derive(Debug)]
struct HomeEntry {
    /// The authoritative copy.
    copy: Page,
    /// Pre-write snapshot for the current interval; `Some` iff the home
    /// node itself wrote the page in the current interval.
    twin: Option<Page>,
    /// `p.v`: the most recent interval of each writer applied to the copy.
    version: VectorClock,
    /// Minimal version local accesses must observe (bumped by write
    /// notices; accesses wait until `version` covers it, since diffs travel
    /// separately from notices).
    needed: VectorClock,
    /// Processes that have ever sent diffs for this page (targets for the
    /// lazy `p0.v` piggyback of the CGC/LLT scheme).
    writers: Vec<ProcId>,
    /// Has the copy changed since the checkpoint layer last drained the
    /// dirty set ([`HomeStore::take_ckpt_dirty`])? Starts `true` so a page
    /// allocated between checkpoints lands in the next delta.
    ckpt_dirty: bool,
}

/// A remote fetch parked at the home until the diffs it needs arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitingFetch {
    /// The requesting node.
    pub from: ProcId,
    /// The page requested.
    pub page: PageId,
    /// Minimal version the served copy must include.
    pub needed: VectorClock,
    /// The requester's id for matching the reply to its request.
    pub req_id: u64,
}

/// A parked fetch whose page now satisfies its needed version.
#[derive(Debug)]
pub struct ReadyFetch {
    /// The requesting node.
    pub from: ProcId,
    /// The page requested.
    pub page: PageId,
    /// The requester's id for matching the reply to its request.
    pub req_id: u64,
    /// Version of the served copy.
    pub version: VectorClock,
    /// The served bytes (zero-copy share of the home copy).
    pub bytes: Arc<[u8]>,
}

/// Outcome of serving one fetch against the store.
#[derive(Debug)]
pub enum FetchOutcome {
    /// The copy satisfies the request; reply with these bytes.
    Ready(VectorClock, Arc<[u8]>),
    /// In-flight diffs are still missing; the fetch was parked and will be
    /// surfaced by [`HomeStore::drain_ready`] once they arrive.
    Parked,
    /// The page is not homed here (not allocated yet, or a routing bug —
    /// the caller decides which).
    NotHome,
    /// The liveness check failed under the shard lock (node crashing or
    /// recovering); nothing was done.
    Stale,
}

/// Outcome of applying one diff against the store.
#[derive(Debug)]
pub enum ApplyOutcome {
    /// Diff accepted; any fetches it unparked are returned for the caller
    /// to answer. `fresh` is false when the version gate idempotently
    /// skipped an already-covered interval (a retransmitted or duplicated
    /// batch) — observability must not report those as applies.
    Applied {
        /// Did the home version actually advance?
        fresh: bool,
        /// Fetches the diff unparked.
        ready: Vec<ReadyFetch>,
    },
    /// The page is not homed here.
    NotHome,
    /// The liveness check failed under the shard lock; nothing was done.
    Stale,
}

/// One shard's entries: a dense vector indexed by `page / NUM_SHARDS`, so
/// the access hit path finds its page with one bounds check instead of a
/// hash lookup. Slots of pages homed elsewhere stay `None`.
#[derive(Debug)]
struct PageMap {
    /// This shard's index (recovers page ids when walking the map).
    shard: usize,
    slots: Vec<Option<HomeEntry>>,
}

impl PageMap {
    fn get(&self, page: u32) -> Option<&HomeEntry> {
        self.slots.get(page as usize / NUM_SHARDS)?.as_ref()
    }

    fn get_mut(&mut self, page: u32) -> Option<&mut HomeEntry> {
        self.slots.get_mut(page as usize / NUM_SHARDS)?.as_mut()
    }

    fn insert(&mut self, page: u32, e: HomeEntry) -> Option<HomeEntry> {
        let i = page as usize / NUM_SHARDS;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(e)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut HomeEntry)> {
        let shard = self.shard;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, e)| Some(((i * NUM_SHARDS + shard) as u32, e.as_mut()?)))
    }
}

#[derive(Debug)]
struct Shard {
    entries: PageMap,
    /// Fetches parked until in-flight diffs arrive.
    waiting: Vec<WaitingFetch>,
    /// Buffer pool for this shard's copy-on-write and diff application.
    pool: PagePool,
    /// Pages twinned this interval (dirty set), in twin-creation order.
    /// Invariant: a page is listed here iff its entry has a twin, so the
    /// release flush visits exactly the dirty pages instead of scanning
    /// every entry.
    dirty: Vec<u32>,
}

impl Shard {
    /// Move every parked fetch whose page now satisfies its needed version
    /// to `out`.
    fn drain_ready(&mut self, out: &mut Vec<ReadyFetch>) {
        let mut i = 0;
        while i < self.waiting.len() {
            let w = &self.waiting[i];
            match self.entries.get(w.page.0) {
                Some(e) if e.version.covers(&w.needed) => {
                    let w = self.waiting.swap_remove(i);
                    out.push(ReadyFetch {
                        from: w.from,
                        page: w.page,
                        req_id: w.req_id,
                        version: e.version.clone(),
                        bytes: e.copy.share(),
                    });
                }
                _ => i += 1,
            }
        }
    }
}

/// The sharded home-page store. Shared as `Arc<HomeStore>` between the
/// page table (application thread) and the service thread's home handlers.
#[derive(Debug)]
pub struct HomeStore {
    shards: Vec<Mutex<Shard>>,
    /// Bit `s` set iff shard `s` has a nonempty dirty set — lets
    /// [`HomeStore::has_writes`] answer without taking any shard lock, and
    /// the flush visit only dirty shards. Only the application thread
    /// creates twins, so `Relaxed` ordering suffices.
    dirty_mask: AtomicU32,
    n: usize,
    page_size: usize,
}

fn shard_of(page: PageId) -> usize {
    page.0 as usize % NUM_SHARDS
}

impl HomeStore {
    /// An empty store for one node of an `n`-node cluster.
    pub fn new(n: usize, page_size: usize) -> Self {
        HomeStore {
            shards: (0..NUM_SHARDS)
                .map(|shard| {
                    Mutex::new(Shard {
                        entries: PageMap {
                            shard,
                            slots: Vec::new(),
                        },
                        waiting: Vec::new(),
                        pool: PagePool::new(page_size),
                        dirty: Vec::new(),
                    })
                })
                .collect(),
            dirty_mask: AtomicU32::new(0),
            n,
            page_size,
        }
    }

    /// Register a new zeroed page homed at this node.
    pub fn add(&self, page: PageId) {
        let mut shard = self.shards[shard_of(page)].lock();
        let prev = shard.entries.insert(
            page.0,
            HomeEntry {
                copy: Page::zeroed(self.page_size),
                twin: None,
                version: VectorClock::zero(self.n),
                needed: VectorClock::zero(self.n),
                writers: Vec::new(),
                ckpt_dirty: true,
            },
        );
        assert!(prev.is_none(), "page {page} homed twice");
    }

    /// Cluster size the store was built for.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Is `page` homed here?
    pub fn contains(&self, page: PageId) -> bool {
        self.shards[shard_of(page)]
            .lock()
            .entries
            .get(page.0)
            .is_some()
    }

    fn with<R>(&self, page: PageId, f: impl FnOnce(&mut HomeEntry, &mut PagePool) -> R) -> R {
        let shard = &mut *self.shards[shard_of(page)].lock();
        let e = shard
            .entries
            .get_mut(page.0)
            .unwrap_or_else(|| panic!("page {page} not homed here"));
        f(e, &mut shard.pool)
    }

    /// `None` when the copy satisfies every notice seen so far; otherwise
    /// the needed version the access must wait for.
    pub fn access_gap(&self, page: PageId) -> Option<VectorClock> {
        self.with(page, |e, _| {
            if e.version.covers(&e.needed) {
                None
            } else {
                Some(e.needed.clone())
            }
        })
    }

    /// Copy `dst.len()` bytes at `offset` out of the home copy: one shard
    /// lock and one lookup for the readiness test and the copy together.
    /// Returns `false`, touching nothing, while the copy's `version` does
    /// not cover `needed` (in-flight diffs are still missing).
    pub fn read_into(&self, page: PageId, offset: usize, dst: &mut [u8]) -> bool {
        self.with(page, |e, _| {
            let ready = e.version.covers(&e.needed);
            if ready {
                dst.copy_from_slice(e.copy.read(offset, dst.len()));
            }
            ready
        })
    }

    /// Write to the home copy, snapshotting the twin on the interval's
    /// first write. Returns `false`, touching nothing (no twin, no dirty
    /// entry, no checkpoint mark, no bytes), when the copy is not ready as
    /// for [`HomeStore::read_into`].
    pub fn write(&self, page: PageId, offset: usize, bytes: &[u8]) -> bool {
        let s = shard_of(page);
        let shard = &mut *self.shards[s].lock();
        let e = shard
            .entries
            .get_mut(page.0)
            .unwrap_or_else(|| panic!("page {page} not homed here"));
        if !e.version.covers(&e.needed) {
            return false;
        }
        if e.twin.is_none() {
            e.twin = Some(e.copy.twin());
            if shard.dirty.is_empty() {
                self.dirty_mask.fetch_or(1 << s, Ordering::Relaxed);
            }
            shard.dirty.push(page.0);
        }
        e.ckpt_dirty = true;
        e.copy.write_pooled(&mut shard.pool, offset, bytes);
        true
    }

    /// Any pages twinned this interval? O(1): one atomic load, no locks.
    pub fn has_writes(&self) -> bool {
        self.dirty_mask.load(Ordering::Relaxed) != 0
    }

    /// Record a write notice: local accesses must now wait until `version`
    /// covers `(writer, seq)`.
    pub fn bump_needed(&self, page: PageId, writer: ProcId, seq: u32) {
        self.with(page, |e, _| {
            assert!(
                e.twin.is_none(),
                "invalidation with unflushed twin for {page}"
            );
            if e.needed.get(writer) < seq {
                e.needed.set(writer, seq);
            }
        });
    }

    /// End-of-interval collection of this node's own home writes: for every
    /// dirty page, take the twin, snapshot the current copy (a CoW handle —
    /// concurrent diff application copies-on-write, leaving the snapshot
    /// untouched), and advance `p.v[me]`; the jobs are appended to `out` in
    /// page order for the caller to diff *outside* the shard locks. Only
    /// shards flagged in the dirty mask are visited. Hand the twins back via
    /// [`HomeStore::recycle_twins`] when done.
    pub fn collect_dirty(&self, interval: Interval, out: &mut Vec<DiffJob>) {
        let mask = self.dirty_mask.swap(0, Ordering::Relaxed);
        if mask == 0 {
            return;
        }
        for s in 0..NUM_SHARDS {
            if mask & (1 << s) == 0 {
                continue;
            }
            let shard = &mut *self.shards[s].lock();
            let mut pages = std::mem::take(&mut shard.dirty);
            pages.sort_unstable();
            for p in pages {
                let e = shard.entries.get_mut(p).unwrap();
                let Some(twin) = e.twin.take() else {
                    continue; // cleared by a concurrent restore
                };
                // The home's own writes are applied in place; record them
                // in the version vector like any other writer's diff.
                e.version.set(interval.proc, interval.seq);
                out.push(DiffJob {
                    page: PageId(p),
                    twin,
                    current: e.copy.clone(),
                });
            }
        }
    }

    /// Return diffed-out twins to their shards' pools (rejected harmlessly
    /// if a buffer is still shared). One lock acquisition per shard.
    pub fn recycle_twins(&self, twins: impl IntoIterator<Item = (PageId, Page)>) {
        let mut by_shard: [Vec<Page>; NUM_SHARDS] = Default::default();
        for (page, twin) in twins {
            by_shard[shard_of(page)].push(twin);
        }
        for (s, twins) in by_shard.into_iter().enumerate() {
            if twins.is_empty() {
                continue;
            }
            let shard = &mut *self.shards[s].lock();
            for twin in twins {
                shard.pool.recycle(twin);
            }
        }
    }

    /// End-of-interval pass over this node's own home writes: turn each
    /// twin into a diff against the current copy and advance `p.v[me]`.
    /// Diffs come back sorted by page id, matching the deterministic order
    /// the logs expect. (Convenience serial wrapper over
    /// [`HomeStore::collect_dirty`]; the runtime flushes home and remote
    /// dirty pages together through `PageTable::end_interval`.)
    pub fn end_interval(&self, interval: Interval, scratch: &mut DiffScratch) -> Vec<Diff> {
        let mut jobs = Vec::new();
        self.collect_dirty(interval, &mut jobs);
        let mut diffs = Vec::new();
        let mut twins = Vec::new();
        for j in jobs {
            if let Some(d) = Diff::create_with(scratch, j.page, interval, &j.twin, &j.current) {
                diffs.push(d);
            }
            twins.push((j.page, j.twin));
        }
        self.recycle_twins(twins);
        diffs.sort_unstable_by_key(|d| d.page.0);
        diffs
    }

    /// Pages with an unflushed twin (written this interval). Visits only
    /// dirty shards.
    pub fn written_pages(&self) -> Vec<PageId> {
        let mask = self.dirty_mask.load(Ordering::Relaxed);
        let mut out = Vec::new();
        for s in 0..NUM_SHARDS {
            if mask & (1 << s) == 0 {
                continue;
            }
            let shard = self.shards[s].lock();
            out.extend(shard.dirty.iter().map(|&p| PageId(p)));
        }
        out.sort_unstable_by_key(|p| p.0);
        out
    }

    /// Serve one fetch, also reporting how long the caller waited for the
    /// shard lock (the home handlers' contention metric). `live` is
    /// re-checked *under the shard lock* so a concurrent crash/recovery
    /// transition can fence the caller out (see the module docs); pass
    /// `|| true` when already serialized with mode changes.
    pub fn serve_fetch_timed(
        &self,
        req: WaitingFetch,
        live: impl FnOnce() -> bool,
    ) -> (FetchOutcome, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let shard = &mut *self.shards[shard_of(req.page)].lock();
        let waited = t0.elapsed();
        if !live() {
            return (FetchOutcome::Stale, waited);
        }
        let Some(e) = shard.entries.get_mut(req.page.0) else {
            return (FetchOutcome::NotHome, waited);
        };
        let outcome = if e.version.covers(&req.needed) {
            FetchOutcome::Ready(e.version.clone(), e.copy.share())
        } else {
            shard.waiting.push(req);
            FetchOutcome::Parked
        };
        (outcome, waited)
    }

    /// Apply one diff. Idempotent: diffs for intervals already covered by
    /// `p.v[writer]` are skipped (recovery-time retransmissions are safe).
    /// `live` is re-checked under the shard lock, as for
    /// [`HomeStore::serve_fetch_timed`]. On success, any fetches the diff
    /// unparked are returned for the caller to answer.
    pub fn apply_diff(&self, diff: &Diff, live: impl FnOnce() -> bool) -> ApplyOutcome {
        self.apply_diff_timed(diff, live, || {}).0
    }

    /// As [`HomeStore::apply_diff`], also reporting the shard-lock wait.
    /// `applied` runs under the shard lock when the version advances, so
    /// whatever it records is ordered before a crash fence
    /// ([`HomeStore::quiesce`]) that follows the apply.
    pub fn apply_diff_timed(
        &self,
        diff: &Diff,
        live: impl FnOnce() -> bool,
        applied: impl FnOnce(),
    ) -> (ApplyOutcome, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let shard = &mut *self.shards[shard_of(diff.page)].lock();
        let waited = t0.elapsed();
        if !live() {
            return (ApplyOutcome::Stale, waited);
        }
        let Some(e) = shard.entries.get_mut(diff.page.0) else {
            return (ApplyOutcome::NotHome, waited);
        };
        let writer = diff.interval.proc;
        let fresh = e.version.get(writer) < diff.interval.seq;
        if fresh {
            diff.apply_pooled(&mut e.copy, &mut shard.pool);
            e.version.set(writer, diff.interval.seq);
            e.ckpt_dirty = true;
            if !e.writers.contains(&writer) {
                e.writers.push(writer);
            }
            applied();
        }
        // Unpark every waiter this shard can now serve (the diff may cover
        // other waiters' pages only in this shard — cheap linear scan).
        let mut ready = Vec::new();
        shard.drain_ready(&mut ready);
        (ApplyOutcome::Applied { fresh, ready }, waited)
    }

    /// Drain every parked fetch that has become servable (used after
    /// recovery replay rebuilds home pages in bulk).
    pub fn drain_ready(&self) -> Vec<ReadyFetch> {
        let mut ready = Vec::new();
        for shard in &self.shards {
            shard.lock().drain_ready(&mut ready);
        }
        ready
    }

    /// Drop every parked fetch (crash: requesters retransmit on `NodeUp`).
    pub fn clear_waiting(&self) {
        for shard in &self.shards {
            shard.lock().waiting.clear();
        }
    }

    /// Does the home copy of `page` satisfy `needed`?
    pub fn satisfies(&self, page: PageId, needed: &VectorClock) -> bool {
        self.with(page, |e, _| e.version.covers(needed))
    }

    /// Version vector of the home copy.
    pub fn version_of(&self, page: PageId) -> VectorClock {
        self.with(page, |e, _| e.version.clone())
    }

    /// Zero-copy view of the home copy: `(version, bytes)`.
    pub fn snapshot(&self, page: PageId) -> (VectorClock, Arc<[u8]>) {
        self.with(page, |e, _| (e.version.clone(), e.copy.share()))
    }

    /// Has `proc` ever sent a diff for `page`?
    pub fn writers_contain(&self, page: PageId, proc_: ProcId) -> bool {
        self.with(page, |e, _| e.writers.contains(&proc_))
    }

    /// Overwrite the authoritative copy and version of a homed page
    /// (restoring from a checkpoint during recovery).
    pub fn restore(&self, page: PageId, bytes: &[u8], version: VectorClock) {
        let s = shard_of(page);
        let shard = &mut *self.shards[s].lock();
        let e = shard
            .entries
            .get_mut(page.0)
            .unwrap_or_else(|| panic!("page {page} not homed here"));
        e.copy = Page::from_bytes(bytes);
        e.version = version;
        e.ckpt_dirty = true;
        if e.twin.take().is_some() {
            shard.dirty.retain(|&p| p != page.0);
            if shard.dirty.is_empty() {
                self.dirty_mask.fetch_and(!(1u32 << s), Ordering::Relaxed);
            }
        }
    }

    /// Restart support: drop twins and pending `needed` state, drop parked
    /// fetches. Copies and versions stay for the caller to overwrite from
    /// the checkpoint via [`HomeStore::restore`].
    pub fn reset_for_restart(&self) {
        self.dirty_mask.store(0, Ordering::Relaxed);
        for shard in &self.shards {
            let shard = &mut *shard.lock();
            shard.waiting.clear();
            shard.dirty.clear();
            for (_, e) in shard.entries.iter_mut() {
                e.twin = None;
                e.needed = VectorClock::zero(self.n);
            }
        }
    }

    /// Checkpoint support: drain the checkpoint-dirty set — every homed
    /// page whose copy changed (home write, remote diff, restore, or fresh
    /// allocation) since the last drain — clearing the flags. Sorted by
    /// page. An incremental checkpoint saves exactly these pages; callers
    /// in full mode never drain, so the flags idle at `true` harmlessly.
    /// Off the hot path: walks every entry, but only at checkpoint time.
    pub fn take_ckpt_dirty(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = &mut *shard.lock();
            for (p, e) in shard.entries.iter_mut() {
                if e.ckpt_dirty {
                    e.ckpt_dirty = false;
                    out.push(PageId(p));
                }
            }
        }
        out.sort_unstable_by_key(|p| p.0);
        out
    }

    /// Checkpoint support: `(page, writer, seq)` triples of every nonzero
    /// `needed` entry, sorted by page.
    pub fn needed_triples(&self) -> Vec<(PageId, ProcId, u32)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (p, e) in shard.lock().entries.iter_mut() {
                for (w, &seq) in e.needed.as_slice().iter().enumerate() {
                    if seq > 0 {
                        out.push((PageId(p), w, seq));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Cumulative buffer-pool counters over all shards.
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = PoolStats::default();
        for shard in &self.shards {
            stats.merge(&shard.lock().pool.stats());
        }
        stats
    }

    /// Fence: acquire and release every shard lock in order. After this
    /// returns, every service-thread handler operation that started before
    /// the caller's preceding state change (e.g. flipping the mode flag) has
    /// finished.
    pub fn quiesce(&self) {
        for shard in &self.shards {
            drop(shard.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(p: ProcId, s: u32) -> Interval {
        Interval { proc: p, seq: s }
    }

    fn store() -> HomeStore {
        let s = HomeStore::new(2, 64);
        s.add(PageId(0));
        s.add(PageId(8)); // same shard as page 0 (8 % NUM_SHARDS == 0)
        s.add(PageId(3));
        s
    }

    #[test]
    fn serve_parks_until_diff_arrives_then_unparks() {
        let s = store();
        let needed = {
            let mut v = VectorClock::zero(2);
            v.set(1, 2);
            v
        };
        let req = WaitingFetch {
            from: 1,
            page: PageId(0),
            needed: needed.clone(),
            req_id: 7,
        };
        assert!(matches!(
            s.serve_fetch_timed(req, || true).0,
            FetchOutcome::Parked
        ));

        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[9; 8]);
        let d = Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap();
        match s.apply_diff(&d, || true) {
            ApplyOutcome::Applied { fresh, ready } => {
                assert!(fresh);
                assert_eq!(ready.len(), 1);
                assert_eq!(ready[0].from, 1);
                assert_eq!(ready[0].req_id, 7);
                assert_eq!(ready[0].page, PageId(0));
                assert!(ready[0].version.covers(&needed));
                assert_eq!(&ready[0].bytes[0..8], &[9; 8]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stale_liveness_check_fences_out_under_the_shard_lock() {
        let s = store();
        let req = WaitingFetch {
            from: 1,
            page: PageId(0),
            needed: VectorClock::zero(2),
            req_id: 1,
        };
        assert!(matches!(
            s.serve_fetch_timed(req, || false).0,
            FetchOutcome::Stale
        ));
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1]);
        let d = Diff::create(PageId(0), iv(1, 1), &twin, &cur).unwrap();
        assert!(matches!(s.apply_diff(&d, || false), ApplyOutcome::Stale));
        // Nothing was applied.
        assert_eq!(s.version_of(PageId(0)).get(1), 0);
    }

    #[test]
    fn unknown_pages_report_not_home() {
        let s = store();
        let req = WaitingFetch {
            from: 1,
            page: PageId(5),
            needed: VectorClock::zero(2),
            req_id: 1,
        };
        assert!(matches!(
            s.serve_fetch_timed(req, || true).0,
            FetchOutcome::NotHome
        ));
        assert!(!s.contains(PageId(5)));
        assert!(s.contains(PageId(3)));
    }

    #[test]
    fn twin_write_end_interval_produces_sorted_diffs() {
        let s = store();
        assert!(s.write(PageId(8), 0, &[1, 2]));
        assert_eq!(s.written_pages(), vec![PageId(8)]);
        assert!(s.write(PageId(8), 8, &[3]));
        // The twin already exists: the second write is not listed again.
        assert_eq!(s.written_pages(), vec![PageId(8)]);
        assert!(s.write(PageId(0), 0, &[4]));
        assert_eq!(s.written_pages(), vec![PageId(0), PageId(8)]);
        let mut scratch = DiffScratch::new();
        let diffs = s.end_interval(iv(0, 1), &mut scratch);
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].page, PageId(0));
        assert_eq!(diffs[1].page, PageId(8));
        assert_eq!(s.version_of(PageId(8)).get(0), 1);
        assert!(s.written_pages().is_empty());
    }

    #[test]
    fn needed_gates_access_until_version_covers() {
        let s = store();
        assert!(s.access_gap(PageId(0)).is_none());
        s.bump_needed(PageId(0), 1, 3);
        let gap = s.access_gap(PageId(0)).expect("gated");
        assert_eq!(gap.get(1), 3);
        assert!(!s.satisfies(PageId(0), &gap));
        let mut buf = [0xAAu8; 4];
        assert!(!s.read_into(PageId(0), 0, &mut buf), "gated read refused");
        assert_eq!(buf, [0xAA; 4], "a refused read leaves the buffer alone");
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[5]);
        let d = Diff::create(PageId(0), iv(1, 3), &twin, &cur).unwrap();
        assert!(matches!(
            s.apply_diff(&d, || true),
            ApplyOutcome::Applied { fresh: true, .. }
        ));
        assert!(s.access_gap(PageId(0)).is_none());
        assert!(s.read_into(PageId(0), 0, &mut buf));
        assert_eq!(buf, [5, 0, 0, 0]);
        assert!(s.writers_contain(PageId(0), 1));
        assert!(!s.writers_contain(PageId(0), 0));
    }

    #[test]
    fn refused_write_while_gated_touches_nothing() {
        let s = store();
        s.take_ckpt_dirty(); // fresh pages start dirty
        s.bump_needed(PageId(0), 1, 2);
        assert!(!s.write(PageId(0), 0, &[9; 8]));
        assert!(!s.has_writes(), "no twin, no dirty entry");
        assert!(s.written_pages().is_empty());
        assert!(s.take_ckpt_dirty().is_empty(), "no checkpoint mark");
        assert_eq!(&s.snapshot(PageId(0)).1[..8], &[0; 8], "no bytes");
        // The diff lands: the same write now goes through.
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(8, &[1]);
        let d = Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap();
        s.apply_diff(&d, || true);
        assert!(s.write(PageId(0), 0, &[9; 8]));
        assert_eq!(s.written_pages(), vec![PageId(0)]);
        assert_eq!(&s.snapshot(PageId(0)).1[..9], &[9, 9, 9, 9, 9, 9, 9, 9, 1]);
    }

    #[test]
    fn applied_callback_runs_only_for_fresh_applies() {
        let s = store();
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[3]);
        let d = Diff::create(PageId(3), iv(1, 1), &twin, &cur).unwrap();
        let mut calls = 0;
        s.apply_diff_timed(&d, || true, || calls += 1);
        s.apply_diff_timed(&d, || true, || calls += 1); // duplicate
        s.apply_diff_timed(&d, || false, || calls += 1); // fenced out
        assert_eq!(calls, 1);
    }

    #[test]
    fn dense_shard_maps_recover_page_ids() {
        let s = HomeStore::new(2, 64);
        // Sparse ids, several per shard, added out of order.
        for p in [41u32, 1, 17, 8, 0, 9] {
            s.add(PageId(p));
        }
        let ids: Vec<u32> = s.take_ckpt_dirty().iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 8, 9, 17, 41]);
        assert!(s.contains(PageId(41)));
        assert!(!s.contains(PageId(33)), "hole inside a shard's range");
        assert!(!s.contains(PageId(49)), "past a shard's end");
        s.bump_needed(PageId(17), 1, 4);
        assert_eq!(s.needed_triples(), vec![(PageId(17), 1, 4)]);
    }

    #[test]
    fn has_writes_tracks_dirty_shards_without_scans() {
        let s = store();
        assert!(!s.has_writes());
        s.write(PageId(3), 0, &[1]);
        assert!(s.has_writes());
        assert_eq!(s.written_pages(), vec![PageId(3)]);
        let mut scratch = DiffScratch::new();
        let diffs = s.end_interval(iv(0, 1), &mut scratch);
        assert_eq!(diffs.len(), 1);
        assert!(!s.has_writes());
        assert!(s.written_pages().is_empty());
        // restore drops the twin and its dirty marker with it.
        s.write(PageId(0), 0, &[2]);
        assert!(s.has_writes());
        s.restore(PageId(0), &[0u8; 64], VectorClock::zero(2));
        assert!(!s.has_writes());
        assert!(s.written_pages().is_empty());
    }

    #[test]
    fn collect_dirty_snapshots_survive_later_writes() {
        let s = store();
        s.write(PageId(0), 0, &[9; 8]);
        let mut jobs = Vec::new();
        s.collect_dirty(iv(0, 1), &mut jobs);
        assert_eq!(jobs.len(), 1);
        // A concurrent writer (next interval / another node's diff) mutates
        // the copy after collection; the job's CoW snapshot must not move.
        s.write(PageId(0), 0, &[1; 8]);
        assert_eq!(jobs[0].current.read(0, 8), &[9; 8]);
        assert_eq!(s.version_of(PageId(0)).get(0), 1);
        let twins = jobs
            .into_iter()
            .map(|j| (j.page, j.twin))
            .collect::<Vec<_>>();
        s.recycle_twins(twins);
    }

    #[test]
    fn ckpt_dirty_drains_exactly_the_changed_pages() {
        let s = store();
        // Freshly added pages are dirty: the first checkpoint sees them all.
        assert_eq!(s.take_ckpt_dirty(), vec![PageId(0), PageId(3), PageId(8)]);
        assert!(s.take_ckpt_dirty().is_empty(), "drain clears the flags");
        // A home write marks only its page.
        s.write(PageId(8), 0, &[1]);
        let mut scratch = DiffScratch::new();
        s.end_interval(iv(0, 1), &mut scratch);
        assert_eq!(s.take_ckpt_dirty(), vec![PageId(8)]);
        // A fresh remote diff marks its page; a duplicate apply does not.
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[2]);
        let d = Diff::create(PageId(3), iv(1, 1), &twin, &cur).unwrap();
        assert!(matches!(
            s.apply_diff(&d, || true),
            ApplyOutcome::Applied { fresh: true, .. }
        ));
        assert_eq!(s.take_ckpt_dirty(), vec![PageId(3)]);
        assert!(matches!(
            s.apply_diff(&d, || true),
            ApplyOutcome::Applied { fresh: false, .. }
        ));
        assert!(s.take_ckpt_dirty().is_empty());
        // A restore marks its page (recovered state must reach the next
        // delta checkpoint).
        s.restore(PageId(0), &[0u8; 64], VectorClock::zero(2));
        assert_eq!(s.take_ckpt_dirty(), vec![PageId(0)]);
    }

    #[test]
    fn restore_and_reset_clear_transients() {
        let s = store();
        s.write(PageId(0), 0, &[1]);
        s.bump_needed(PageId(3), 1, 2);
        s.reset_for_restart();
        assert!(s.written_pages().is_empty());
        assert!(s.needed_triples().is_empty());
        let mut v = VectorClock::zero(2);
        v.set(1, 9);
        s.restore(PageId(0), &[7u8; 64], v.clone());
        let (version, bytes) = s.snapshot(PageId(0));
        assert_eq!(version, v);
        assert_eq!(&bytes[..], &[7u8; 64]);
    }
}
