//! Log-based recovery.
//!
//! A restarted node (§4.3 of the paper):
//!
//! 1. restores processor-equivalent state from its last local checkpoint
//!    (vector timestamp, homed pages, counters, application state at a step
//!    boundary, saved logs);
//! 2. performs a handshake collecting from every peer its write-notice log,
//!    the grants it sent us (`rel_log[us]`), the mirror restoring our own
//!    release logs (`acq_log[us]`), barrier crossing logs, and lock-chain
//!    generations (manager rebuild);
//! 3. fully restores its homed pages by applying every collected diff in a
//!    linear extension of happens-before, gated by how much of our own
//!    history each diff's creator had seen;
//! 4. re-executes the application from the checkpointed step, replaying
//!    acquires and barriers from the collected logs and page misses by
//!    *local emulation of a home* — maximal starting copy plus partially
//!    ordered diffs;
//! 5. switches to live execution at the first operation with no log record
//!    (the crash point), processing the backlog of deferred peer requests.

use std::collections::HashMap;
use std::sync::Arc;

use dsm_page::{Page, PageId, ProcId, VectorClock};
use dsm_storage::SegmentKind;
use dsm_trace::{EventKind, RecPhase};
use hlrc::barrier::BarrierManager;
use hlrc::WnTable;

use crate::ft::ckpt::CheckpointBlob;
use crate::ft::logs::{DiffLogEntry, RelEntry, VolatileLogs};
use crate::msg::Payload;
use crate::runtime::node::{apply_pending_home, handle_msg, Mode, NodeShared, NodeState};

/// One remote page being rebuilt by local home emulation.
#[derive(Debug)]
pub(crate) struct ReplayPage {
    /// The evolving copy (starts as the maximal starting copy `p0`).
    pub copy: Page,
    /// Versions applied so far (starts as `p0.v`).
    pub version: VectorClock,
    /// Collected, not-yet-applied diffs (kept in linear-extension order).
    pub entries: Vec<DiffLogEntry>,
}

/// Everything the replay needs, attached to the node while recovering.
#[derive(Debug, Default)]
pub(crate) struct ReplayState {
    /// When the recovery began (for the recovery-time statistic).
    pub started: Option<std::time::Instant>,
    /// When replay (phase 4→5 re-execution) began, for the trace span.
    pub replay_from: Option<std::time::Instant>,
    /// Grants to this node, keyed by our acquisition sequence number.
    pub rel: HashMap<u64, (ProcId, RelEntry)>,
    /// Completed barrier episodes: episode → joined timestamp.
    pub bar_results: HashMap<u64, VectorClock>,
    /// Emulated-home copies of remote pages.
    pub pages: HashMap<PageId, ReplayPage>,
    /// Diffs for our homed pages not yet applied (gated by how much of our
    /// own history their creators had seen).
    pub pending_home: Vec<DiffLogEntry>,
    /// Highest interval of OURS any collected peer record proves existed:
    /// peers only learn our interval k after the op that created it
    /// completed, so a record carrying our component `> vt[me]` during
    /// replay is proof the op at hand finished before the crash. Needed to
    /// recognize a *final* self-granted acquire (which leaves no mirrored
    /// grant record and no later logged event of our own).
    pub evidence_self: u32,
    /// Every acquisition of ours numbered below this one completed before
    /// the crash: a peer's lock manager saw us request it. Needed to
    /// recognize a run of self-granted acquires at the end of the log,
    /// which leave no grant record and, when they write nothing, no
    /// interval of ours at any peer either.
    pub acq_floor: u64,
}

/// Sort key: a linear extension of the happens-before partial order on
/// diffs (if `a.t <= b.t` pointwise with `a != b`, then `sum(a) < sum(b)`).
pub(crate) fn linear_key(e: &DiffLogEntry) -> (u64, usize, u32) {
    let sum: u64 = e.t.as_slice().iter().map(|&x| x as u64).sum();
    (sum, e.diff.interval.proc, e.diff.interval.seq)
}

/// Restore node state from the last checkpoint, collect peer logs, rebuild
/// homed pages, and install the replay state. Returns the application's
/// `(step, encoded state)` to resume from.
pub(crate) fn run_recovery(shared: &Arc<NodeShared>) -> (u64, Vec<u8>) {
    let me = shared.me;
    let n = shared.n;

    // ---- Phase 1: restore from the restart checkpoint ----------------------
    let t_recovery = std::time::Instant::now();
    let homed: Vec<PageId>;
    let (step, app_state) = {
        let mut st = shared.state.lock();
        assert_eq!(
            st.mode,
            Mode::Recovering,
            "recovery outside Recovering mode"
        );
        st.recoveries += 1;

        let store = Arc::clone(&st.ft.as_ref().expect("recovery requires FT").store);
        let mut retained_blobs: Vec<CheckpointBlob> = store
            .segment_ids(SegmentKind::Checkpoint)
            .into_iter()
            .map(|id| {
                CheckpointBlob::decode(&store.read_segment(SegmentKind::Checkpoint, id).unwrap())
                    .expect("corrupt checkpoint blob")
            })
            .collect();
        retained_blobs.sort_by_key(|b| b.seq);
        let latest = retained_blobs.last().cloned();
        // The newest full blob anchors the latest checkpoint's chain (CGC
        // keeps a delta only together with its whole chain prefix, so when
        // any blob exists an anchor does too).
        let latest_anchor_seq = retained_blobs
            .iter()
            .rev()
            .find(|b| !b.delta)
            .map_or(0, |b| b.seq);

        // Reset protocol state.
        st.wn_table = WnTable::new();
        st.pending_grants.clear();
        st.lock_chain_info.clear();
        st.wait = crate::runtime::node::WaitSlot::None;
        st.prefetch.clear();
        st.pt.home_store().clear_waiting();
        st.wn_since_barrier.clear();
        {
            let mut sync = st.sync.lock();
            sync.lock_mgr = hlrc::LockManagerTable::new(me);
            sync.bar_mgr = None;
        }
        st.rec_inbox.clear();

        let (step, app_state) = match &latest {
            Some(ckpt) => {
                st.vt = ckpt.tckp.clone();
                st.acq_seq_next = ckpt.acq_seq_next;
                st.bar_episode = ckpt.bar_episode;
                st.tenure = ckpt
                    .tenures
                    .iter()
                    .map(|&(l, a, _, r)| (l, (a, r)))
                    .collect();
                st.tenure_gen = ckpt.tenures.iter().map(|&(l, _, g, _)| (l, g)).collect();
                st.held = ckpt
                    .tenures
                    .iter()
                    .filter(|&&(_, _, _, released)| !released)
                    .map(|&(l, _, _, _)| l)
                    .collect();
                st.last_release_vt = ckpt.last_release_vts.iter().cloned().collect();
                st.pt.reset_for_restart(&ckpt.needed);
                // Restore homed pages by replaying the chain ascending from
                // the latest anchor (each delta overlays the pages it
                // carries); zero pages absent from the entire chain.
                let chain_from = retained_blobs
                    .iter()
                    .position(|b| b.seq == latest_anchor_seq)
                    .expect("checkpoint chain without an anchor");
                let pages = crate::ft::ckpt::accumulate_chain(&retained_blobs[chain_from..]);
                for p in st.pt.homed_pages() {
                    if !pages.contains_key(&p) {
                        let zeros = vec![0u8; st.page_size];
                        st.pt.restore_home_page(p, &zeros, VectorClock::zero(n));
                    }
                }
                for (p, (v, bytes)) in &pages {
                    st.pt.restore_home_page(*p, bytes, v.clone());
                }
                (ckpt.step, ckpt.app_state.clone())
            }
            None => {
                // Crash before the first checkpoint: restart from scratch.
                st.vt = VectorClock::zero(n);
                st.acq_seq_next = 0;
                st.bar_episode = 0;
                st.tenure.clear();
                st.tenure_gen.clear();
                st.held.clear();
                st.last_release_vt.clear();
                st.pt.reset_for_restart(&[]);
                for p in st.pt.homed_pages() {
                    let zeros = vec![0u8; st.page_size];
                    st.pt.restore_home_page(p, &zeros, VectorClock::zero(n));
                }
                (0, Vec::new())
            }
        };
        st.alloc_cursor = 0;
        st.shared_bytes = st.pt.len() as u64 * st.page_size as u64;

        // Reset FT state from stable storage.
        {
            let ft = st.ft.as_mut().unwrap();
            ft.report.recoveries += 1;
            ft.logs = VolatileLogs::new(me, n);
            if let Some(saved) = store.read_segment(SegmentKind::Log, 0) {
                ft.logs.decode_stable(&saved).expect("corrupt saved logs");
            }
            // Incremental mode: overlay the delta log segments written
            // since the last full save, ascending. Deltas are disjoint
            // from the base and from each other, so the merge is a plain
            // append; segments at or below the anchor are stale leftovers
            // the anchor's full save already subsumes.
            for id in store.segment_ids(SegmentKind::Log) {
                if id == 0 || id <= latest_anchor_seq {
                    continue;
                }
                let seg = store
                    .read_segment(SegmentKind::Log, id)
                    .expect("listed log segment must be readable");
                ft.logs
                    .decode_stable_merge(&seg)
                    .expect("corrupt saved log delta");
            }
            // Rebuild the retained index with accumulated version maps:
            // full blobs reset the running map, deltas overlay it —
            // exactly how the maps were built before the crash.
            {
                let mut running: HashMap<PageId, VectorClock> = HashMap::new();
                let mut anchor = 0u64;
                ft.retained = retained_blobs
                    .iter()
                    .map(|b| {
                        if !b.delta {
                            running.clear();
                            anchor = b.seq;
                        }
                        for (p, v, _) in &b.home_pages {
                            running.insert(*p, v.clone());
                        }
                        crate::ft::RetainedCkpt {
                            seq: b.seq,
                            anchor_seq: anchor,
                            versions: running.clone(),
                        }
                    })
                    .collect();
            }
            match &latest {
                Some(ckpt) => {
                    ft.ckpt_seq = ckpt.seq;
                    ft.last_ckpt_vt = ckpt.tckp.clone();
                    ft.last_ckpt_episode = ckpt.bar_episode;
                    ft.last_bar_arrive_seq = ckpt.last_bar_arrive_seq;
                    ft.last_anchor_seq = latest_anchor_seq;
                }
                None => {
                    ft.ckpt_seq = 0;
                    ft.last_ckpt_vt = VectorClock::zero(n);
                    ft.last_ckpt_episode = 0;
                    ft.last_bar_arrive_seq = 0;
                    ft.last_anchor_seq = 0;
                }
            }
            ft.tckp = vec![VectorClock::zero(n); n];
            ft.peer_ckpt_seq = vec![0; n];
            ft.peer_ckpt_episode = vec![0; n];
            ft.p0v_known.clear();
            ft.p0v_sent.clear();
            ft.piggy_sent = vec![u64::MAX; n];
            ft.ckpt_due = false;

            // Own write notices back into the table and the since-barrier
            // buffer.
            let bar_seq = ft.last_bar_arrive_seq;
            let own_wn: Vec<(u32, Vec<PageId>)> = ft
                .logs
                .wn
                .iter()
                .map(|e| (e.seq, e.pages.clone()))
                .collect();
            for (seq, pages) in own_wn {
                let iv = dsm_page::Interval { proc: me, seq };
                st.wn_table.insert_parts(iv, pages.clone());
                if seq > bar_seq {
                    st.wn_since_barrier.push(hlrc::WriteNotice {
                        interval: iv,
                        pages,
                    });
                }
            }
            st.wn_since_barrier.sort_by_key(|w| w.interval.seq);
        }

        homed = st.pt.homed_pages();

        st.hists
            .rec_restore
            .record(t_recovery.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::RecoveryPhase {
                phase: RecPhase::Restore,
            },
            t_recovery,
        );

        // ---- Phase 2: handshake ---------------------------------------------
        for p in 0..n {
            if p != me {
                st.send(p, Payload::RecLogReq);
            }
        }
        (step, app_state)
    };

    // ---- Phase 3: collect and merge log replies -----------------------------
    let t_collect = std::time::Instant::now();
    let mut replay = ReplayState::default();
    {
        let mut st = shared.state.lock();
        let mut got: std::collections::HashSet<ProcId> = std::collections::HashSet::new();
        while got.len() < n - 1 {
            let mut i = 0;
            while i < st.rec_inbox.len() {
                if matches!(st.rec_inbox[i].1, Payload::RecLogReply { .. }) {
                    let (peer, payload) = st.rec_inbox.remove(i);
                    if !got.insert(peer) {
                        continue;
                    }
                    let Payload::RecLogReply {
                        wn,
                        rel_for_you,
                        acq_mirror,
                        bar,
                        bar_mgr,
                        lock_chains,
                        gen_floor,
                        acq_seen,
                    } = payload
                    else {
                        unreachable!()
                    };
                    replay.acq_floor = replay.acq_floor.max(acq_seen);
                    for e in wn {
                        st.wn_table.insert_parts(
                            dsm_page::Interval {
                                proc: peer,
                                seq: e.seq,
                            },
                            e.pages,
                        );
                    }
                    // The peer's rel_log[me] is simultaneously our acquire
                    // replay input and the mirror restoring our acq_log.
                    st.ft.as_mut().unwrap().logs.acq[peer] = rel_for_you.clone();
                    for e in rel_for_you {
                        replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
                        replay.rel.insert(e.acq_seq, (peer, e));
                    }
                    // acq_mirror restores our rel_log[peer] and the chain
                    // info for grants we issued. Its timestamps also carry
                    // our own clock component: a grant we gave after
                    // releasing interval k proves interval k completed.
                    {
                        for e in &acq_mirror {
                            replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
                            let c = st
                                .lock_chain_info
                                .entry(e.lock)
                                .or_insert((e.gen, peer, e.acq_seq));
                            if e.gen >= c.0 {
                                *c = (e.gen, peer, e.acq_seq);
                            }
                        }
                        let ft = st.ft.as_mut().unwrap();
                        ft.logs.rel[peer] = acq_mirror;
                    }
                    for e in &bar {
                        replay.evidence_self = replay.evidence_self.max(e.result_vt.get(me));
                        replay.bar_results.insert(e.episode, e.result_vt.clone());
                    }
                    for e in &bar_mgr {
                        replay.evidence_self = replay.evidence_self.max(e.result_vt.get(me));
                        replay.bar_results.insert(e.episode, e.result_vt.clone());
                    }
                    // Manager rebuild: chains for locks we manage.
                    // Chain reset: the peer discarded its queued edges for
                    // our locks when serving the handshake and reports only
                    // materialized acquisitions (its delivered tenures, the
                    // grants in its release log). Rebuild tails from those;
                    // the discarded edges' requesters re-drive their
                    // acquisitions and are chained fresh. `gen_floor` keeps
                    // fresh edges above every pre-crash generation,
                    // including the discarded ones.
                    {
                        let mut sync = st.sync.lock();
                        for (lock, gen, grantee, grantee_acq, granter) in lock_chains {
                            if lock % n == me {
                                sync.lock_mgr.restore_chain(
                                    lock,
                                    gen,
                                    grantee,
                                    grantee_acq,
                                    granter,
                                );
                            }
                        }
                        for (lock, gen) in gen_floor {
                            if lock % n == me {
                                sync.lock_mgr.bound_gen(lock, gen);
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
            if got.len() < n - 1 {
                shared
                    .cv
                    .wait_for(&mut st, std::time::Duration::from_secs(30));
            }
        }
        // Our own chains: locks we manage where we granted (restored from
        // the grantees' mirrors — every entry was a delivered grant), plus
        // our own checkpoint-restored tenures of locks we manage (replayed
        // tenures restore theirs as the replay reaches them).
        let own_chains: Vec<(hlrc::LockId, u64, ProcId, u64)> = st
            .lock_chain_info
            .iter()
            .map(|(&l, &(g, t, a))| (l, g, t, a))
            .collect();
        let own_tenures: Vec<(hlrc::LockId, u64, u64)> = st
            .tenure
            .iter()
            .filter(|(&l, _)| l % n == me)
            .map(|(&l, &(a, _))| (l, st.tenure_gen.get(&l).copied().unwrap_or(0), a))
            .collect();
        {
            let mut sync = st.sync.lock();
            for (lock, gen, grantee, grantee_acq) in own_chains {
                if lock % n == me {
                    sync.lock_mgr
                        .restore_chain(lock, gen, grantee, grantee_acq, Some(me));
                }
            }
            for (lock, gen, acq) in own_tenures {
                sync.lock_mgr.restore_chain(lock, gen, me, acq, None);
            }
        }
        // Rebuild the barrier-manager mirror for future recoveries of peers.
        if me == 0 {
            let entries: Vec<crate::ft::logs::MgrBarEntry> = replay
                .bar_results
                .iter()
                .map(|(&episode, vt)| crate::ft::logs::MgrBarEntry {
                    episode,
                    arrival_vts: vec![VectorClock::zero(n); n],
                    result_vt: vt.clone(),
                })
                .collect();
            let ft = st.ft.as_mut().unwrap();
            for e in entries {
                ft.logs.log_bar_mgr(e);
            }
            ft.logs.bar_mgr.sort_by_key(|e| e.episode);
        }

        // ---- Phase 4: restore homed pages -----------------------------------
        for &page in &homed {
            for p in 0..n {
                if p != me {
                    st.send(p, Payload::RecDiffReq { page });
                }
            }
        }
        let want = homed.len() * (n - 1);
        let mut entries: Vec<DiffLogEntry> = Vec::new();
        let mut got_diffs = 0usize;
        while got_diffs < want {
            let mut i = 0;
            while i < st.rec_inbox.len() {
                if matches!(st.rec_inbox[i].1, Payload::RecDiffReply { .. }) {
                    let (_, payload) = st.rec_inbox.remove(i);
                    let Payload::RecDiffReply { entries: es, .. } = payload else {
                        unreachable!()
                    };
                    entries.extend(es);
                    got_diffs += 1;
                } else {
                    i += 1;
                }
            }
            if got_diffs < want {
                shared
                    .cv
                    .wait_for(&mut st, std::time::Duration::from_secs(30));
            }
        }
        entries.sort_by_key(linear_key);
        for e in &entries {
            replay.evidence_self = replay.evidence_self.max(e.t.get(me));
        }
        replay.pending_home = entries;
        replay.started = Some(t_recovery);
        replay.replay_from = Some(std::time::Instant::now());
        st.replay = Some(replay);
        apply_pending_home(&mut st);
        st.hists
            .rec_log_collect
            .record(t_collect.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::RecoveryPhase {
                phase: RecPhase::LogCollect,
            },
            t_collect,
        );
    }

    (step, app_state)
}

/// Switch from replay to live execution: the first operation with no log
/// record is the crash point.
pub(crate) fn go_live(st: &mut NodeState) {
    apply_pending_home(st);
    let replay = st.replay.take().expect("go_live without replay state");
    if let (Some(t0), Some(ft)) = (replay.started, st.ft.as_mut()) {
        ft.report.recovery_time += t0.elapsed();
    }
    if let Some(t0) = replay.replay_from {
        st.hists.rec_replay.record(t0.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::RecoveryPhase {
                phase: RecPhase::Replay,
            },
            t0,
        );
    }
    if !replay.pending_home.is_empty() {
        for e in &replay.pending_home {
            eprintln!(
                "[go_live diag] node {} vt={} leftover diff page {} iv {} t={}",
                st.me, st.vt, e.diff.page, e.diff.interval, e.t
            );
        }
        panic!(
            "node {}: homed-page diffs left unapplied at the crash point (vt={})",
            st.me, st.vt
        );
    }
    let n = st.n;
    if st.me == 0 {
        // Restore the barrier manager. Arrival timestamps and notice sets
        // for the last completed episode are rebuilt conservatively (zero
        // arrivals, all notices the joined timestamp covers); receivers skip
        // notices they already cover, so extras are harmless.
        let mut mgr = BarrierManager::new(n);
        let ep = st.bar_episode;
        let last = if ep > 0 {
            replay.bar_results.get(&(ep - 1)).map(|vt| {
                let all_wns = st.wn_table.missing_between(&VectorClock::zero(n), vt);
                (vt.clone(), vec![VectorClock::zero(n); n], all_wns)
            })
        } else {
            None
        };
        mgr.restore(ep, last);
        st.sync.lock().bar_mgr = Some(mgr);
    }
    st.set_mode(Mode::Normal);
    let backlog = std::mem::take(&mut st.backlog);
    for (from, payload) in backlog {
        handle_msg(st, from, payload);
    }
}
