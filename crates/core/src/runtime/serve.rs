//! One handler per home/sync message kind.
//!
//! `PageReq`, `PageBatchReq`, `DiffBatch` and `LockAcq` touch only the
//! sharded [`HomeStore`], the small [`SyncState`] lock and the mode flag, so
//! their handlers borrow exactly that ([`HomeCtx`]) and never the big
//! node-state lock. The service loop calls them for every Normal-mode
//! message of these kinds; the big-lock replays (recovery backlog,
//! unallocated-page deferrals) reach the same functions through
//! [`super::node::handle_msg`].
//!
//! A handler returns its replies, which the caller sends bare (no FT
//! piggyback: a stale `T_ckp`/`p0.v` costs efficiency, never correctness),
//! plus two signals in [`Served`]: `defer` when it could not finish without
//! the big lock, and `grant_self` when the lock manager decided that this
//! very node grants, which needs big-lock state (tenure, FT logs).

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{Diff, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, LatencyHists, NodeTracer};
use hlrc::locks::{AcqReq, LockAction};
use hlrc::{ApplyOutcome, FetchOutcome, HomeStore, LockId, ReadyFetch, WaitingFetch};
use parking_lot::Mutex;

use crate::msg::Payload;
use crate::runtime::node::{NodeState, SyncState, MODE_NORMAL};

/// The state the home/sync handlers borrow: never the big lock.
pub(crate) struct HomeCtx {
    pub home: Arc<HomeStore>,
    pub sync: Arc<Mutex<SyncState>>,
    pub mode_flag: Arc<AtomicU8>,
    pub me: ProcId,
    pub tracer: NodeTracer,
    /// Test-only one-shot stale-apply injection (see
    /// [`NodeState::inject_stale_apply`]).
    pub inject_stale_apply: Option<Arc<AtomicBool>>,
}

/// What a handler produced.
#[derive(Default)]
pub(crate) struct Served {
    /// Messages to send, bare.
    pub replies: Vec<(ProcId, Payload)>,
    /// A page the message names is not in the home store (not allocated
    /// yet, or not homed here), or a crash fence tripped mid-message. The
    /// caller re-routes the message under the big lock; any work already
    /// done is version-gated idempotent.
    pub defer: bool,
    /// The manager decided that this node grants: the caller finishes the
    /// grant under the big lock.
    pub grant_self: Option<LockAction>,
}

impl HomeCtx {
    pub fn of(st: &NodeState) -> Self {
        HomeCtx {
            home: st.pt.home_store(),
            sync: Arc::clone(&st.sync),
            mode_flag: Arc::clone(&st.mode_flag),
            me: st.me,
            tracer: st.tracer.clone(),
            inject_stale_apply: st.inject_stale_apply.clone(),
        }
    }

    /// The liveness check, re-read under each shard lock and the sync lock:
    /// a crash or recovery transition (flag flip, then quiesce) fences the
    /// handlers out. Always true under the big lock in Normal mode.
    pub fn live(&self) -> bool {
        self.mode_flag.load(Ordering::SeqCst) == MODE_NORMAL
    }

    /// Serve `payload` if it is a home/sync kind; `None` for any other.
    pub fn serve(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        payload: &Payload,
    ) -> Option<Served> {
        Some(match payload {
            Payload::PageReq {
                page,
                needed,
                req_id,
            } => self.serve_page_req(hists, from, *page, needed, *req_id),
            Payload::PageBatchReq { pages, req_id } => {
                self.serve_page_batch(hists, from, pages, *req_id)
            }
            Payload::DiffBatch { seq, diffs } => self.apply_diff_batch(hists, from, *seq, diffs),
            Payload::LockAcq { lock, acq_seq, vt } => {
                self.route_lock_acq(from, *lock, *acq_seq, vt)
            }
            _ => return None,
        })
    }

    /// Serve one fetch against the home store, recording the shard-lock
    /// wait. Serving is an Arc bump: the home's next write copy-on-writes,
    /// leaving the served buffer untouched.
    fn fetch(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        page: PageId,
        needed: &VectorClock,
        req_id: u64,
    ) -> FetchOutcome {
        let req = WaitingFetch {
            from,
            page,
            needed: needed.clone(),
            req_id,
        };
        let (outcome, waited) = self.home.serve_fetch_timed(req, || self.live());
        hists.shard_lock_wait.record(waited.as_nanos() as u64);
        outcome
    }

    pub fn serve_page_req(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        page: PageId,
        needed: &VectorClock,
        req_id: u64,
    ) -> Served {
        let mut s = Served::default();
        match self.fetch(hists, from, page, needed, req_id) {
            FetchOutcome::Ready(version, bytes) => s.replies.push((
                from,
                Payload::PageReply {
                    page,
                    req_id,
                    version,
                    bytes,
                },
            )),
            FetchOutcome::Parked => {}
            FetchOutcome::NotHome | FetchOutcome::Stale => s.defer = true,
        }
        s
    }

    pub fn serve_page_batch(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        pages: &[(PageId, VectorClock)],
        req_id: u64,
    ) -> Served {
        let mut s = Served::default();
        if !pages.iter().all(|(p, _)| self.home.contains(*p)) {
            s.defer = true;
            return s;
        }
        let mut ready = Vec::new();
        for (page, needed) in pages {
            match self.fetch(hists, from, *page, needed, req_id) {
                FetchOutcome::Ready(version, bytes) => ready.push((*page, version, bytes)),
                // Parked pages are answered individually (same req_id)
                // when their diffs arrive.
                FetchOutcome::Parked => {}
                // Crash fence mid-batch: the re-run parks some pages twice,
                // and the requester drops the duplicate replies by req_id.
                FetchOutcome::NotHome | FetchOutcome::Stale => {
                    s.defer = true;
                    return s;
                }
            }
        }
        if !ready.is_empty() {
            s.replies.push((
                from,
                Payload::PageBatchReply {
                    req_id,
                    pages: ready,
                },
            ));
        }
        s
    }

    pub fn apply_diff_batch(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        seq: u64,
        diffs: &[Arc<Diff>],
    ) -> Served {
        let mut s = Served::default();
        for d in diffs {
            let t0 = Instant::now();
            // Only a version-advancing apply is an apply: the invariant
            // monitor treats a repeat as a violation, and chaos duplicates
            // batches. The event is emitted under the shard lock, so a crash
            // fence that quiesces the shards orders it before the crash.
            let (outcome, waited) =
                self.home
                    .apply_diff_timed(d, || self.live(), || emit_diff_apply(&self.tracer, d));
            hists.shard_lock_wait.record(waited.as_nanos() as u64);
            match outcome {
                ApplyOutcome::Applied { ready, .. } => {
                    hists.diff_apply.record(t0.elapsed().as_nanos() as u64);
                    s.replies.extend(ready.into_iter().map(page_reply));
                }
                // Answer what the batch already unparked; the re-run applies
                // the whole batch again, which the version gate makes safe.
                ApplyOutcome::NotHome | ApplyOutcome::Stale => {
                    s.defer = true;
                    return s;
                }
            }
        }
        self.inject_stale_apply(diffs.last().map(|d| &**d));
        // Stop-and-wait ack. The home keeps no per-writer seq state: it acks
        // whatever arrives (the version gate is the dedup), and the writer
        // drops stale acks by seq.
        if seq != 0 {
            s.replies.push((from, Payload::DiffAck { seq }));
        }
        s
    }

    /// Manager routing: the decision is taken exactly once, under the sync
    /// lock. A forward to a peer is a reply; a grant from this node comes
    /// back as `grant_self`.
    pub fn route_lock_acq(
        &self,
        from: ProcId,
        lock: LockId,
        acq_seq: u64,
        vt: &VectorClock,
    ) -> Served {
        debug_assert_eq!(
            lock % self.home.cluster_size(),
            self.me,
            "lock request at wrong manager"
        );
        let mut s = Served::default();
        let action = {
            let mut sync = self.sync.lock();
            if !self.live() {
                s.defer = true;
                return s;
            }
            sync.lock_mgr.on_request(
                lock,
                AcqReq {
                    requester: from,
                    acq_seq,
                    vt: vt.clone(),
                },
            )
        };
        match action {
            Some(a) if a.grant_from == self.me => s.grant_self = Some(a),
            Some(a) => s.replies.push(lock_forward(a)),
            None => {}
        }
        s
    }

    /// Test-only (armed via `ClusterConfig::inject_stale_apply`): re-emit the
    /// `DiffApply` event for an already-applied diff, once, simulating a
    /// home that applied a stale duplicate. The invariant monitor must
    /// catch it.
    fn inject_stale_apply(&self, last: Option<&Diff>) {
        let Some(flag) = &self.inject_stale_apply else {
            return;
        };
        if !self.tracer.enabled() || !flag.swap(false, Ordering::Relaxed) {
            return;
        }
        if let Some(d) = last {
            emit_diff_apply(&self.tracer, d);
        }
    }
}

/// Trace one version-advancing diff application at a home.
pub(crate) fn emit_diff_apply(tracer: &NodeTracer, d: &Diff) {
    if tracer.enabled() {
        tracer.emit(EventKind::DiffApply {
            page: d.page.0,
            bytes: d.payload_bytes() as u32,
            writer: d.interval.proc,
            interval: d.interval.seq as u64,
        });
    }
}

/// The `PageReply` answering a fetch that has become servable.
pub(crate) fn page_reply(r: ReadyFetch) -> (ProcId, Payload) {
    (
        r.from,
        Payload::PageReply {
            page: r.page,
            req_id: r.req_id,
            version: r.version,
            bytes: r.bytes,
        },
    )
}

/// The `LockForward` carrying a manager decision to its granter.
pub(crate) fn lock_forward(a: LockAction) -> (ProcId, Payload) {
    (
        a.grant_from,
        Payload::LockForward {
            lock: a.lock,
            requester: a.req.requester,
            acq_seq: a.req.acq_seq,
            gen: a.gen,
            pred_acq: a.pred_acq,
            vt: a.req.vt,
        },
    )
}
