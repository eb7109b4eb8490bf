//! Per-node runtime state and the protocol service loop.
//!
//! Each node is a pair of threads sharing a [`NodeState`] behind a mutex:
//! the *application* thread runs user code and blocks on a condition
//! variable when an operation needs remote data; the *service* thread
//! receives fabric messages, advances the protocol, and notifies waiters.
//! This mirrors the paper's setup, where VMMC handlers service remote
//! requests while the application computes.
//!
//! The big state lock is *not* the only lock (see DESIGN.md "Hot path").
//! Home-page state lives in the sharded [`hlrc::HomeStore`] and
//! lock/barrier-manager state in the small [`SyncState`] lock. Each message
//! kind has one handler. `PageReq`/`PageBatchReq`/`DiffBatch`/`LockAcq` are
//! served by the handlers in [`super::serve`], which borrow only those two
//! and the mode flag, so the service loop answers them while the
//! application computes under the big lock; every other kind is handled by
//! [`handle_msg`] under it. The big lock keeps the rarely-contended rest:
//! mode, waits, FT logs, recovery state. Lock order is big → sync → shard;
//! shard locks are leaves.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_member::{Action as MemberAction, Detector};
use dsm_net::{Endpoint, Event};
use dsm_page::{Diff, IntervalSeq, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, Histogram, LatencyHists, NodeTracer};
use hlrc::barrier::{Arrival, ArriveOutcome, BarrierManager};
use hlrc::locks::{AcqReq, LockAction, LockManagerTable};
use hlrc::{LockId, PageState, PageTable, WnDelta, WnTable, WriteNotice};
use parking_lot::{Condvar, Mutex};

use crate::ft::logs::{MgrBarEntry, RelEntry};
use crate::ft::recovery::ReplayState;
use crate::ft::FtState;
use crate::msg::{Msg, Payload, Piggy};
use crate::runtime::serve::{emit_diff_apply, lock_forward, page_reply, HomeCtx};

/// Panic payload used to simulate a fail-stop crash of the application
/// thread at a DSM operation boundary.
#[derive(Debug)]
pub struct CrashSignal;

/// Node liveness as seen by its own runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Normal,
    Crashed,
    Recovering,
}

impl Mode {
    /// Encoding for the lock-free [`NodeState::mode_flag`] mirror.
    pub(crate) fn flag(self) -> u8 {
        match self {
            Mode::Normal => 0,
            Mode::Crashed => 1,
            Mode::Recovering => 2,
        }
    }
}

/// [`Mode::Normal`] as seen through the atomic mirror.
pub(crate) const MODE_NORMAL: u8 = 0;

/// Lock-manager and barrier-manager state, behind its own small lock.
///
/// `LockAcq` routing (manager forwards to the chain tail) only needs this
/// state, so the service thread can route forwards while the application
/// holds the big lock. The application thread takes this lock
/// *after* the big lock (big → sync); neither is ever taken while a
/// home-store shard lock is held.
pub(crate) struct SyncState {
    pub lock_mgr: LockManagerTable,
    pub bar_mgr: Option<BarrierManager>,
}

/// The membership/failure-detection runtime of one node: the heartbeat
/// [`Detector`] plus its latency samples, each behind its own small lock so
/// that the ticker thread and the service thread drive the detector without
/// ever touching the big state lock (heartbeat processing must not stall
/// behind a computing application thread, or peers falsely suspect us).
/// The sample histograms are folded into the node's [`LatencyHists`] at
/// teardown. Lock order: never hold `det` while taking the big lock is
/// *allowed* (big → det at the crash path), so action application always
/// drops the detector guard first.
pub(crate) struct MemberRuntime {
    pub det: Mutex<Detector>,
    /// Heartbeat round-trip samples (ns).
    pub rtt: Mutex<Histogram>,
    /// First-suspicion-to-confirmed-down samples (ns).
    pub susp: Mutex<Histogram>,
}

/// A prefetch batch entry: one invalidated remote page with a batched
/// fetch in flight to its home.
#[derive(Debug, Clone)]
pub(crate) struct PrefetchEntry {
    /// Correlation id of the `PageBatchReq` that covers this page.
    pub req_id: u64,
    /// The page's home (retransmission target on `NodeUp`).
    pub home: ProcId,
}

/// A lock grant in flight to the application thread.
#[derive(Debug, Clone)]
pub(crate) struct GrantData {
    pub lock: LockId,
    pub acq_seq: u64,
    pub gen: u64,
    pub granter: ProcId,
    pub vt: VectorClock,
    pub wns: Vec<WriteNotice>,
}

/// A barrier release in flight to the application thread.
#[derive(Debug, Clone)]
pub(crate) struct ReleaseData {
    pub episode: u64,
    pub vt: VectorClock,
    pub wns: WnDelta,
}

/// What the application thread is currently blocked on.
#[derive(Debug)]
pub(crate) enum WaitSlot {
    None,
    Page {
        page: PageId,
        req_id: u64,
        home: ProcId,
        needed: VectorClock,
        /// The shared page buffer from the reply, installed without copying.
        reply: Option<(VectorClock, Arc<[u8]>)>,
    },
    Lock {
        lock: LockId,
        acq_seq: u64,
        manager: ProcId,
        req_vt: VectorClock,
        grant: Option<GrantData>,
    },
    Barrier {
        episode: u64,
        arrive_vt: VectorClock,
        own_wns: WnDelta,
        release: Option<ReleaseData>,
    },
}

/// A forwarded acquire queued while this node still holds the lock.
#[derive(Debug, Clone)]
pub(crate) struct PendingGrant {
    pub requester: ProcId,
    pub acq_seq: u64,
    pub gen: u64,
    /// Our tenure (by our own acquisition number) this grant chains behind.
    pub pred_acq: u64,
    pub req_vt: VectorClock,
}

/// The mutable state of one node.
pub(crate) struct NodeState {
    pub me: ProcId,
    pub n: usize,
    pub page_size: usize,
    pub mode: Mode,
    /// Lock-free mirror of `mode` for the home/sync handlers. Only
    /// [`NodeState::set_mode`] writes it (always under the big lock).
    pub mode_flag: Arc<AtomicU8>,
    pub pt: PageTable,
    pub vt: VectorClock,
    pub wn_table: WnTable,
    /// Lock- and barrier-manager state (its own small lock; big → sync).
    pub sync: Arc<Mutex<SyncState>>,
    pub held: HashSet<LockId>,
    /// Latest tenure per lock: (our own acquisition sequence number,
    /// released?). Deterministic local knowledge, reconstructed exactly by
    /// checkpoint restore plus replay — the basis of forward gating.
    pub tenure: HashMap<LockId, (u64, bool)>,
    /// Grant generation of the latest tenure per lock (the manager-issued
    /// edge number that granted it). Reported to a recovering manager so
    /// it can order delivered tenures; checkpointed with `tenure`. Absent
    /// (treated as 0) only for self-granted replayed tenures, whose
    /// generation died with the old manager incarnation — an underestimate
    /// is safe because generations are monotone along the chain.
    pub tenure_gen: HashMap<LockId, u64>,
    pub last_release_vt: HashMap<LockId, VectorClock>,
    pub pending_grants: HashMap<LockId, Vec<PendingGrant>>,
    /// Highest grant generation this node issued or queued, per lock, with
    /// the grantee and the grantee's acquisition sequence number (reported
    /// to a recovering manager for chain rebuild).
    pub lock_chain_info: HashMap<LockId, (u64, ProcId, u64)>,
    pub wait: WaitSlot,
    /// Recovery replies deposited by the service thread while recovering.
    pub rec_inbox: Vec<(ProcId, Payload)>,
    /// Non-recovery messages deferred while recovering.
    pub backlog: Vec<(ProcId, Payload)>,
    /// Messages referencing pages this node has not allocated yet (SPMD
    /// allocation is local, so an eager peer can request a page before our
    /// application thread reaches the corresponding alloc). Replayed by
    /// [`crate::Process::alloc`].
    pub pending_unalloc: Vec<(ProcId, Payload)>,
    /// Remote pages with a batched prefetch in flight (issued right after
    /// an acquire or barrier invalidated them). A first touch of one of
    /// these waits for the batch reply instead of sending its own
    /// `PageReq`.
    pub prefetch: HashMap<PageId, PrefetchEntry>,
    pub acq_seq_next: u64,
    pub bar_episode: u64,
    pub req_id_next: u64,
    /// Own write notices since the last barrier arrival.
    pub wn_since_barrier: Vec<WriteNotice>,
    pub shared_bytes: u64,
    /// Allocation cursor (page index of the next allocation).
    pub alloc_cursor: u32,
    pub ft: Option<FtState>,
    pub replay: Option<ReplayState>,
    /// Service-thread handler time per message kind, all kinds; their sum
    /// is the service thread's protocol time. Accumulated in the service
    /// loop and folded in when it exits.
    pub svc_time_by_kind: HashMap<&'static str, Duration>,
    pub shutdown: bool,
    /// DSM operations executed (crash-injection clock).
    pub ops: u64,
    /// Scripted failures (ascending op counts).
    pub crash_queue: Vec<u64>,
    pub recoveries: u64,
    pub ep: Arc<Endpoint<Msg>>,
    /// Membership/failure-detection runtime; `None` keeps orchestrated
    /// recovery (perfect-knowledge `NodeUp` broadcasts).
    pub member: Option<Arc<MemberRuntime>>,
    /// Request/diff retransmission timeout; `Some` switches the retry layer
    /// on (set together with `member`).
    pub retry_after: Option<Duration>,
    /// Requests and diff batches retransmitted after a timeout.
    pub retransmits: u64,
    /// Duplicate or stale deliveries suppressed by the idempotency gates
    /// (grant/release/ack dedup, superseded prefetch replies).
    pub dup_suppressed: u64,
    /// Stop-and-wait diff outbox, indexed by home: queued `(seq, batch)`
    /// pairs, the front one in flight. Keeping at most one unacknowledged
    /// batch per home preserves first-delivery order under loss and
    /// reordering — the home's per-writer version gate makes *re*-delivery
    /// idempotent but would silently discard an older batch arriving after
    /// a newer one. Unused (empty) when the retry layer is off.
    pub diff_outbox: Vec<VecDeque<(u64, Vec<Arc<Diff>>)>>,
    /// Per home: `(seq, last transmission)` of the in-flight batch.
    pub diff_inflight: Vec<Option<(u64, Instant)>>,
    /// Last stop-and-wait sequence number issued (0 is reserved for the
    /// legacy no-ack path).
    pub diff_seq_next: u64,
    /// Per page: the interval seq of the last diff *we* published for it.
    /// With the outbox on, our own diff may still be queued locally when we
    /// re-fetch the page, and the invalidation-driven `needed` vector only
    /// covers other writers — so fetches fold this in to keep the home from
    /// serving a copy that misses our own write (the legacy path gets the
    /// same guarantee from per-channel FIFO order). Maintained only when the
    /// retry layer is on; cleared on crash (replay repopulates it).
    pub own_diff_seq: HashMap<PageId, IntervalSeq>,
    /// Breakdown accumulated across this node's incarnations.
    pub breakdown_acc: crate::stats::Breakdown,
    /// Protocol event tracer (a no-op handle when tracing is disabled).
    pub tracer: NodeTracer,
    /// Latency histograms accumulated across this node's incarnations.
    pub hists: LatencyHists,
    /// Flow id of the message currently being handled (0 outside a
    /// handler). Every message [`NodeState::send`] emits while a handler
    /// runs is causally parented on this flow, which is what lets the
    /// exporter stitch request → forward → grant chains across nodes.
    pub cur_flow: u64,
    /// Test-only (set via `ClusterConfig::inject_stale_apply`): one-shot
    /// trigger that re-emits a `DiffApply` event with an already-applied
    /// interval, so tests can prove the invariant monitor catches it.
    pub inject_stale_apply: Option<Arc<std::sync::atomic::AtomicBool>>,
}

/// Everything shared between a node's threads.
pub(crate) struct NodeShared {
    pub state: Mutex<NodeState>,
    pub cv: Condvar,
    pub me: ProcId,
    pub n: usize,
}

impl NodeState {
    /// Change the node's mode, keeping the handlers' atomic mirror in
    /// step. Every transition happens under the big lock; the store-then-
    /// quiesce fencing on the crash path is what makes the mirror safe to
    /// read without it (see DESIGN.md).
    pub(crate) fn set_mode(&mut self, m: Mode) {
        self.mode = m;
        self.mode_flag.store(m.flag(), Ordering::SeqCst);
    }

    /// Send a protocol message with the FT piggyback attached (when it
    /// carries news: a checkpoint timestamp the destination hasn't seen,
    /// `p0.v` hints, or — on barrier releases — the gossip table).
    pub(crate) fn send(&mut self, to: ProcId, payload: Payload) {
        let gossip = matches!(payload, Payload::BarrierRelease { .. });
        let piggy = self.make_piggy(to, gossip);
        let ep = Arc::clone(&self.ep);
        ep.send(to, Msg::with_parent(payload, piggy, self.cur_flow));
    }

    fn make_piggy(&mut self, to: ProcId, gossip: bool) -> Option<Piggy> {
        let me = self.me;
        let homed = if self.pt.is_empty() {
            Vec::new()
        } else {
            self.pt.homed_pages()
        };
        let ft = self.ft.as_mut()?;
        let mut p0v = Vec::new();
        if !homed.is_empty() && !ft.retained.is_empty() {
            let batch = ft.cfg.piggy_page_batch;
            let start = ft.piggy_cursor % homed.len();
            for k in 0..homed.len() {
                if p0v.len() >= batch {
                    break;
                }
                let page = homed[(start + k) % homed.len()];
                ft.piggy_cursor = (start + k + 1) % homed.len();
                if !self.pt.home_writers_contain(page, to) {
                    continue;
                }
                if let Some(v) = ft.cover_version(me, page) {
                    let bound = v.get(to);
                    if bound > 0 && ft.p0v_sent.get(&(page, to)).copied().unwrap_or(0) < bound {
                        ft.p0v_sent.insert((page, to), bound);
                        p0v.push((page, bound));
                    }
                }
            }
        }
        let news = ft.piggy_sent[to] != ft.ckpt_seq;
        let table = if gossip {
            ft.gossip_table(me)
        } else {
            Vec::new()
        };
        if !news && p0v.is_empty() && table.is_empty() {
            return None;
        }
        ft.piggy_sent[to] = ft.ckpt_seq;
        Some(Piggy {
            tckp: ft.last_ckpt_vt.clone(),
            ckpt_seq: ft.ckpt_seq,
            ckpt_episode: ft.last_ckpt_episode,
            p0v,
            table,
        })
    }

    /// Deposit a grant for the blocked application thread.
    pub(crate) fn deposit_grant(&mut self, g: GrantData) {
        if let WaitSlot::Lock { acq_seq, grant, .. } = &mut self.wait {
            if *acq_seq == g.acq_seq && grant.is_none() {
                *grant = Some(g);
                return;
            }
        }
        // Anything else is a stale retransmission: drop.
        self.dup_suppressed += 1;
    }

    /// Deposit a barrier release.
    pub(crate) fn deposit_release(&mut self, r: ReleaseData) {
        if let WaitSlot::Barrier {
            episode, release, ..
        } = &mut self.wait
        {
            if *episode == r.episode && release.is_none() {
                *release = Some(r);
                return;
            }
        }
        self.dup_suppressed += 1;
    }

    /// Deposit a page reply (the shared buffer, never a copy). Returns the
    /// reply back when no blocked fetch consumed it — the caller then
    /// offers it to the prefetch tracker (a home answers a parked batched
    /// page with an individual `PageReply` carrying the batch's `req_id`).
    pub(crate) fn deposit_page(
        &mut self,
        req_id: u64,
        version: VectorClock,
        bytes: Arc<[u8]>,
    ) -> Option<(VectorClock, Arc<[u8]>)> {
        if let WaitSlot::Page {
            req_id: want,
            reply,
            ..
        } = &mut self.wait
        {
            if *want == req_id && reply.is_none() {
                *reply = Some((version, bytes));
                return None;
            }
        }
        Some((version, bytes))
    }
}

/// End the current interval: turn twins into diffs, publish write notices,
/// send diffs to remote homes, and (FT) log everything.
///
/// Returns (protocol time, logging time) spent.
pub(crate) fn end_interval(st: &mut NodeState) -> (Duration, Duration) {
    // O(1) early exit: one vec emptiness check plus one atomic load — the
    // common no-writes release pays no slot walk and takes no shard lock.
    if !st.pt.has_writes() {
        return (Duration::ZERO, Duration::ZERO);
    }
    let t0 = Instant::now();
    let me = st.me;
    let iv = st.vt.tick(me);
    let (diffs, _written) = st.pt.end_interval(iv);
    let diffs: Vec<Arc<Diff>> = diffs.into_iter().map(Arc::new).collect();
    st.hists.diff_create.record(t0.elapsed().as_nanos() as u64);
    if diffs.is_empty() {
        // Twins existed but no word actually changed: nothing to publish.
        st.hists
            .release_flush
            .record(t0.elapsed().as_nanos() as u64);
        return (t0.elapsed(), Duration::ZERO);
    }
    let pages: Vec<PageId> = diffs.iter().map(|d| d.page).collect();
    if st.tracer.enabled() {
        for d in &diffs {
            st.tracer.emit(EventKind::DiffCreate {
                page: d.page.0,
                bytes: d.payload_bytes() as u32,
            });
        }
    }
    st.wn_table.insert_parts(iv, pages.clone());
    st.wn_since_barrier.push(WriteNotice {
        interval: iv,
        pages: pages.clone(),
    });

    // Group diffs for remote homes (reference bumps, not payload copies).
    // A stable sort on a short Vec beats a HashMap at release sizes, and
    // the common one-page release stays a single allocation; stability
    // keeps per-home page order (and thus replayed piggyback state)
    // deterministic.
    let mut remote: Vec<(ProcId, Arc<Diff>)> = diffs
        .iter()
        .filter_map(|d| {
            let home = st.pt.home_of(d.page);
            (home != me).then(|| (home, Arc::clone(d)))
        })
        .collect();
    remote.sort_by_key(|(home, _)| *home);
    let proto = t0.elapsed();

    // FT: log the write notice and every diff (including homed pages') as
    // one batch. The log entries share the diff objects just grouped into
    // the outgoing batches — logging costs one Arc bump plus a timestamp
    // per diff, never a payload copy.
    let t1 = Instant::now();
    if let Some(ft) = st.ft.as_mut() {
        let t = st.vt.clone();
        ft.logs.log_interval(iv.seq, pages, &t, &diffs);
    }
    let logging = t1.elapsed();

    // One coalesced DiffBatch per remote home: the release-side flush is
    // one message per home regardless of how many pages the interval wrote,
    // in ascending home order so the piggyback state advances identically
    // on replay.
    while !remote.is_empty() {
        let home = remote[0].0;
        let split = remote
            .iter()
            .position(|(h, _)| *h != home)
            .unwrap_or(remote.len());
        let rest = remote.split_off(split);
        send_diff_batch(st, home, remote.into_iter().map(|(_, d)| d).collect());
        remote = rest;
    }
    // The whole release flush — dirty collection, diff creation (inline or
    // on the flush workers), logging, per-home batches out.
    st.hists
        .release_flush
        .record(t0.elapsed().as_nanos() as u64);
    (proto, logging)
}

/// Send one coalesced diff batch to a remote home. With the retry layer on
/// the batch enters the per-home stop-and-wait outbox; otherwise it goes
/// straight out with `seq: 0` (no ack — the reliable-fabric hot path is
/// unchanged).
pub(crate) fn send_diff_batch(st: &mut NodeState, home: ProcId, batch: Vec<Arc<Diff>>) {
    if st.retry_after.is_none() {
        st.send(
            home,
            Payload::DiffBatch {
                seq: 0,
                diffs: batch,
            },
        );
        return;
    }
    st.diff_seq_next += 1;
    let seq = st.diff_seq_next;
    for d in &batch {
        st.own_diff_seq.insert(d.page, d.interval.seq);
    }
    st.diff_outbox[home].push_back((seq, batch));
    pump_diff_outbox(st, home);
}

/// The `needed` version a fetch of `page` should carry: the accumulated
/// invalidation vector plus — when the retry layer is on — the seq of our
/// own last published diff for the page (see [`NodeState::own_diff_seq`]).
pub(crate) fn fetch_needed(st: &NodeState, page: PageId, mut needed: VectorClock) -> VectorClock {
    if st.retry_after.is_some() {
        if let Some(&seq) = st.own_diff_seq.get(&page) {
            if seq > needed.get(st.me) {
                needed.set(st.me, seq);
            }
        }
    }
    needed
}

/// Transmit the head of `home`'s diff outbox unless a batch is already in
/// flight there (stop-and-wait: the next batch goes only after the ack).
pub(crate) fn pump_diff_outbox(st: &mut NodeState, home: ProcId) {
    if st.diff_inflight[home].is_some() {
        return;
    }
    let Some((seq, batch)) = st.diff_outbox[home].front() else {
        return;
    };
    let (seq, batch) = (*seq, batch.clone());
    st.diff_inflight[home] = Some((seq, Instant::now()));
    st.send(home, Payload::DiffBatch { seq, diffs: batch });
}

/// Retransmit every in-flight diff batch older than the retry timeout
/// (driven by the membership ticker and by the application thread whenever
/// one of its own waits times out). Re-delivery is idempotent at the home
/// (per-writer version gate); the duplicate ack is dropped by seq.
pub(crate) fn retransmit_stale_diffs(st: &mut NodeState) {
    let Some(after) = st.retry_after else {
        return;
    };
    for home in 0..st.n {
        if st.diff_inflight[home].is_some_and(|(_, sent)| sent.elapsed() >= after) {
            resend_inflight_diff(st, home);
        }
    }
}

/// Retransmit `home`'s in-flight diff batch, if any, restarting its timer.
fn resend_inflight_diff(st: &mut NodeState, home: ProcId) {
    let Some((seq, _)) = st.diff_inflight[home] else {
        return;
    };
    let batch = st.diff_outbox[home]
        .front()
        .expect("in-flight batch without an outbox head")
        .1
        .clone();
    st.diff_inflight[home] = Some((seq, Instant::now()));
    st.retransmits += 1;
    if st.tracer.enabled() {
        st.tracer.emit(EventKind::Retransmit {
            kind: "DiffBatch",
            to: home,
        });
    }
    st.send(home, Payload::DiffBatch { seq, diffs: batch });
}

/// The request the application thread is blocked on at a peer, if any:
/// `(peer, request)`.
fn peer_request(st: &NodeState) -> Option<(ProcId, Payload)> {
    let me = st.me;
    match &st.wait {
        WaitSlot::Page {
            page,
            req_id,
            home,
            needed,
            reply: None,
        } if *home != me => Some((
            *home,
            Payload::PageReq {
                page: *page,
                needed: needed.clone(),
                req_id: *req_id,
            },
        )),
        WaitSlot::Lock {
            lock,
            acq_seq,
            manager,
            req_vt,
            grant: None,
        } if *manager != me => Some((
            *manager,
            Payload::LockAcq {
                lock: *lock,
                acq_seq: *acq_seq,
                vt: req_vt.clone(),
            },
        )),
        WaitSlot::Barrier {
            episode,
            arrive_vt,
            own_wns,
            release: None,
        } if me != 0 => Some((
            0,
            Payload::BarrierArrive {
                episode: *episode,
                vt: arrive_vt.clone(),
                own_wns: own_wns.clone(),
            },
        )),
        _ => None,
    }
}

/// Retransmit whatever request the application thread is blocked on (called
/// by the wait loop after `retry_after` of silence). Returns 1 when
/// something was resent. Every receiver path is idempotent under
/// duplication: requests dedup by `req_id`/`acq_seq`/`episode`, grants
/// replay from the release log, and installs are version-gated.
pub(crate) fn retransmit_wait_slot(st: &mut NodeState) -> u64 {
    let me = st.me;
    let Some((to, payload)) = peer_request(st) else {
        let WaitSlot::Lock {
            lock,
            acq_seq,
            req_vt,
            grant: None,
            ..
        } = &st.wait
        else {
            return 0;
        };
        // We are the manager: re-run the request through the manager
        // table, which dedups by `acq_seq` and re-forwards the identical
        // chain action (the grant then replays from the granter's log).
        let req = AcqReq {
            requester: me,
            acq_seq: *acq_seq,
            vt: req_vt.clone(),
        };
        let lock = *lock;
        st.retransmits += 1;
        if st.tracer.enabled() {
            st.tracer.emit(EventKind::Retransmit {
                kind: "LockAcq",
                to: me,
            });
        }
        let action = st.sync.lock().lock_mgr.on_request(lock, req);
        if let Some(a) = action {
            dispatch_lock_action(st, a);
        }
        return 1;
    };
    st.retransmits += 1;
    if st.tracer.enabled() {
        st.tracer.emit(EventKind::Retransmit {
            kind: payload.kind(),
            to,
        });
    }
    st.send(to, payload);
    1
}

/// Apply the actions a [`Detector`] produced. Must be called *without*
/// holding the detector lock (an `Up` action takes the big lock to drive
/// retransmissions). Sends go out as bare messages — membership traffic
/// never carries piggybacks and never enters the recovery backlog.
pub(crate) fn apply_member_actions(
    shared: &NodeShared,
    ep: &Endpoint<Msg>,
    tracer: &NodeTracer,
    mr: &MemberRuntime,
    actions: Vec<MemberAction>,
) {
    let mut suspects_traced: Vec<usize> = Vec::new();
    for a in actions {
        match a {
            MemberAction::Send { to, msg } => {
                if tracer.enabled() {
                    if let dsm_member::Wire::SuspectQuery { about } = msg {
                        if !suspects_traced.contains(&about) {
                            suspects_traced.push(about);
                            tracer.emit(EventKind::Suspect { node: about });
                        }
                    }
                }
                ep.send(to, Msg::bare(Payload::Member(msg)));
            }
            MemberAction::RttSample { ns } => mr.rtt.lock().record(ns),
            MemberAction::SuspicionLatency { ns } => mr.susp.lock().record(ns),
            MemberAction::Down { node, .. } => {
                if tracer.enabled() {
                    tracer.emit(EventKind::MemberDown { node });
                }
            }
            MemberAction::Up { node, .. } => {
                if tracer.enabled() {
                    tracer.emit(EventKind::MemberUp { node });
                }
                // The returned peer lost everything in flight to it:
                // retransmit blocked requests and in-flight prefetch batches
                // (same path orchestrated `NodeUp` events used to drive),
                // plus the in-flight diff batch, immediately.
                let mut st = shared.state.lock();
                if st.mode == Mode::Normal {
                    handle_node_up(&mut st, node);
                    resend_inflight_diff(&mut st, node);
                }
                drop(st);
                shared.cv.notify_all();
            }
        }
    }
}

/// Drain every parked fetch the home store can now serve and answer it.
pub(crate) fn serve_waiting_fetches(st: &mut NodeState) {
    for r in st.pt.home_store().drain_ready() {
        let (to, reply) = page_reply(r);
        st.send(to, reply);
    }
}

/// Apply the pending homed-page diffs whose creators had seen at most
/// `st.vt[me]` of our history (recovery replay ordering; see DESIGN.md).
pub(crate) fn apply_pending_home(st: &mut NodeState) {
    let Some(replay) = st.replay.as_mut() else {
        return;
    };
    if replay.pending_home.is_empty() {
        return;
    }
    let bound = st.vt.get(st.me);
    // `pending_home` is kept sorted in a linear extension of happens-before;
    // applying the eligible subset in order preserves same-word ordering.
    let mut rest = Vec::with_capacity(replay.pending_home.len());
    for e in replay.pending_home.drain(..) {
        if e.t.get(st.me) <= bound {
            if st.pt.home_apply_diff(&e.diff) {
                emit_diff_apply(&st.tracer, &e.diff);
            }
        } else {
            rest.push(e);
        }
    }
    replay.pending_home = rest;
    serve_waiting_fetches(st);
}

/// Produce a grant right now (the lock is free at this node).
pub(crate) fn grant_now(
    st: &mut NodeState,
    lock: LockId,
    requester: ProcId,
    acq_seq: u64,
    gen: u64,
    req_vt: VectorClock,
) {
    let n = st.n;
    let req_vt = if req_vt.is_empty() {
        VectorClock::zero(n)
    } else {
        req_vt
    };
    let grant_vt = st
        .last_release_vt
        .get(&lock)
        .cloned()
        .unwrap_or_else(|| VectorClock::zero(n));
    let wns = st.wn_table.missing_between(&req_vt, &grant_vt);
    st.tracer.emit(EventKind::LockGrant {
        lock: lock as u32,
        to: requester,
        gen,
    });
    if let Some(ft) = st.ft.as_mut() {
        let mut t_after = req_vt.clone();
        t_after.join(&grant_vt);
        ft.logs.log_rel(
            requester,
            RelEntry {
                acq_seq,
                lock,
                gen,
                req_vt,
                t_after,
            },
        );
    }
    deliver_grant(
        st,
        requester,
        GrantData {
            lock,
            acq_seq,
            gen,
            granter: st.me,
            vt: grant_vt,
            wns,
        },
    );
}

fn deliver_grant(st: &mut NodeState, to: ProcId, g: GrantData) {
    if to == st.me {
        st.deposit_grant(g);
    } else {
        st.send(
            to,
            Payload::LockGrant {
                lock: g.lock,
                acq_seq: g.acq_seq,
                gen: g.gen,
                vt: g.vt,
                wns: g.wns,
            },
        );
    }
}

/// Handle a forwarded acquire at the granter (chain predecessor).
pub(crate) fn handle_forward(
    st: &mut NodeState,
    lock: LockId,
    requester: ProcId,
    acq_seq: u64,
    gen: u64,
    pred_acq: u64,
    req_vt: VectorClock,
) {
    // Track the newest grant this node is responsible for (manager
    // recovery).
    let e = st
        .lock_chain_info
        .entry(lock)
        .or_insert((gen, requester, acq_seq));
    if gen >= e.0 {
        *e = (gen, requester, acq_seq);
    }
    // Retransmission of a grant we already produced? Replay it from the
    // release log so the requester sees an identical grant.
    if let Some(ft) = st.ft.as_ref() {
        if let Some(entry) = ft.logs.find_rel(requester, acq_seq) {
            if entry.lock == lock {
                let g = GrantData {
                    lock,
                    acq_seq,
                    gen,
                    granter: st.me,
                    vt: entry.t_after.clone(),
                    wns: st.wn_table.missing_between(&entry.req_vt, &entry.t_after),
                };
                deliver_grant(st, requester, g);
                return;
            }
        }
    }
    // The forward chains behind our tenure whose own acquisition number is
    // `pred_acq`. If we have already released that tenure (or any newer
    // one), grant immediately from our latest release timestamp
    // (conservative: extra happens-before edges are harmless). Otherwise
    // the tenure is still in flight — possibly our grant for it has not
    // even arrived yet, since the manager advances the tail at forward
    // time — and the requester queues until our release.
    let in_flight = matches!(
        &st.wait,
        WaitSlot::Lock { lock: l, acq_seq: s, .. } if *l == lock && *s == pred_acq
    );
    let grantable = pred_acq == u64::MAX
        || (!in_flight
            && match st.tenure.get(&lock) {
                None => true, // no record: the tenure predates anything we know
                Some(&(ts, released)) => pred_acq < ts || (pred_acq == ts && released),
            });
    if !grantable {
        // One queued edge per acquisition: a retransmitted forward
        // replaces (or is subsumed by) the copy already queued, newest
        // generation winning, so retries can't grow the queue.
        let q = st.pending_grants.entry(lock).or_default();
        if q.iter()
            .any(|pg| pg.requester == requester && pg.acq_seq == acq_seq && pg.gen > gen)
        {
            return;
        }
        q.retain(|pg| !(pg.requester == requester && pg.acq_seq == acq_seq));
        q.push(PendingGrant {
            requester,
            acq_seq,
            gen,
            pred_acq,
            req_vt,
        });
        return;
    }
    grant_now(st, lock, requester, acq_seq, gen, req_vt);
}

/// Route a manager decision: either grant locally or forward.
pub(crate) fn dispatch_lock_action(st: &mut NodeState, a: LockAction) {
    if a.grant_from == st.me {
        handle_forward(
            st,
            a.lock,
            a.req.requester,
            a.req.acq_seq,
            a.gen,
            a.pred_acq,
            a.req.vt,
        );
    } else {
        let (to, fwd) = lock_forward(a);
        st.send(to, fwd);
    }
}

/// Process a barrier arrival at the manager (local or remote).
pub(crate) fn barrier_manager_arrive(st: &mut NodeState, arrival: Arrival) {
    let t_arrive = Instant::now();
    let outcome = {
        let mut sync = st.sync.lock();
        let mgr = sync
            .bar_mgr
            .as_mut()
            .expect("barrier arrival at non-manager");
        mgr.arrive(arrival)
    };
    match outcome {
        ArriveOutcome::Pending => {}
        ArriveOutcome::Complete(rel) => {
            // Time the episode-completing arrival: join, dedupe and
            // per-participant delta fan-out all happen inside `arrive`.
            st.hists
                .barrier_release_build
                .record(t_arrive.elapsed().as_nanos() as u64);
            if let Some(ft) = st.ft.as_mut() {
                ft.logs.log_bar_mgr(MgrBarEntry {
                    episode: rel.episode,
                    arrival_vts: rel.arrival_vts.clone(),
                    result_vt: rel.vt.clone(),
                });
            }
            for p in 0..st.n {
                deliver_release(st, p, &rel);
            }
        }
        ArriveOutcome::Resend { proc, release } => deliver_release(st, proc, &release),
    }
}

/// Hand participant `p` its share of a barrier release.
fn deliver_release(st: &mut NodeState, p: ProcId, rel: &hlrc::ReleaseSet) {
    let (episode, vt, wns) = (rel.episode, rel.vt.clone(), rel.per_proc_wns[p].clone());
    if p == st.me {
        st.deposit_release(ReleaseData { episode, vt, wns });
    } else {
        st.send(p, Payload::BarrierRelease { episode, vt, wns });
    }
}

/// Build the reply to a recovering peer's log-collection handshake.
///
/// For locks managed by the recovering node this is also the *chain
/// reset*: queued-but-ungranted forwards are discarded here, so the
/// recovered manager rebuilds the chain only from acquisitions that
/// materialized — our own delivered tenures and the grants in our release
/// log. The discarded edges' requesters are still blocked and re-drive
/// their acquisition (retry timer under chaos, NodeUp re-send otherwise),
/// re-entering the chain behind a real tenure. Without the reset, stale
/// pre-crash edges and the manager's fresh post-crash edges can order the
/// same two waiters both ways round and deadlock the chain. This leans on
/// the failure-detection synchrony assumption (max message delay is far
/// below the detection bound): by the time this handshake runs, no
/// pre-crash forward is still in flight toward us.
fn build_rec_log_reply(st: &mut NodeState, r: ProcId) -> Payload {
    let n = st.n;
    let managed_by_r = |lock: LockId| lock % n == r;
    st.pending_grants.retain(|&lock, _| !managed_by_r(lock));

    let ft = st.ft.as_ref().expect("recovery handshake without FT");
    let mut chains: HashMap<LockId, (u64, ProcId, u64, Option<ProcId>)> = HashMap::new();
    // Our newest delivered tenure per lock the recovering node manages.
    for (&lock, &(acq, _)) in &st.tenure {
        if managed_by_r(lock) {
            let gen = st.tenure_gen.get(&lock).copied().unwrap_or(0);
            let e = chains.entry(lock).or_insert((gen, st.me, acq, None));
            if gen >= e.0 {
                *e = (gen, st.me, acq, None);
            }
        }
    }
    // The newest grant per lock in our release log: issued, hence
    // replayable here if its delivery was lost.
    for (grantee, log) in ft.logs.rel.iter().enumerate() {
        for entry in log {
            if managed_by_r(entry.lock) {
                let e = chains.entry(entry.lock).or_insert((
                    entry.gen,
                    grantee,
                    entry.acq_seq,
                    Some(st.me),
                ));
                if entry.gen >= e.0 {
                    *e = (entry.gen, grantee, entry.acq_seq, Some(st.me));
                }
            }
        }
    }
    Payload::RecLogReply {
        wn: ft.logs.wn.clone(),
        rel_for_you: ft.logs.rel[r].clone(),
        acq_mirror: ft.logs.acq[r].clone(),
        bar: ft.logs.bar.clone(),
        bar_mgr: ft.logs.bar_mgr.clone(),
        lock_chains: chains
            .into_iter()
            .map(|(lock, (gen, grantee, acq, granter))| (lock, gen, grantee, acq, granter))
            .collect(),
        gen_floor: st
            .lock_chain_info
            .iter()
            .filter(|(&lock, _)| managed_by_r(lock))
            .map(|(&lock, &(gen, _, _))| (lock, gen))
            .collect(),
        acq_seen: st.sync.lock().lock_mgr.newest_acq_of(r).unwrap_or(0),
    }
}

/// Serve a maximal-starting-copy request: the newest retained checkpointed
/// copy whose version the requester's restart checkpoint covers, falling
/// back to the initial zero page.
fn serve_rec_page(st: &mut NodeState, from: ProcId, page: PageId, tckp: VectorClock) {
    assert!(
        st.pt.is_home(page),
        "RecPageReq for page {page} not homed here"
    );
    let n = st.n;
    let ft = st.ft.as_ref().expect("recovery without FT");
    let mut found: Option<(VectorClock, Arc<[u8]>)> = None;
    for rc in ft.retained.iter().rev() {
        let Some(v) = rc.versions.get(&page) else {
            continue;
        };
        if tckp.covers(v) {
            // The page's bytes live in the newest blob of the chain
            // anchor_seq..=rc.seq that carries it (a delta only holds
            // pages written since its predecessor).
            let mut hit = None;
            for seq in (rc.anchor_seq..=rc.seq).rev() {
                let blob = ft
                    .store
                    .read_segment(dsm_storage::SegmentKind::Checkpoint, seq)
                    .expect("retained checkpoint chain missing from stable storage");
                let ckpt = crate::ft::ckpt::CheckpointBlob::decode(&blob)
                    .expect("corrupt checkpoint blob");
                if let Some((_, v, bytes)) =
                    ckpt.home_pages.into_iter().find(|(p, _, _)| *p == page)
                {
                    hit = Some((v, bytes.into()));
                    break;
                }
            }
            found = Some(hit.expect("page missing from checkpoint chain"));
            break;
        }
    }
    let (version, bytes) =
        found.unwrap_or_else(|| (VectorClock::zero(n), vec![0u8; st.page_size].into()));
    st.send(
        from,
        Payload::RecPageReply {
            page,
            version,
            bytes,
        },
    );
}

/// The highest page a payload references, if any.
fn max_page(payload: &Payload) -> Option<PageId> {
    match payload {
        Payload::PageReq { page, .. }
        | Payload::RecPageReq { page, .. }
        | Payload::RecDiffReq { page } => Some(*page),
        Payload::DiffBatch { diffs, .. } => diffs.iter().map(|d| d.page).max(),
        Payload::PageBatchReq { pages, .. } => pages.iter().map(|(p, _)| *p).max(),
        _ => None,
    }
}

/// Install a page delivered by a prefetch batch (either in the batched
/// reply or as a straggler `PageReply` carrying the batch's `req_id`).
/// Superseded and overtaken replies are dropped: the page stays `Invalid`
/// and a later touch fetches fresh.
fn install_prefetched(
    st: &mut NodeState,
    page: PageId,
    req_id: u64,
    version: VectorClock,
    bytes: Arc<[u8]>,
) {
    match st.prefetch.get(&page) {
        Some(e) if e.req_id == req_id => {}
        // A reply from a superseded batch (or none in flight): drop it and
        // keep the entry for the current batch's reply.
        _ => {
            st.dup_suppressed += 1;
            return;
        }
    }
    st.prefetch.remove(&page);
    if st.pt.is_home(page) {
        return;
    }
    let m = st.pt.remote_meta(page);
    // A new invalidation may have overtaken the batch; install only when
    // the reply still covers everything the page is known to need.
    if m.state == PageState::Invalid && version.covers(&m.needed) {
        st.pt.install_fetch(page, bytes, &version);
        st.hists.fetch_copy.record(0);
    }
}

/// Eagerly batch-fetch the remote pages just invalidated by applied write
/// notices: one `PageBatchReq` per home covers every such page, turning N
/// page-miss round trips into one. Skipped during recovery replay (replay
/// fetches must stay individually deterministic).
pub(crate) fn issue_prefetch(st: &mut NodeState, invalidated: &[PageId]) {
    if st.replay.is_some() {
        return;
    }
    let mut seen = HashSet::new();
    let mut per_home: HashMap<ProcId, Vec<(PageId, VectorClock)>> = HashMap::new();
    for &page in invalidated {
        if !seen.insert(page) || st.pt.is_home(page) || st.prefetch.contains_key(&page) {
            continue;
        }
        let m = st.pt.remote_meta(page);
        if m.state != PageState::Invalid {
            continue;
        }
        let (home, needed) = (m.home, m.needed.clone());
        per_home
            .entry(home)
            .or_default()
            .push((page, fetch_needed(st, page, needed)));
    }
    // Deterministic send order (piggyback state advances per send).
    let mut per_home: Vec<_> = per_home.into_iter().collect();
    per_home.sort_unstable_by_key(|(home, _)| *home);
    for (home, pages) in per_home {
        let req_id = st.req_id_next;
        st.req_id_next += 1;
        st.hists.fetch_batch_pages.record(pages.len() as u64);
        for (p, _) in &pages {
            st.prefetch.insert(*p, PrefetchEntry { req_id, home });
        }
        st.send(home, Payload::PageBatchReq { pages, req_id });
    }
}

/// Send a handler's replies bare, parented on flow `parent`.
fn send_bare(ep: &Endpoint<Msg>, replies: Vec<(ProcId, Payload)>, parent: u64) {
    for (to, payload) in replies {
        ep.send(to, Msg::reply_to(payload, parent));
    }
}

/// Handle one protocol message in normal mode, under the big lock.
pub(crate) fn handle_msg(st: &mut NodeState, from: ProcId, payload: Payload) {
    if let Some(p) = max_page(&payload) {
        if p.index() >= st.pt.len() {
            st.pending_unalloc.push((from, payload));
            return;
        }
    }
    match payload {
        Payload::PageReq { .. }
        | Payload::PageBatchReq { .. }
        | Payload::DiffBatch { .. }
        | Payload::LockAcq { .. } => {
            let s = HomeCtx::of(st)
                .serve(&mut st.hists, from, &payload)
                .expect("home/sync kind");
            // Every page is allocated and the mode is Normal: only a page
            // homed elsewhere can defer here.
            assert!(
                !s.defer,
                "{} from node {from} names a page not homed here",
                payload.kind()
            );
            send_bare(&st.ep, s.replies, st.cur_flow);
            if let Some(a) = s.grant_self {
                dispatch_lock_action(st, a);
            }
        }
        Payload::LockForward {
            lock,
            requester,
            acq_seq,
            gen,
            pred_acq,
            vt,
        } => {
            handle_forward(st, lock, requester, acq_seq, gen, pred_acq, vt);
        }
        Payload::LockGrant {
            lock,
            acq_seq,
            gen,
            vt,
            wns,
        } => {
            st.deposit_grant(GrantData {
                lock,
                acq_seq,
                gen,
                granter: from,
                vt,
                wns,
            });
        }
        Payload::DiffAck { seq } => match st.diff_inflight[from] {
            Some((want, _)) if want == seq => {
                st.diff_inflight[from] = None;
                st.diff_outbox[from].pop_front();
                pump_diff_outbox(st, from);
            }
            // Duplicate ack of a retransmitted batch, or an ack from a
            // previous incarnation: drop.
            _ => st.dup_suppressed += 1,
        },
        // Membership traffic is handled off the big lock in the service
        // loop; one can still land here through a recovery-backlog replay —
        // by then it is stale, and the detector gets fresher input every
        // heartbeat period anyway.
        Payload::Member(_) => {}
        Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
        } => {
            barrier_manager_arrive(
                st,
                Arrival {
                    proc: from,
                    episode,
                    vt,
                    own_wns,
                },
            );
        }
        Payload::BarrierRelease { episode, vt, wns } => {
            st.deposit_release(ReleaseData { episode, vt, wns });
        }
        Payload::PageBatchReply { req_id, pages } => {
            for (page, version, bytes) in pages {
                install_prefetched(st, page, req_id, version, bytes);
            }
        }
        Payload::PageReply {
            page,
            req_id,
            version,
            bytes,
        } => {
            if let Some((version, bytes)) = st.deposit_page(req_id, version, bytes) {
                install_prefetched(st, page, req_id, version, bytes);
            }
        }
        Payload::RecLogReq => {
            let reply = build_rec_log_reply(st, from);
            st.send(from, reply);
        }
        Payload::RecPageReq { page, tckp } => {
            serve_rec_page(st, from, page, tckp);
        }
        Payload::RecDiffReq { page } => {
            // Cloning a diff log is cheap now: each entry is an Arc bump
            // plus a vector-clock clone, never a run-payload copy.
            let entries = st
                .ft
                .as_ref()
                .and_then(|ft| ft.logs.diffs.get(&page).cloned())
                .unwrap_or_default();
            st.send(from, Payload::RecDiffReply { page, entries });
        }
        // Replies to *our* recovery arriving after we already went live are
        // stale duplicates.
        Payload::RecLogReply { .. }
        | Payload::RecPageReply { .. }
        | Payload::RecDiffReply { .. } => {}
    }
}

/// Replay messages that were deferred because they referenced pages this
/// node had not allocated yet (called after every allocation).
pub(crate) fn drain_unalloc(st: &mut NodeState) {
    if st.pending_unalloc.is_empty() {
        return;
    }
    let pending = std::mem::take(&mut st.pending_unalloc);
    for (from, payload) in pending {
        handle_msg(st, from, payload);
    }
}

/// A crashed peer restarted: re-issue lost forwards and retransmit whatever
/// request our application thread is blocked on against that peer.
pub(crate) fn handle_node_up(st: &mut NodeState, node: ProcId) {
    let actions = st.sync.lock().lock_mgr.on_node_up(node);
    for a in actions {
        dispatch_lock_action(st, a);
    }
    // Re-issue in-flight prefetch batches the restarted home lost, grouped
    // back into their original batches (the needed versions are re-read:
    // they may have advanced, and the install gate checks coverage anyway).
    let mut groups: HashMap<u64, Vec<(PageId, VectorClock)>> = HashMap::new();
    for (&page, e) in &st.prefetch {
        if e.home == node {
            let needed = st.pt.remote_meta(page).needed.clone();
            groups
                .entry(e.req_id)
                .or_default()
                .push((page, fetch_needed(st, page, needed)));
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|(req_id, _)| *req_id);
    for (req_id, mut pages) in groups {
        pages.sort_unstable_by_key(|(p, _)| p.0);
        st.send(node, Payload::PageBatchReq { pages, req_id });
    }
    if let Some((to, req)) = peer_request(st) {
        if to == node {
            st.send(to, req);
        }
    }
}

/// Handle an event under the big lock: mode routing, then [`handle_msg`]
/// in Normal mode. Returns the kind and the handler time, which excludes
/// the wait for the lock.
fn under_big_lock(shared: &NodeShared, ev: Event<Msg>) -> Option<(&'static str, Duration)> {
    let kind: &'static str = match &ev {
        Event::NodeUp { .. } => "NodeUp",
        Event::Wakeup => return None,
        Event::Msg { msg, .. } => msg.payload.kind(),
    };
    let mut st = shared.state.lock();
    let t0 = Instant::now();
    match ev {
        Event::Wakeup => unreachable!(),
        Event::NodeUp { node } => match st.mode {
            Mode::Normal => handle_node_up(&mut st, node),
            // Single-fault model: no other node can restart while we are
            // crashed or recovering.
            Mode::Crashed | Mode::Recovering => {}
        },
        Event::Msg { from, msg } => {
            if st.mode != Mode::Crashed {
                if let (Some(p), true) = (&msg.piggy, st.ft.is_some()) {
                    st.ft.as_mut().unwrap().absorb_piggy(from, p);
                }
            }
            match st.mode {
                Mode::Crashed => {}
                Mode::Recovering => match msg.payload {
                    Payload::RecLogReply { .. }
                    | Payload::RecPageReply { .. }
                    | Payload::RecDiffReply { .. } => {
                        st.rec_inbox.push((from, msg.payload));
                    }
                    other => st.backlog.push((from, other)),
                },
                Mode::Normal => {
                    // Everything the handler sends is causally parented on
                    // the message being handled.
                    st.cur_flow = msg.ctx.flow_id();
                    handle_msg(&mut st, from, msg.payload);
                    st.cur_flow = 0;
                }
            }
        }
    }
    let dt = t0.elapsed();
    drop(st);
    shared.cv.notify_all();
    Some((kind, dt))
}

/// Serve one protocol message. A home/sync kind in Normal mode goes
/// through its handler without the big lock, and its replies go out
/// before the big lock is touched at all; the lock is taken afterwards
/// only to absorb a piggyback, finish a grant from this node, or re-route
/// a deferred message. Every other message is handled under the big lock.
fn serve_msg(
    shared: &NodeShared,
    cx: &HomeCtx,
    ep: &Endpoint<Msg>,
    hists: &mut LatencyHists,
    from: ProcId,
    msg: Msg,
) -> Option<(&'static str, Duration)> {
    let t0 = Instant::now();
    let served = if cx.live() {
        cx.serve(hists, from, &msg.payload)
    } else {
        None
    };
    let Some(s) = served else {
        return under_big_lock(shared, Event::Msg { from, msg });
    };
    let kind = msg.payload.kind();
    // Replies are parented on the request's flow so the exporter can
    // stitch request → reply across nodes (0 when tracing is off).
    let in_flow = msg.ctx.flow_id();
    send_bare(ep, s.replies, in_flow);
    let mut dt = t0.elapsed();
    if s.defer {
        return under_big_lock(shared, Event::Msg { from, msg }).map(|(k, d)| (k, d + dt));
    }
    // A diff application can satisfy a blocked access to a homed page.
    let wakes = matches!(msg.payload, Payload::DiffBatch { .. });
    if msg.piggy.is_some() || s.grant_self.is_some() || wakes {
        // Taking the lock also pairs with the app thread's
        // check-predicate-then-wait: without it a waiter between its check
        // and `cv.wait` would miss the notification below.
        let mut st = shared.state.lock();
        let t1 = Instant::now();
        if st.mode != Mode::Crashed {
            if let (Some(p), Some(ft)) = (&msg.piggy, st.ft.as_mut()) {
                ft.absorb_piggy(from, p);
            }
        }
        // A crash slipped in between the sync-lock decision and here: drop
        // the grant. Recovery resets the manager state and the requester
        // retransmits on NodeUp.
        if let (Some(a), Mode::Normal) = (s.grant_self, st.mode) {
            st.cur_flow = in_flow;
            dispatch_lock_action(&mut st, a);
            st.cur_flow = 0;
        }
        dt += t1.elapsed();
        drop(st);
        if wakes {
            shared.cv.notify_all();
        }
    }
    Some((kind, dt))
}

/// Handle a membership message with the detector alone: it must not wait
/// on the big lock (the application thread holds it while computing, and a
/// stalled Pong looks like a dead node to the peer). A crashed node's input
/// is already cut off at the fabric; the mode check just fences the drain
/// race.
fn serve_member(
    shared: &NodeShared,
    cx: &HomeCtx,
    ep: &Endpoint<Msg>,
    mr: Option<&MemberRuntime>,
    from: ProcId,
    w: dsm_member::Wire,
) -> Option<Duration> {
    let mr = mr?;
    if cx.mode_flag.load(Ordering::SeqCst) == Mode::Crashed.flag() {
        return None;
    }
    let t0 = Instant::now();
    let actions = mr.det.lock().on_msg(from, w, Instant::now());
    apply_member_actions(shared, ep, &cx.tracer, mr, actions);
    Some(t0.elapsed())
}

/// The service loop: one per node, owns message receipt.
///
/// Blocks on the endpoint — no polling; [`Endpoint::wake`] posts an
/// [`Event::Wakeup`] when the shutdown flag needs re-checking. Service
/// time is accounted in one place, per message kind, in loop locals (the
/// point of the handlers is not to touch the big lock), and folded into
/// the node state at exit — teardown joins service threads before
/// collecting reports.
pub(crate) fn service_loop(shared: Arc<NodeShared>) {
    let (cx, ep, member) = {
        let st = shared.state.lock();
        (HomeCtx::of(&st), Arc::clone(&st.ep), st.member.clone())
    };
    let mut svc_time: HashMap<&'static str, Duration> = HashMap::new();
    let mut hists = LatencyHists::default();
    // Loop until the fabric disconnects (recv returns None) or shutdown.
    while let Some(ev) = ep.recv() {
        let timed = match ev {
            Event::Wakeup => {
                if shared.state.lock().shutdown {
                    break;
                }
                None
            }
            Event::Msg { from, msg } => match msg.payload {
                Payload::Member(w) => {
                    let kind = w.kind();
                    serve_member(&shared, &cx, &ep, member.as_deref(), from, w).map(|dt| (kind, dt))
                }
                _ => serve_msg(&shared, &cx, &ep, &mut hists, from, msg),
            },
            ev @ Event::NodeUp { .. } => under_big_lock(&shared, ev),
        };
        if let Some((kind, dt)) = timed {
            *svc_time.entry(kind).or_default() += dt;
        }
    }
    let mut st = shared.state.lock();
    for (k, d) in svc_time {
        *st.svc_time_by_kind.entry(k).or_default() += d;
    }
    st.hists.merge(&hists);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtConfig;
    use crate::ft::FtState;
    use dsm_net::Fabric;
    use dsm_storage::{DiskModel, StableStore};

    fn test_state(me: ProcId, n: usize, ft: bool) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let mut eps: Vec<Arc<Endpoint<Msg>>> = endpoints.into_iter().map(Arc::new).collect();
        let ep = Arc::clone(&eps[me]);
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let st = NodeState {
            me,
            n,
            page_size: 256,
            mode: Mode::Normal,
            mode_flag: Arc::new(AtomicU8::new(Mode::Normal.flag())),
            pt: PageTable::new(me, n, 256),
            vt: VectorClock::zero(n),
            wn_table: WnTable::new(),
            sync: Arc::new(Mutex::new(SyncState {
                lock_mgr: LockManagerTable::new(me),
                bar_mgr: (me == 0).then(|| BarrierManager::new(n)),
            })),
            held: Default::default(),
            tenure: Default::default(),
            tenure_gen: Default::default(),
            last_release_vt: Default::default(),
            pending_grants: Default::default(),
            lock_chain_info: Default::default(),
            wait: WaitSlot::None,
            rec_inbox: Vec::new(),
            backlog: Vec::new(),
            pending_unalloc: Vec::new(),
            prefetch: HashMap::new(),
            acq_seq_next: 0,
            bar_episode: 0,
            req_id_next: 0,
            wn_since_barrier: Vec::new(),
            shared_bytes: 0,
            alloc_cursor: 0,
            ft: ft.then(|| FtState::new(me, n, FtConfig::default(), store)),
            replay: None,
            svc_time_by_kind: HashMap::new(),
            shutdown: false,
            ops: 0,
            crash_queue: Vec::new(),
            recoveries: 0,
            ep,
            member: None,
            retry_after: None,
            retransmits: 0,
            dup_suppressed: 0,
            diff_outbox: (0..n).map(|_| VecDeque::new()).collect(),
            diff_inflight: vec![None; n],
            diff_seq_next: 0,
            own_diff_seq: HashMap::new(),
            breakdown_acc: Default::default(),
            tracer: NodeTracer::disabled(),
            hists: Default::default(),
            cur_flow: 0,
            inject_stale_apply: None,
        };
        eps.remove(me);
        (st, eps)
    }

    #[test]
    fn forward_behind_released_tenure_grants_immediately() {
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, true)); // our acquisition #4, released
        st.last_release_vt
            .insert(9, VectorClock::from_vec(vec![2, 0, 0]));
        handle_forward(&mut st, 9, 1, 0, 10, 4, VectorClock::zero(3));
        assert!(
            st.pending_grants.is_empty(),
            "released tenure must grant now"
        );
    }

    #[test]
    fn forward_behind_unreleased_tenure_queues() {
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, false)); // still holding acquisition #4
        st.held.insert(9);
        handle_forward(&mut st, 9, 1, 0, 10, 4, VectorClock::zero(3));
        assert_eq!(st.pending_grants[&9].len(), 1);
        assert_eq!(st.pending_grants[&9][0].pred_acq, 4);
    }

    #[test]
    fn forward_behind_in_flight_acquire_queues() {
        // The grant for our own acquisition #5 has not arrived yet, but the
        // manager already chained a requester behind it.
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, true));
        st.wait = WaitSlot::Lock {
            lock: 9,
            acq_seq: 5,
            manager: 1,
            req_vt: VectorClock::zero(3),
            grant: None,
        };
        handle_forward(&mut st, 9, 2, 0, 11, 5, VectorClock::zero(3));
        assert_eq!(
            st.pending_grants[&9].len(),
            1,
            "in-flight tenure must queue"
        );
    }

    #[test]
    fn chain_start_forward_always_grants() {
        let (mut st, _eps) = test_state(0, 3, false);
        handle_forward(&mut st, 9, 1, 0, 1, u64::MAX, VectorClock::zero(3));
        assert!(st.pending_grants.is_empty());
    }

    #[test]
    fn forward_retransmission_replays_logged_grant() {
        let (mut st, _eps) = test_state(0, 3, true);
        st.last_release_vt
            .insert(9, VectorClock::from_vec(vec![3, 0, 0]));
        st.tenure.insert(9, (0, true));
        // First forward: grants and logs.
        handle_forward(&mut st, 9, 1, 7, 10, 0, VectorClock::zero(3));
        let logged = st
            .ft
            .as_ref()
            .unwrap()
            .logs
            .find_rel(1, 7)
            .cloned()
            .unwrap();
        // Retransmission (zero-length vt, as after a crash): identical grant
        // from the log, no new rel entry.
        handle_forward(&mut st, 9, 1, 7, 10, 0, VectorClock::zero(0));
        let ft = st.ft.as_ref().unwrap();
        assert_eq!(ft.logs.rel[1].len(), 1);
        assert_eq!(ft.logs.find_rel(1, 7).unwrap(), &logged);
    }

    #[test]
    fn deposits_match_only_the_waited_for_slot() {
        let (mut st, _eps) = test_state(1, 3, false);
        st.wait = WaitSlot::Page {
            page: PageId(3),
            req_id: 42,
            home: 0,
            needed: VectorClock::zero(3),
            reply: None,
        };
        // Stale reply for an older request id is dropped.
        st.deposit_page(41, VectorClock::zero(3), vec![0; 256].into());
        if let WaitSlot::Page { reply, .. } = &st.wait {
            assert!(reply.is_none());
        }
        st.deposit_page(42, VectorClock::zero(3), vec![0; 256].into());
        if let WaitSlot::Page { reply, .. } = &st.wait {
            assert!(reply.is_some());
        } else {
            panic!("slot vanished");
        }
    }

    #[test]
    fn piggyback_is_attached_only_when_it_carries_news() {
        let (mut st, _eps) = test_state(0, 2, true);
        // Fresh FT state advertises checkpoint 0 once.
        let first = st.make_piggy(1, false);
        assert!(first.is_some());
        let second = st.make_piggy(1, false);
        assert!(second.is_none(), "no news: no piggyback");
        // A gossip request always produces one (even without news) when the
        // table would be empty it still returns None though:
        let gossip = st.make_piggy(1, true);
        assert!(gossip.is_none(), "empty gossip table carries no news");
        // After a checkpoint-sequence bump, news flows again.
        st.ft.as_mut().unwrap().ckpt_seq = 1;
        assert!(st.make_piggy(1, false).is_some());
    }

    /// The next message node 1 (endpoint `eps[0]`) receives, waiting up to
    /// five seconds.
    fn next_payload(ep: &Endpoint<Msg>) -> Payload {
        match ep.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Msg { msg, .. }) => {
                assert!(msg.piggy.is_none(), "handler replies go out bare");
                msg.payload
            }
            other => panic!("expected a message, got {other:?}"),
        }
    }

    #[test]
    fn messages_for_unallocated_pages_are_deferred() {
        let (mut st, eps) = test_state(0, 2, false);
        handle_msg(
            &mut st,
            1,
            Payload::PageReq {
                page: PageId(5),
                needed: VectorClock::zero(2),
                req_id: 0,
            },
        );
        // The handler never ran: the home store has no page 5 yet.
        assert_eq!(st.pending_unalloc.len(), 1);
        assert!(eps[0].try_recv().is_none());
        for _ in 0..6 {
            st.pt.add_page(0);
        }
        drain_unalloc(&mut st);
        assert!(st.pending_unalloc.is_empty());
        // The replay reached the same handler, which answered at once (page
        // 5 exists, zero version satisfies): nothing stays parked.
        match next_payload(&eps[0]) {
            Payload::PageReply { page, req_id, .. } => assert_eq!((page, req_id), (PageId(5), 0)),
            other => panic!("expected PageReply, got {}", other.kind()),
        }
        assert!(st.pt.home_store().drain_ready().is_empty());
    }

    #[test]
    fn batch_req_serves_ready_pages_and_parks_the_rest() {
        let (mut st, eps) = test_state(0, 2, false);
        for _ in 0..3 {
            st.pt.add_page(0);
        }
        let gated = {
            let mut v = VectorClock::zero(2);
            v.set(1, 1);
            v
        };
        handle_msg(
            &mut st,
            1,
            Payload::PageBatchReq {
                pages: vec![
                    (PageId(0), VectorClock::zero(2)),
                    (PageId(1), gated),
                    (PageId(2), VectorClock::zero(2)),
                ],
                req_id: 9,
            },
        );
        // Pages 0 and 2 came back in one batched reply; page 1 is parked.
        match next_payload(&eps[0]) {
            Payload::PageBatchReply { req_id, pages } => {
                assert_eq!(req_id, 9);
                let ids: Vec<_> = pages.iter().map(|(p, _, _)| *p).collect();
                assert_eq!(ids, vec![PageId(0), PageId(2)]);
            }
            other => panic!("expected PageBatchReply, got {}", other.kind()),
        }
        assert!(st.pt.home_store().drain_ready().is_empty());
        // A diff batch covering page 1 unparks it: the same handler that
        // applies the diff answers it individually under the batch's
        // req_id, then acks the batch.
        let twin = dsm_page::Page::zeroed(256);
        let mut cur = twin.clone();
        cur.write(0, &[1]);
        let iv = dsm_page::Interval { proc: 1, seq: 1 };
        let diff = Diff::create(PageId(1), iv, &twin, &cur).unwrap();
        handle_msg(
            &mut st,
            1,
            Payload::DiffBatch {
                seq: 4,
                diffs: vec![Arc::new(diff)],
            },
        );
        match next_payload(&eps[0]) {
            Payload::PageReply { page, req_id, .. } => assert_eq!((page, req_id), (PageId(1), 9)),
            other => panic!("expected PageReply, got {}", other.kind()),
        }
        assert!(matches!(next_payload(&eps[0]), Payload::DiffAck { seq: 4 }));
    }

    /// Run node 0's service loop over `st` on its own thread.
    fn spawn_service(st: NodeState) -> (Arc<NodeShared>, std::thread::JoinHandle<()>) {
        let shared = Arc::new(NodeShared {
            state: Mutex::new(st),
            cv: Condvar::new(),
            me: 0,
            n: 2,
        });
        let svc = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || service_loop(shared))
        };
        (shared, svc)
    }

    fn stop_service(shared: &NodeShared, svc: std::thread::JoinHandle<()>) {
        {
            let mut st = shared.state.lock();
            st.shutdown = true;
            st.ep.wake();
        }
        svc.join().unwrap();
    }

    #[test]
    fn service_loop_answers_a_piggybacked_page_req_while_the_big_lock_is_held() {
        let (mut st, eps) = test_state(0, 2, true);
        st.pt.add_page(0);
        let (shared, svc) = spawn_service(st);
        let piggy = Piggy {
            tckp: VectorClock::zero(2),
            ckpt_seq: 3,
            ckpt_episode: 1,
            p0v: Vec::new(),
            table: Vec::new(),
        };
        let req = |req_id| Payload::PageReq {
            page: PageId(0),
            needed: VectorClock::zero(2),
            req_id,
        };
        let expect_reply = |want| match next_payload(&eps[0]) {
            Payload::PageReply { page, req_id, .. } => {
                assert_eq!((page, req_id), (PageId(0), want))
            }
            other => panic!("expected PageReply, got {}", other.kind()),
        };
        // A first answer shows the loop is past its start-up.
        eps[0].send(0, Msg::bare(req(6)));
        expect_reply(6);
        // The application thread computing under the big lock must not
        // stall the home's answer, piggyback or not.
        let app = shared.state.lock();
        eps[0].send(0, Msg::with_parent(req(7), Some(piggy), 0));
        expect_reply(7);
        drop(app);
        // The piggyback is absorbed once the big lock is free.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.state.lock().ft.as_ref().unwrap().peer_ckpt_seq[1] != 3 {
            assert!(Instant::now() < deadline, "piggyback never absorbed");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop_service(&shared, svc);
    }

    #[test]
    fn homed_read_with_a_diff_in_flight_blocks_until_the_diff_lands() {
        let (mut st, eps) = test_state(0, 2, false);
        st.pt.add_page(0);
        // An acquire brought node 1's write notice for interval 1; its diff
        // is still on the way.
        st.pt.invalidate(PageId(0), 1, 1);
        let (shared, svc) = spawn_service(st);
        let (tx, rx) = std::sync::mpsc::channel();
        let app = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut p = crate::runtime::process::Process::new(shared, false);
                let addr = dsm_page::Layout::new(256).page_base(PageId(0));
                tx.send(p.read::<u64>(addr)).unwrap();
            })
        };
        // The read's first chunk attempt runs in the same big-lock section
        // as its op count: once the count shows, the attempt is over.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.state.lock().ops == 0 {
            assert!(Instant::now() < deadline, "the read never started");
            std::thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "the read returned before the diff");
        let twin = dsm_page::Page::zeroed(256);
        let mut cur = twin.clone();
        cur.write(0, &42u64.to_le_bytes());
        let iv = dsm_page::Interval { proc: 1, seq: 1 };
        let diff = Diff::create(PageId(0), iv, &twin, &cur).unwrap();
        eps[0].send(
            0,
            Msg::bare(Payload::DiffBatch {
                seq: 1,
                diffs: vec![Arc::new(diff)],
            }),
        );
        let got = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(got, Ok(42), "the read returns the diff's bytes");
        app.join().unwrap();
        assert!(matches!(next_payload(&eps[0]), Payload::DiffAck { seq: 1 }));
        stop_service(&shared, svc);
    }

    #[test]
    fn checkpoint_waits_until_every_diff_batch_is_acked() {
        let (mut st, eps) = test_state(0, 2, true);
        st.retry_after = Some(Duration::from_millis(10));
        st.pt.add_page(1);
        let twin = dsm_page::Page::zeroed(256);
        let mut cur = twin.clone();
        cur.write(0, &[7]);
        let iv = dsm_page::Interval { proc: 0, seq: 1 };
        let diff = Diff::create(PageId(0), iv, &twin, &cur).unwrap();
        send_diff_batch(&mut st, 1, vec![Arc::new(diff)]);
        let (shared, svc) = spawn_service(st);
        let next_batch_seq = || match eps[0].recv_timeout(Duration::from_secs(5)) {
            Some(Event::Msg { msg, .. }) => match msg.payload {
                Payload::DiffBatch { seq, .. } => seq,
                other => panic!("expected DiffBatch, got {}", other.kind()),
            },
            other => panic!("expected a diff batch, got {other:?}"),
        };
        assert_eq!(next_batch_seq(), 1, "the original batch");
        let (tx, rx) = std::sync::mpsc::channel();
        let app = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut p = crate::runtime::process::Process::new(shared, false);
                p.request_checkpoint();
                p.run_steps(&mut (), 1, |_, _, _| {});
                tx.send(()).unwrap();
            })
        };
        // Only a blocked application-thread wait retransmits (no membership
        // ticker here): a resend proves the safe point is waiting for the ack.
        assert_eq!(next_batch_seq(), 1, "retransmitted while waiting");
        let ckpts =
            |shared: &NodeShared| shared.state.lock().ft.as_ref().unwrap().report.ckpts_taken;
        assert_eq!(ckpts(&shared), 0, "checkpoint taken over an unacked diff");
        assert!(rx.try_recv().is_err());
        eps[0].send(0, Msg::bare(Payload::DiffAck { seq: 1 }));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the ack releases the checkpoint");
        app.join().unwrap();
        assert_eq!(ckpts(&shared), 1);
        stop_service(&shared, svc);
    }

    #[test]
    fn prefetch_reply_installs_only_matching_and_still_needed_pages() {
        let (mut st, _eps) = test_state(1, 2, false);
        for _ in 0..2 {
            st.pt.add_page(0); // homed at node 0, remote here
        }
        st.prefetch
            .insert(PageId(0), PrefetchEntry { req_id: 5, home: 0 });
        st.prefetch
            .insert(PageId(1), PrefetchEntry { req_id: 5, home: 0 });
        // Stale req_id: dropped, entry kept.
        install_prefetched(
            &mut st,
            PageId(0),
            4,
            VectorClock::zero(2),
            vec![0u8; 256].into(),
        );
        assert!(st.prefetch.contains_key(&PageId(0)));
        // Matching req_id: installed, entry consumed.
        install_prefetched(
            &mut st,
            PageId(0),
            5,
            VectorClock::zero(2),
            vec![7u8; 256].into(),
        );
        assert!(!st.prefetch.contains_key(&PageId(0)));
        assert_eq!(st.pt.ensure_access(PageId(0)), hlrc::AccessOutcome::Ready);
        // Overtaken by a newer invalidation: entry consumed, page stays
        // invalid (a later touch fetches fresh).
        st.pt.invalidate(PageId(1), 0, 3);
        install_prefetched(
            &mut st,
            PageId(1),
            5,
            VectorClock::zero(2),
            vec![7u8; 256].into(),
        );
        assert!(!st.prefetch.contains_key(&PageId(1)));
        assert!(matches!(
            st.pt.ensure_access(PageId(1)),
            hlrc::AccessOutcome::NeedFetch { .. }
        ));
    }

    #[test]
    fn prefetch_issue_groups_pages_per_home_and_skips_tracked_ones() {
        let (mut st, _eps) = test_state(2, 3, false);
        st.pt.add_page(0); // page 0 at home 0
        st.pt.add_page(1); // page 1 at home 1
        st.pt.add_page(0); // page 2 at home 0
        st.pt.add_page(2); // page 3 homed here
        for p in [0u32, 1, 2] {
            st.pt.invalidate(PageId(p), 0, 1);
        }
        st.prefetch
            .insert(PageId(2), PrefetchEntry { req_id: 0, home: 0 });
        issue_prefetch(
            &mut st,
            &[PageId(0), PageId(1), PageId(2), PageId(3), PageId(0)],
        );
        // Page 2 already in flight, page 3 homed here, page 0 deduped:
        // one batch to home 0 (page 0) and one to home 1 (page 1).
        assert_eq!(st.prefetch.len(), 3);
        assert_eq!(st.prefetch[&PageId(0)].home, 0);
        assert_eq!(st.prefetch[&PageId(1)].home, 1);
        assert_eq!(st.prefetch[&PageId(2)].req_id, 0, "in-flight entry kept");
        assert_eq!(st.hists.fetch_batch_pages.count(), 2);
    }
}
