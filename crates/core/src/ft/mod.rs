//! Fault tolerance: logging, independent checkpointing, lazy log trimming
//! (LLT), checkpoint garbage collection (CGC), and recovery.

pub mod ckpt;
pub mod logs;
pub mod recovery;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_page::{elementwise_min, PageId, ProcId, VectorClock};
use dsm_storage::{SegmentKind, StableStore};
use dsm_trace::{EventKind, TrimRule};

use crate::config::{CkptPolicy, FtConfig};
use crate::msg::Piggy;
use crate::runtime::node::NodeState;
use crate::stats::FtReport;
use ckpt::CheckpointBlob;
use logs::VolatileLogs;

/// In-memory index of one retained past checkpoint: which version of each
/// homed page it holds (drives Rule 3's CGC and the `p0.v` piggyback).
/// With incremental checkpoints, `versions` is the *accumulated* map over
/// the chain `anchor_seq..=seq` — the full page state the checkpoint
/// logically represents, even when its blob on disk is a delta — so every
/// consumer (CGC coverage, `cover_version`, the `p0` server) keeps working
/// on complete maps.
#[derive(Debug, Clone)]
pub(crate) struct RetainedCkpt {
    pub seq: u64,
    /// The full anchor this checkpoint's chain starts at (`== seq` for a
    /// full checkpoint). Serving its pages needs every blob in
    /// `anchor_seq..=seq`, which CGC therefore keeps together.
    pub anchor_seq: u64,
    pub versions: HashMap<PageId, VectorClock>,
}

/// Per-node fault-tolerance state.
pub(crate) struct FtState {
    pub cfg: FtConfig,
    pub logs: VolatileLogs,
    pub store: Arc<StableStore>,
    /// Last known checkpoint timestamp of every process (self kept exact).
    pub tckp: Vec<VectorClock>,
    /// Last known checkpoint sequence number per process.
    pub peer_ckpt_seq: Vec<u64>,
    /// Last known checkpointed barrier-episode count per process.
    pub peer_ckpt_episode: Vec<u64>,
    /// This node's checkpoint count.
    pub ckpt_seq: u64,
    /// This node's restart-checkpoint timestamp.
    pub last_ckpt_vt: VectorClock,
    /// Barrier episodes crossed at the last checkpoint.
    pub last_ckpt_episode: u64,
    /// Own interval sequence at the last barrier arrival.
    pub last_bar_arrive_seq: u32,
    /// Sequence number of this node's last full (anchor) checkpoint; zero
    /// before the first. The next delta chains onto it.
    pub last_anchor_seq: u64,
    /// Learned `p0.v[me]` per remote-homed page this node writes (LLT).
    pub p0v_known: HashMap<PageId, u32>,
    /// Retained checkpoint window, oldest first.
    pub retained: Vec<RetainedCkpt>,
    /// Round-robin cursor over homed pages for the `p0.v` piggyback.
    pub piggy_cursor: usize,
    /// Own checkpoint sequence last advertised to each peer (a piggyback is
    /// only attached when it carries news).
    pub piggy_sent: Vec<u64>,
    /// Largest `p0.v[writer]` hint already sent per (page, writer).
    pub p0v_sent: HashMap<(PageId, ProcId), u32>,
    /// Latched "checkpoint at next safe point" flag.
    pub ckpt_due: bool,
    /// Statistics.
    pub report: FtReport,
}

impl FtState {
    pub(crate) fn new(me: ProcId, n: usize, cfg: FtConfig, store: Arc<StableStore>) -> Self {
        FtState {
            cfg,
            logs: VolatileLogs::new(me, n),
            store,
            tckp: vec![VectorClock::zero(n); n],
            peer_ckpt_seq: vec![0; n],
            peer_ckpt_episode: vec![0; n],
            ckpt_seq: 0,
            last_ckpt_vt: VectorClock::zero(n),
            last_ckpt_episode: 0,
            last_bar_arrive_seq: 0,
            last_anchor_seq: 0,
            p0v_known: HashMap::new(),
            retained: Vec::new(),
            piggy_cursor: 0,
            piggy_sent: vec![u64::MAX; n],
            p0v_sent: HashMap::new(),
            ckpt_due: false,
            report: FtReport::default(),
        }
    }

    /// Merge a received piggyback.
    pub(crate) fn absorb_piggy(&mut self, from: ProcId, piggy: &Piggy) {
        if piggy.ckpt_seq > self.peer_ckpt_seq[from] {
            self.peer_ckpt_seq[from] = piggy.ckpt_seq;
            self.peer_ckpt_episode[from] = piggy.ckpt_episode;
            self.tckp[from] = piggy.tckp.clone();
        }
        for &(page, v) in &piggy.p0v {
            let e = self.p0v_known.entry(page).or_insert(0);
            if v > *e {
                *e = v;
            }
        }
        for (proc_, seq, episode, tckp) in &piggy.table {
            if *seq != u64::MAX && *seq > self.peer_ckpt_seq[*proc_] {
                self.peer_ckpt_seq[*proc_] = *seq;
                self.peer_ckpt_episode[*proc_] = *episode;
                self.tckp[*proc_] = tckp.clone();
            }
        }
    }

    /// The gossip table: everything this node knows about everyone's last
    /// checkpoint (attached to barrier releases).
    pub(crate) fn gossip_table(&self, me: ProcId) -> Vec<(ProcId, u64, u64, VectorClock)> {
        (0..self.tckp.len())
            .filter(|&j| j != me && self.peer_ckpt_seq[j] > 0)
            .map(|j| {
                (
                    j,
                    self.peer_ckpt_seq[j],
                    self.peer_ckpt_episode[j],
                    self.tckp[j].clone(),
                )
            })
            .collect()
    }

    /// Evaluate the checkpoint policy at a synchronization point.
    pub(crate) fn policy_check_sync(&mut self, shared_footprint: u64) {
        if let CkptPolicy::LogOverflow { l } = self.cfg.policy {
            let limit = (l * shared_footprint as f64) as u64;
            if shared_footprint > 0 && self.logs.volatile_bytes() > limit {
                self.ckpt_due = true;
            }
        }
    }

    /// Evaluate the checkpoint policy after crossing barrier `episode`.
    pub(crate) fn policy_check_barrier(&mut self, episode: u64) {
        if let CkptPolicy::AtBarrier(k) = self.cfg.policy {
            if k > 0 && (episode + 1).is_multiple_of(k) {
                self.ckpt_due = true;
            }
        }
    }

    /// Should a checkpoint be taken at this safe point (step boundary)?
    pub(crate) fn ckpt_due_at_step(&mut self, step: u64) -> bool {
        match self.cfg.policy {
            CkptPolicy::LogOverflow { .. } | CkptPolicy::Manual | CkptPolicy::AtBarrier(_) => {
                self.ckpt_due
            }
            CkptPolicy::EverySteps(k) => {
                self.ckpt_due || (k > 0 && step > 0 && step.is_multiple_of(k))
            }
            CkptPolicy::Never => false,
        }
    }

    /// `Tmin = min_{j != me} T^j_ckp` (Rule 3).
    pub(crate) fn tmin_peers(&self, me: ProcId) -> Option<VectorClock> {
        elementwise_min(
            self.tckp
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != me)
                .map(|(_, v)| v),
        )
    }

    /// The version of `page` in the oldest retained checkpoint — the `p0.v`
    /// the CGC rule pins, which bounds every writer's diff log — but only
    /// when `Tmin` covers it. Otherwise some peer's recovery may need to
    /// start from the virtual initial (zero) copy, so no diff may be
    /// trimmed and nothing is advertised.
    pub(crate) fn cover_version(&self, me: ProcId, page: PageId) -> Option<VectorClock> {
        let tmin = self.tmin_peers(me)?;
        let v = self.retained.first().and_then(|c| c.versions.get(&page))?;
        tmin.covers(v).then(|| v.clone())
    }
}

/// Take an independent checkpoint on the application thread.
///
/// `app_state` is the encoded private state at step `step`. Returns the
/// (logging/trimming time, modeled disk time) pair for the breakdown.
///
/// The caller has flushed the current interval (so the checkpoint has no
/// twins and the saved diff logs include everything up to `T_ckp`) and
/// waited until every diff batch reached its home.
pub(crate) fn take_checkpoint(
    st: &mut NodeState,
    step: u64,
    app_state: Vec<u8>,
) -> (Duration, Duration) {
    debug_assert!(!st.pt.has_writes(), "checkpoint over unflushed twins");
    let me = st.me;
    let n = st.n;
    let tckp = st.vt.clone();
    let tracing = st.tracer.enabled();
    let t_ckpt = Instant::now();
    if tracing {
        let seq = st.ft.as_ref().map_or(0, |ft| ft.ckpt_seq + 1);
        st.tracer.emit(EventKind::CkptBegin { seq });
    }
    let t_log = Instant::now();

    // --- full anchor or delta? ---------------------------------------------
    let (anchor_every, seq, last_anchor) = {
        let ft = st.ft.as_ref().expect("checkpoint without FT enabled");
        (ft.cfg.anchor_every, ft.ckpt_seq + 1, ft.last_anchor_seq)
    };
    let incremental = anchor_every > 1;
    // A delta needs an anchor to chain onto and a chain still shorter than
    // `anchor_every` (chain length counts the anchor, so `anchor_every: 8`
    // writes one full blob per seven deltas).
    let is_delta = incremental && last_anchor > 0 && seq - last_anchor < anchor_every;

    // --- assemble the blob -------------------------------------------------
    // Incremental mode drains the checkpoint-dirty set at *every*
    // checkpoint (anchors clear it too, so the next delta starts from this
    // moment); full mode never pays the scan. A delta saves only the dirty
    // pages — the pages whose home copy changed since the last checkpoint.
    let ckpt_pages = if incremental {
        let dirty = st.pt.take_ckpt_dirty();
        if is_delta {
            dirty
        } else {
            st.pt.homed_pages()
        }
    } else {
        st.pt.homed_pages()
    };
    let mut home_pages = Vec::with_capacity(ckpt_pages.len());
    for &p in &ckpt_pages {
        let (version, bytes) = st.pt.home_snapshot(p);
        home_pages.push((p, version, bytes.to_vec()));
    }
    let ckpt_page_count = home_pages.len();
    let ft = st.ft.as_mut().expect("checkpoint without FT enabled");
    // The retained index always carries the checkpoint's *accumulated*
    // page-version map (chain state, not blob contents), so CGC and the
    // `p0.v` piggyback keep seeing complete maps.
    let mut versions = if is_delta {
        ft.retained
            .last()
            .expect("delta checkpoint without a predecessor")
            .versions
            .clone()
    } else {
        HashMap::with_capacity(home_pages.len())
    };
    for (p, v, _) in &home_pages {
        versions.insert(*p, v.clone());
    }
    let blob = CheckpointBlob {
        seq,
        delta: is_delta,
        base_seq: if is_delta { seq - 1 } else { 0 },
        tckp: tckp.clone(),
        bar_episode: st.bar_episode,
        acq_seq_next: st.acq_seq_next,
        last_bar_arrive_seq: ft.last_bar_arrive_seq,
        step,
        app_state,
        needed: st.pt.needed_triples(),
        tenures: st
            .tenure
            .iter()
            .map(|(&l, &(a, r))| (l, a, st.tenure_gen.get(&l).copied().unwrap_or(0), r))
            .collect(),
        last_release_vts: st
            .last_release_vt
            .iter()
            .map(|(l, v)| (*l, v.clone()))
            .collect(),
        home_pages,
    };

    // --- trim logs (LLT + Rules 1/2 + barrier analogue) --------------------
    // When tracing, sample the volatile log size around each rule so every
    // `LogTrim` event carries the bytes that rule actually freed.
    let mut vb = if tracing { ft.logs.volatile_bytes() } else { 0 };
    let mut note_trim = |ft: &FtState, tracer: &dsm_trace::NodeTracer, rule: TrimRule| {
        if !tracing {
            return;
        }
        let now = ft.logs.volatile_bytes();
        if now < vb {
            tracer.emit(EventKind::LogTrim {
                rule,
                bytes: vb - now,
            });
        }
        vb = now;
    };
    // Rule 1 bound: min over peers of their checkpointed knowledge of us.
    let rule1_bound = (0..n)
        .filter(|&j| j != me)
        .map(|j| ft.tckp[j].get(me))
        .min()
        .unwrap_or(0);
    ft.logs.trim_rule1(rule1_bound);
    note_trim(ft, &st.tracer, TrimRule::Rule1);
    let tckp_table: Vec<VectorClock> = ft.tckp.clone();
    ft.logs.trim_rule2(&tckp_table, &tckp);
    note_trim(ft, &st.tracer, TrimRule::Rule2);
    // Rule 3 for remote-homed pages uses lazily learned p0.v; for our own
    // homed pages we know the oldest retained copy exactly — gated, like
    // the piggyback, on Tmin covering it (otherwise a peer may need to
    // start from the virtual zero copy and every diff must stay).
    let mut p0v = ft.p0v_known.clone();
    if let Some(tmin) = ft.tmin_peers(me) {
        if let Some(oldest) = ft.retained.first() {
            for (page, v) in &oldest.versions {
                if tmin.covers(v) {
                    p0v.insert(*page, v.get(me));
                }
            }
        }
    }
    ft.logs.trim_rule3(&p0v);
    note_trim(ft, &st.tracer, TrimRule::Rule3);
    let min_ckpt_episode = {
        let own = st.bar_episode;
        (0..n)
            .filter(|&j| j != me)
            .map(|j| ft.peer_ckpt_episode[j])
            .chain(std::iter::once(own))
            .min()
            .unwrap_or(0)
    };
    ft.logs.trim_bar(min_ckpt_episode);
    note_trim(ft, &st.tracer, TrimRule::Barrier);
    // A delta checkpoint saves only the never-saved log entries (the
    // filter reads the `saved` flags, so this must precede `mark_saved`);
    // an anchor rewrites the whole save and retires the delta segments.
    let log_blob = if is_delta {
        ft.logs.encode_stable_delta()
    } else {
        ft.logs.encode_stable()
    };
    let logging_time = t_log.elapsed();

    // --- write to stable storage -------------------------------------------
    let encoded = blob.encode();
    let ckpt_bytes = (encoded.len() + log_blob.len()) as u64;
    let d1 = ft
        .store
        .write_segment(SegmentKind::Checkpoint, seq, encoded);
    ft.report.log_bytes_saved += ft.logs.mark_saved();
    let d2 = if is_delta {
        ft.store.write_segment(SegmentKind::Log, seq, log_blob)
    } else {
        let d = ft.store.write_segment(SegmentKind::Log, 0, log_blob);
        // The full save subsumes every delta segment; recovery reads
        // (Log, 0) plus the deltas written after it.
        for id in ft.store.segment_ids(SegmentKind::Log) {
            if id != 0 {
                ft.store.delete_segment(SegmentKind::Log, id);
            }
        }
        d
    };
    let disk_time = d1 + d2;

    // --- update window and run CGC ------------------------------------------
    // Exact per-peer retention (a refinement of Rule 3's window): keep, for
    // every peer j, the newest retained copy whose versions j's restart
    // checkpoint covers (j's maximal starting copy), plus the latest
    // checkpoint. A peer with no covered copy recovers from the virtual
    // initial zero copy, which is always available — in that case the
    // `p0.v` piggyback is suppressed (see `cover_version`) so writers keep
    // every diff.
    ft.retained.push(RetainedCkpt {
        seq,
        anchor_seq: if is_delta { last_anchor } else { seq },
        versions,
    });
    if !is_delta {
        ft.last_anchor_seq = seq;
    }
    {
        let last = ft.retained.len() - 1;
        let mut needed = vec![false; ft.retained.len()];
        needed[last] = true;
        for j in (0..n).filter(|&j| j != me) {
            let mut found = None;
            for (k, rc) in ft.retained.iter().enumerate() {
                // Page versions are monotone in checkpoint order, so the
                // covered prefix is contiguous.
                if rc.versions.values().all(|v| ft.tckp[j].covers(v)) {
                    found = Some(k);
                } else {
                    break;
                }
            }
            if let Some(k) = found {
                needed[k] = true;
            }
        }
        // Chain closure: serving a delta checkpoint's pages walks every
        // blob in `anchor_seq..=seq`, so a kept checkpoint pins its whole
        // chain prefix (full checkpoints pin only themselves).
        let kept_ranges: Vec<(u64, u64)> = ft
            .retained
            .iter()
            .zip(&needed)
            .filter(|(_, &keep)| keep)
            .map(|(rc, _)| (rc.anchor_seq, rc.seq))
            .collect();
        for (k, rc) in ft.retained.iter().enumerate() {
            if kept_ranges.iter().any(|&(a, s)| a <= rc.seq && rc.seq <= s) {
                needed[k] = true;
            }
        }
        let mut k = 0;
        let store = Arc::clone(&ft.store);
        let tracer = st.tracer.clone();
        ft.retained.retain(|rc| {
            let keep = needed[k];
            if !keep {
                if tracing {
                    let bytes = store
                        .segment_len(SegmentKind::Checkpoint, rc.seq)
                        .unwrap_or(0);
                    tracer.emit(EventKind::CgcDiscard { seq: rc.seq, bytes });
                }
                store.delete_segment(SegmentKind::Checkpoint, rc.seq);
            }
            k += 1;
            keep
        });
    }

    // --- bookkeeping and statistics ------------------------------------------
    ft.ckpt_seq = seq;
    ft.piggy_sent = vec![u64::MAX; n];
    ft.last_ckpt_vt = tckp;
    ft.last_ckpt_episode = st.bar_episode;
    ft.ckpt_due = false;
    ft.report.ckpts_taken += 1;
    ft.report.delta_ckpts += is_delta as u64;
    ft.report.max_ckpt_window = ft.report.max_ckpt_window.max(ft.retained.len());
    let live_log = ft.store.live_bytes(SegmentKind::Log);
    ft.report.max_stable_log_bytes = ft.report.max_stable_log_bytes.max(live_log);
    ft.report.stable_log_curve.push((seq, live_log));
    ft.report.log_counters = ft.logs.counters();

    // Bound the write-notice table: every process has checkpointed past the
    // elementwise minimum of the checkpoint timestamps, so no future grant
    // or recovery can need notices at or below it.
    let mut all_tckp = ft.tckp.clone();
    all_tckp[me] = ft.last_ckpt_vt.clone();
    if let Some(bound) = elementwise_min(all_tckp.iter()) {
        st.wn_table.trim_covered_by(&bound);
    }

    if is_delta {
        // Pages a delta actually carried — the histogram the incremental
        // scheme is judged by (small deltas = small disk writes).
        st.hists.ckpt_delta_pages.record(ckpt_page_count as u64);
    }
    st.hists
        .ckpt_write
        .record(t_ckpt.elapsed().as_nanos() as u64);
    st.tracer.emit_span(
        EventKind::CkptEnd {
            seq,
            bytes: ckpt_bytes,
        },
        t_ckpt,
    );

    (logging_time, disk_time)
}
