//! Protocol messages.
//!
//! One message type covers the base HLRC protocol, the lazily piggybacked
//! LLT/CGC control data, and the recovery protocol. Base and piggyback byte
//! counts are reported separately (Table 2 measures their ratio).

use std::sync::Arc;

use dsm_page::{Diff, PageId, ProcId, VectorClock};
use dsm_trace::TraceCtx;
use hlrc::{LockId, WnDelta, WriteNotice};

use crate::ft::logs::{BarEntry, DiffLogEntry, MgrBarEntry, RelEntry, WnLogEntry};

/// Fault-tolerance control data piggybacked on protocol messages: the
/// sender's restart-checkpoint timestamp (plus its checkpoint sequence and
/// barrier-episode counters for the barrier-log trimming analogue), and a
/// batch of per-page retained starting-copy versions `p0.v[receiver]` for
/// pages homed at the sender that the receiver has written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piggy {
    /// Sender's last checkpoint timestamp `T_ckp`.
    pub tckp: VectorClock,
    /// Sender's checkpoint count.
    pub ckpt_seq: u64,
    /// Sender's barrier-episode count at its last checkpoint.
    pub ckpt_episode: u64,
    /// `(page, p0.v[receiver])` hints for the receiver's LLT.
    pub p0v: Vec<(PageId, u32)>,
    /// Gossip of third-party checkpoint timestamps, attached to barrier
    /// releases: `(proc, ckpt_seq, ckpt_episode, T_ckp)`. Without it, nodes
    /// that never exchange protocol messages directly (e.g. distant slabs
    /// in Water-Spatial) would never learn each other's `T_ckp` and their
    /// checkpoint windows could not be garbage collected.
    pub table: Vec<(ProcId, u64, u64, VectorClock)>,
}

impl Piggy {
    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.tckp.wire_size()
            + 16
            + 8 * self.p0v.len()
            + self
                .table
                .iter()
                .map(|(_, _, _, v)| 20 + v.wire_size())
                .sum::<usize>()
    }
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Acquire request: requester → lock manager.
    LockAcq {
        /// The lock wanted.
        lock: LockId,
        /// Requester's acquisition sequence number.
        acq_seq: u64,
        /// Requester's current timestamp.
        vt: VectorClock,
    },
    /// Forwarded request: manager → granter (the chain tail).
    LockForward {
        /// The lock in question.
        lock: LockId,
        /// The node that wants the lock.
        requester: ProcId,
        /// The requester's acquisition sequence number.
        acq_seq: u64,
        /// Per-lock grant generation assigned by the manager (recovery key).
        gen: u64,
        /// The granter's own acquisition sequence number of the tenure this
        /// forward chains behind (`u64::MAX` = chain start); the granter
        /// grants immediately iff it already released that tenure.
        pred_acq: u64,
        /// Requester's timestamp (zero-length on crash retransmissions; the
        /// granter then uses its release log).
        vt: VectorClock,
    },
    /// Grant: granter → requester.
    LockGrant {
        /// The lock granted.
        lock: LockId,
        /// The requester's acquisition sequence number (dedup key).
        acq_seq: u64,
        /// The manager-assigned grant generation.
        gen: u64,
        /// The granter's release-time timestamp for this lock.
        vt: VectorClock,
        /// Write notices the requester is missing.
        wns: Vec<WriteNotice>,
    },
    /// A writer's end-of-interval diffs for pages homed at the receiver.
    DiffBatch {
        /// The diffs (each carries its creating interval for idempotent,
        /// ordered application). Shared with the sender's volatile diff log:
        /// sending a batch never copies run payloads.
        diffs: Vec<Arc<Diff>>,
        /// Stop-and-wait sequence number within the (writer, home) stream,
        /// `>= 1` when the retry layer is on: the home acks it with
        /// [`Payload::DiffAck`] and the writer keeps at most one batch in
        /// flight per home, preserving first-delivery order under loss and
        /// reordering (the home's version gate makes *re*-delivery safe,
        /// but would silently skip an out-of-order *first* delivery).
        /// `0` on the legacy reliable path: no ack expected.
        seq: u64,
    },
    /// Home → writer acknowledgement of a [`Payload::DiffBatch`].
    DiffAck {
        /// The acknowledged batch's sequence number.
        seq: u64,
    },
    /// A membership/failure-detection message (heartbeats, suspicion
    /// rounds, down announcements). Never piggybacked, never backlogged.
    Member(dsm_member::Wire),
    /// Barrier arrival: participant → barrier manager.
    BarrierArrive {
        /// Barrier crossing number at the participant.
        episode: u64,
        /// The participant's timestamp at arrival.
        vt: VectorClock,
        /// Interval-delta of the participant's own write notices since its
        /// previous arrival (relative to its previous arrival clock).
        own_wns: WnDelta,
    },
    /// Barrier release: manager → participant.
    BarrierRelease {
        /// The completed episode.
        episode: u64,
        /// Join of every participant's arrival timestamp.
        vt: VectorClock,
        /// Interval-delta of the write notices the receiver is missing
        /// (relative to its arrival clock).
        wns: WnDelta,
    },
    /// Page fetch: requester → home. The home replies once its copy covers
    /// `needed`.
    PageReq {
        /// The page wanted.
        page: PageId,
        /// Minimal version the reply must include.
        needed: VectorClock,
        /// Requester-local correlation id (dedup of retransmitted replies).
        req_id: u64,
    },
    /// Batched page fetch: requester → home. One round trip prefetches
    /// every page homed at the receiver that the requester just invalidated
    /// (issued eagerly after an acquire or barrier applies write notices).
    /// The home answers each page once its copy covers that page's `needed`;
    /// pages already current go back together in one [`Payload::PageBatchReply`],
    /// stragglers arrive later as individual [`Payload::PageReply`]s carrying
    /// the same `req_id`.
    PageBatchReq {
        /// `(page, minimal version the reply must include)` per page.
        pages: Vec<(PageId, VectorClock)>,
        /// Requester-local correlation id shared by the whole batch.
        req_id: u64,
    },
    /// Batched page contents: home → requester, for the pages of a
    /// [`Payload::PageBatchReq`] that were ready immediately.
    PageBatchReply {
        /// Correlation id echoed from the request.
        req_id: u64,
        /// `(page, home version, contents)` per ready page; contents are
        /// shared with the home's authoritative copy.
        pages: Vec<(PageId, VectorClock, Arc<[u8]>)>,
    },
    /// Page contents: home → requester.
    PageReply {
        /// The page.
        page: PageId,
        /// Correlation id echoed from the request.
        req_id: u64,
        /// The home's version vector for the copy.
        version: VectorClock,
        /// The page contents, shared with the home's authoritative copy
        /// (copy-on-write at the home keeps this immutable).
        bytes: Arc<[u8]>,
    },

    // ---- recovery protocol ----
    /// Recovery handshake: recovering node → every peer.
    RecLogReq,
    /// Everything a peer contributes to a recovery (its trimmed logs).
    RecLogReply {
        /// The peer's own write-notice log.
        wn: Vec<WnLogEntry>,
        /// The peer's `rel_log[recovering]` (grants it sent to the
        /// recovering node — drives acquire replay).
        rel_for_you: Vec<RelEntry>,
        /// The peer's `acq_log[recovering]` (mirror restoring the
        /// recovering node's `rel_log[peer]`).
        acq_mirror: Vec<RelEntry>,
        /// The peer's own barrier crossings.
        bar: Vec<BarEntry>,
        /// The peer's barrier-manager mirror (non-empty only from the
        /// barrier manager).
        bar_mgr: Vec<MgrBarEntry>,
        /// Per lock managed by the recovering node: the highest-generation
        /// *materialized* acquisition the peer knows — its own newest
        /// tenure (granter `None`) or the newest grant in its release log
        /// (granter `Some(peer)`): `(lock, gen, grantee, grantee_acq,
        /// granter)`. Rebuilds the manager's chain tails. Queued (not yet
        /// granted) edges are deliberately absent: the peer discards them
        /// when serving this handshake — the chain reset — and their
        /// requesters re-drive the acquisition.
        lock_chains: Vec<(LockId, u64, ProcId, u64, Option<ProcId>)>,
        /// Per lock managed by the recovering node: the highest grant
        /// generation the peer has *seen* in any role, including queued
        /// edges it just discarded. Bounds the recovered manager's next
        /// generation so fresh edges outrank every pre-crash one.
        gen_floor: Vec<(LockId, u64)>,
        /// The newest acquisition sequence number of the recovering node
        /// that the peer's lock manager has seen requested (0 if none).
        /// Every acquisition numbered below it completed before the crash,
        /// which is the only trace a self-granted tenure leaves at a peer.
        acq_seen: u64,
    },
    /// Maximal-starting-copy request: recovering node → home.
    RecPageReq {
        /// The page whose starting copy is needed.
        page: PageId,
        /// The recovering node's restart-checkpoint timestamp; the home
        /// returns its newest retained copy with version `<=` this.
        tckp: VectorClock,
    },
    /// Maximal starting copy: home → recovering node.
    RecPageReply {
        /// The page.
        page: PageId,
        /// The starting copy's version vector.
        version: VectorClock,
        /// The starting copy's contents (shared, not copied per hop).
        bytes: Arc<[u8]>,
    },
    /// Diff-log request for one page: recovering node → every peer.
    RecDiffReq {
        /// The page whose diffs are needed.
        page: PageId,
    },
    /// A peer's diff log for one page.
    RecDiffReply {
        /// The page.
        page: PageId,
        /// The peer's logged diffs for the page (with full timestamps).
        entries: Vec<DiffLogEntry>,
    },
}

impl Payload {
    /// Encoded size in bytes of the base-protocol part.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::LockAcq { vt, .. } => 17 + vt.wire_size(),
            Payload::LockForward { vt, .. } => 37 + vt.wire_size(),
            Payload::LockGrant { vt, wns, .. } => {
                25 + vt.wire_size() + wns.iter().map(|w| w.wire_size()).sum::<usize>()
            }
            Payload::DiffBatch { diffs, .. } => {
                17 + diffs.iter().map(|d| d.wire_size()).sum::<usize>()
            }
            Payload::DiffAck { .. } => 9,
            Payload::Member(w) => w.wire_size(),
            Payload::BarrierArrive { vt, own_wns, .. } => 9 + vt.wire_size() + own_wns.wire_size(),
            Payload::BarrierRelease { vt, wns, .. } => 9 + vt.wire_size() + wns.wire_size(),
            Payload::PageReq { needed, .. } => 13 + needed.wire_size(),
            Payload::PageBatchReq { pages, .. } => {
                17 + pages
                    .iter()
                    .map(|(_, needed)| 4 + needed.wire_size())
                    .sum::<usize>()
            }
            Payload::PageBatchReply { pages, .. } => {
                17 + pages
                    .iter()
                    .map(|(_, version, bytes)| 8 + version.wire_size() + bytes.len())
                    .sum::<usize>()
            }
            Payload::PageReply { version, bytes, .. } => 17 + version.wire_size() + bytes.len(),
            Payload::RecLogReq => 1,
            Payload::RecLogReply {
                wn,
                rel_for_you,
                acq_mirror,
                bar,
                bar_mgr,
                lock_chains,
                gen_floor,
                ..
            } => {
                1 + wn.iter().map(|e| e.wire_size()).sum::<usize>()
                    + rel_for_you.iter().map(|e| e.wire_size()).sum::<usize>()
                    + acq_mirror.iter().map(|e| e.wire_size()).sum::<usize>()
                    + bar.iter().map(|e| e.wire_size()).sum::<usize>()
                    + bar_mgr
                        .iter()
                        .map(|e| {
                            8 + e.result_vt.wire_size()
                                + e.arrival_vts.iter().map(|v| v.wire_size()).sum::<usize>()
                        })
                        .sum::<usize>()
                    + 33 * lock_chains.len()
                    + 16 * gen_floor.len()
                    + 8
            }
            Payload::RecPageReq { tckp, .. } => 5 + tckp.wire_size(),
            Payload::RecPageReply { version, bytes, .. } => 5 + version.wire_size() + bytes.len(),
            Payload::RecDiffReq { .. } => 5,
            Payload::RecDiffReply { entries, .. } => {
                5 + entries.iter().map(|e| e.wire_size()).sum::<usize>()
            }
        }
    }

    /// Short name for debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::LockAcq { .. } => "LockAcq",
            Payload::LockForward { .. } => "LockForward",
            Payload::LockGrant { .. } => "LockGrant",
            Payload::DiffBatch { .. } => "DiffBatch",
            Payload::DiffAck { .. } => "DiffAck",
            Payload::Member(w) => w.kind(),
            Payload::BarrierArrive { .. } => "BarrierArrive",
            Payload::BarrierRelease { .. } => "BarrierRelease",
            Payload::PageReq { .. } => "PageReq",
            Payload::PageBatchReq { .. } => "PageBatchReq",
            Payload::PageBatchReply { .. } => "PageBatchReply",
            Payload::PageReply { .. } => "PageReply",
            Payload::RecLogReq => "RecLogReq",
            Payload::RecLogReply { .. } => "RecLogReply",
            Payload::RecPageReq { .. } => "RecPageReq",
            Payload::RecPageReply { .. } => "RecPageReply",
            Payload::RecDiffReq { .. } => "RecDiffReq",
            Payload::RecDiffReply { .. } => "RecDiffReply",
        }
    }
}

/// A protocol message: payload plus optional FT piggyback plus the causal
/// trace context every message carries on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// The base-protocol payload.
    pub payload: Payload,
    /// LLT/CGC control data (present when fault tolerance is enabled).
    pub piggy: Option<Piggy>,
    /// Causal trace context. Constructed unstamped; the endpoint stamps
    /// origin/seq/timestamp at send time, preserving any parent flow the
    /// sender set. Charged [`TraceCtx::WIRE_SIZE`] bytes unconditionally so
    /// byte accounting never depends on whether tracing is on.
    pub ctx: TraceCtx,
}

impl Msg {
    /// A bare message without piggyback.
    pub fn bare(payload: Payload) -> Self {
        Msg {
            payload,
            piggy: None,
            ctx: TraceCtx::NONE,
        }
    }

    /// A bare message sent in service of the flow `parent` (a reply, a
    /// forward, or any other message caused by handling `parent`).
    pub fn reply_to(payload: Payload, parent: u64) -> Self {
        Msg {
            payload,
            piggy: None,
            ctx: TraceCtx {
                parent,
                ..TraceCtx::NONE
            },
        }
    }

    /// A message with piggyback, parented on `parent` (0 for none).
    pub fn with_parent(payload: Payload, piggy: Option<Piggy>, parent: u64) -> Self {
        Msg {
            payload,
            piggy,
            ctx: TraceCtx {
                parent,
                ..TraceCtx::NONE
            },
        }
    }
}

impl dsm_net::WireSized for Msg {
    fn base_wire_size(&self) -> usize {
        1 + TraceCtx::WIRE_SIZE + self.payload.wire_size()
    }
    fn ft_wire_size(&self) -> usize {
        self.piggy.as_ref().map_or(0, |p| p.wire_size())
    }
    fn kind_name(&self) -> &'static str {
        self.payload.kind()
    }
    fn stamp_send(&mut self, origin: u32, seq: u64, now_ns: u64) {
        self.ctx.origin = origin;
        self.ctx.seq = seq;
        self.ctx.sent_at_ns = now_ns;
    }
    fn add_chaos_delay(&mut self, ns: u64) {
        self.ctx.chaos_delay_ns += ns;
    }
    fn trace_view(&self) -> (u64, u64, u64, u64) {
        (
            self.ctx.flow_id(),
            self.ctx.parent,
            self.ctx.sent_at_ns,
            self.ctx.chaos_delay_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::WireSized;

    #[test]
    fn page_reply_size_dominated_by_page_bytes() {
        let m = Msg::bare(Payload::PageReply {
            page: PageId(0),
            req_id: 1,
            version: VectorClock::zero(8),
            bytes: vec![0; 4096].into(),
        });
        assert!(m.base_wire_size() > 4096);
        assert!(m.base_wire_size() < 4096 + 64 + TraceCtx::WIRE_SIZE);
        assert_eq!(m.ft_wire_size(), 0);
    }

    #[test]
    fn piggy_bytes_are_separate() {
        let piggy = Piggy {
            tckp: VectorClock::zero(8),
            ckpt_seq: 1,
            ckpt_episode: 2,
            p0v: vec![(PageId(0), 3), (PageId(1), 4)],
            table: vec![(1, 2, 3, VectorClock::zero(8))],
        };
        let m = Msg {
            payload: Payload::RecLogReq,
            piggy: Some(piggy.clone()),
            ctx: TraceCtx::NONE,
        };
        // 1 kind byte + 1 payload byte + the 16-byte trace context.
        assert_eq!(m.base_wire_size(), 2 + TraceCtx::WIRE_SIZE);
        assert_eq!(m.ft_wire_size(), piggy.wire_size());
        assert_eq!(piggy.wire_size(), 32 + 16 + 16 + 20 + 32);
    }
}
