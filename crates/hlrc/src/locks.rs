//! Per-lock manager state machine.
//!
//! Each lock has a static *manager* node (`lock_id % n`). Acquire requests
//! go to the manager, which forwards them to the lock's current *tail* —
//! the last process that was granted (or will be granted) the lock. The
//! tail grants directly to the requester with its release-time vector
//! timestamp and the write notices the requester is missing (LRC).
//!
//! To make every acquisition replayable from the mirrored release logs, the
//! manager acts as the initial owner of its locks: the very first request is
//! forwarded to the manager itself, which grants with a zero timestamp.
//!
//! Crash handling: the manager remembers, per (lock, requester), the last
//! forward it issued until a newer request from the same requester replaces
//! it. When a crashed node restarts ([`LockManagerTable::on_node_up`]) the
//! manager re-issues every forward that was addressed to it; grants are
//! idempotent (the granter replays them from its release log, the requester
//! dedups by acquisition sequence number).

use std::collections::HashMap;

use dsm_page::{ProcId, VectorClock};

/// Identifier of an application lock.
pub type LockId = usize;

/// An acquire request as routed by the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcqReq {
    /// The process that wants the lock.
    pub requester: ProcId,
    /// The requester's acquisition sequence number (dedup key; each process
    /// numbers all its lock acquisitions).
    pub acq_seq: u64,
    /// The requester's vector timestamp at request time.
    pub vt: VectorClock,
}

/// What the manager asks the runtime to do in response to a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockAction {
    /// The lock in question.
    pub lock: LockId,
    /// The node that should produce the grant (the chain tail; possibly the
    /// manager itself).
    pub grant_from: ProcId,
    /// Grant generation: a per-lock counter assigned by the manager. Peers
    /// remember the highest generation they granted or queued, which lets a
    /// recovering manager rebuild the chain tail.
    pub gen: u64,
    /// The acquisition sequence number, *at the granter*, of the tenure
    /// this forward chains behind (`u64::MAX` for the chain start). The
    /// granter grants immediately iff it has already released that tenure —
    /// its own acquisition numbering is deterministic local knowledge, so
    /// the test survives the granter's crash and replay.
    pub pred_acq: u64,
    /// The request to satisfy.
    pub req: AcqReq,
}

#[derive(Debug)]
struct ManagedLock {
    /// Last node granted (or forwarded) the lock; grants chain through it.
    tail: ProcId,
    /// Generation of the request that made `tail` the tail (0 initially).
    tail_gen: u64,
    /// The tail's own acquisition sequence number for that request
    /// (`u64::MAX` initially: the manager-as-initial-owner has no tenure).
    tail_acq: u64,
    /// Next grant generation.
    gen_next: u64,
    /// The node that granted (or was forwarded) the tail's tenure — i.e.
    /// the `grant_from` of the edge that made `tail` the tail. A recovered
    /// manager restores this from the granter's release log, which lets it
    /// replay a grant whose delivery was lost: if the tail itself
    /// retransmits the acquisition that made it tail, the manager
    /// re-forwards to this granter instead of chaining the request behind
    /// its own (never completed) tenure. `None` when the edge's origin is
    /// unknown (tenure-derived restore, self-grant).
    tail_granter: Option<ProcId>,
    /// Per-requester last forward, kept for crash retransmission. Replaced
    /// when the same requester issues a newer acquisition.
    pending: HashMap<ProcId, PendingFwd>,
}

#[derive(Debug, Clone, Copy)]
struct PendingFwd {
    acq_seq: u64,
    forwarded_to: ProcId,
    gen: u64,
    pred_acq: u64,
}

/// All locks managed by one node.
#[derive(Debug)]
pub struct LockManagerTable {
    me: ProcId,
    locks: HashMap<LockId, ManagedLock>,
}

impl LockManagerTable {
    /// The manager table for node `me`.
    pub fn new(me: ProcId) -> Self {
        LockManagerTable {
            me,
            locks: HashMap::new(),
        }
    }

    /// Handle an acquire request (possibly a retransmission) for a lock
    /// managed here. Returns the forward to issue, or `None` for a stale
    /// duplicate.
    pub fn on_request(&mut self, lock: LockId, req: AcqReq) -> Option<LockAction> {
        let me = self.me;
        let ml = self.locks.entry(lock).or_insert_with(|| ManagedLock {
            tail: me,
            tail_gen: 0,
            tail_acq: u64::MAX,
            gen_next: 1,
            tail_granter: None,
            pending: HashMap::new(),
        });
        match ml.pending.get(&req.requester) {
            Some(p) if p.acq_seq == req.acq_seq => {
                // Retransmission of an in-flight request: re-forward to the
                // same predecessor; do not advance the chain again.
                Some(LockAction {
                    lock,
                    grant_from: p.forwarded_to,
                    gen: p.gen,
                    pred_acq: p.pred_acq,
                    req,
                })
            }
            Some(p) if p.acq_seq > req.acq_seq => None, // stale duplicate
            _ => {
                if ml.tail == req.requester && ml.tail_acq == req.acq_seq {
                    // The tail retransmits the very acquisition that made
                    // it the tail, and we have no pending record of it:
                    // this manager recovered from a crash, restored the
                    // tail from peer reports, and the original grant's
                    // delivery was lost. Chaining the request behind the
                    // tail's own tenure would deadlock it on itself. If
                    // the restoring report named the granter (the grant is
                    // in its release log), re-forward there: the granter
                    // replays the identical grant. Otherwise the tail came
                    // from a *delivered* tenure, whose owner never
                    // retransmits it — fall through and chain normally.
                    if let Some(granter) = ml.tail_granter {
                        if granter != req.requester {
                            let gen = ml.tail_gen;
                            ml.pending.insert(
                                req.requester,
                                PendingFwd {
                                    acq_seq: req.acq_seq,
                                    forwarded_to: granter,
                                    gen,
                                    // The granter replays from its release
                                    // log; the predecessor test never runs.
                                    pred_acq: u64::MAX,
                                },
                            );
                            return Some(LockAction {
                                lock,
                                grant_from: granter,
                                gen,
                                pred_acq: u64::MAX,
                                req,
                            });
                        }
                    }
                }
                let grant_from = ml.tail;
                let pred_acq = ml.tail_acq;
                let gen = ml.gen_next;
                ml.gen_next += 1;
                ml.tail = req.requester;
                ml.tail_gen = gen;
                ml.tail_acq = req.acq_seq;
                ml.tail_granter = Some(grant_from);
                ml.pending.insert(
                    req.requester,
                    PendingFwd {
                        acq_seq: req.acq_seq,
                        forwarded_to: grant_from,
                        gen,
                        pred_acq,
                    },
                );
                Some(LockAction {
                    lock,
                    grant_from,
                    gen,
                    pred_acq,
                    req,
                })
            }
        }
    }

    /// A crashed node restarted: re-issue every pending forward that was
    /// addressed to it (the original may have been dropped).
    pub fn on_node_up(&mut self, node: ProcId) -> Vec<LockAction> {
        let mut out = Vec::new();
        for (&lock, ml) in &self.locks {
            for (&requester, p) in &ml.pending {
                if p.forwarded_to == node {
                    out.push(LockAction {
                        lock,
                        grant_from: p.forwarded_to,
                        gen: p.gen,
                        pred_acq: p.pred_acq,
                        req: AcqReq {
                            requester,
                            acq_seq: p.acq_seq,
                            // The retransmitted forward carries a zero vt;
                            // the granter computes missing notices against
                            // the vt recorded in its release log for
                            // already-granted requests, and requesters of
                            // live grants resend their own request anyway.
                            vt: VectorClock::zero(0),
                        },
                    });
                }
            }
        }
        out
    }

    /// Manager recovery: restore a lock's chain from the highest-generation
    /// *materialized* acquisition reported by peers — a tenure the grantee
    /// actually entered, or a grant present in its granter's release log.
    /// Queued-but-undelivered chain edges are discarded at recovery (the
    /// peers drop them when serving the log handshake) and must NOT be
    /// offered here: their requesters re-drive the request and are chained
    /// fresh. `granter` is the node whose release log holds the grant
    /// (`None` for a tenure report, where no replayable record exists).
    pub fn restore_chain(
        &mut self,
        lock: LockId,
        gen: u64,
        tail: ProcId,
        tail_acq: u64,
        granter: Option<ProcId>,
    ) {
        let ml = self.locks.entry(lock).or_insert_with(|| ManagedLock {
            tail,
            tail_gen: gen,
            tail_acq,
            gen_next: gen + 1,
            tail_granter: granter,
            pending: HashMap::new(),
        });
        if gen + 1 > ml.gen_next {
            ml.gen_next = gen + 1;
        }
        if gen >= ml.tail_gen {
            // A displaced restored tail's edge materialized and the chain
            // moved past it, so its tenure completed and its requester will
            // never retransmit it — drop the replay record (restores run on
            // a fresh manager, so `pending` holds only restored edges).
            ml.pending.remove(&ml.tail);
            ml.tail = tail;
            ml.tail_gen = gen;
            ml.tail_acq = tail_acq;
            ml.tail_granter = granter;
            // A release-log-restored edge may have lost its delivery: the
            // grantee will retransmit the acquisition. Record the forward so
            // the retransmission replays from the granter at the original
            // generation even after new requests advance the chain —
            // chaining the same acquisition a second time behind the new
            // tail would close a grant cycle and deadlock both requesters.
            // (The tail-retransmission check in `on_request` only catches
            // the case where the chain has NOT moved yet.)
            if let Some(g) = granter {
                if g != tail {
                    ml.pending.insert(
                        tail,
                        PendingFwd {
                            acq_seq: tail_acq,
                            forwarded_to: g,
                            gen,
                            // The granter replays from its release log; the
                            // predecessor test never runs.
                            pred_acq: u64::MAX,
                        },
                    );
                }
            }
        }
    }

    /// Manager recovery: raise a lock's next grant generation above `gen`
    /// without touching the tail. Applied from peers' highest *seen*
    /// generations (including queued edges that the recovery discarded),
    /// so fresh post-recovery edges always outrank every pre-crash one.
    pub fn bound_gen(&mut self, lock: LockId, gen: u64) {
        if let Some(ml) = self.locks.get_mut(&lock) {
            if gen + 1 > ml.gen_next {
                ml.gen_next = gen + 1;
            }
        } else {
            let me = self.me;
            self.locks.insert(
                lock,
                ManagedLock {
                    tail: me,
                    tail_gen: 0,
                    tail_acq: u64::MAX,
                    gen_next: gen + 1,
                    tail_granter: None,
                    pending: HashMap::new(),
                },
            );
        }
    }

    /// The newest acquisition sequence number `requester` is known to have
    /// requested of any lock managed here, if any. A process requests its
    /// acquisition k only after acquisition k − 1 was granted, so every
    /// acquisition of `requester` numbered below this one completed.
    pub fn newest_acq_of(&self, requester: ProcId) -> Option<u64> {
        self.locks
            .values()
            .filter_map(|ml| ml.pending.get(&requester))
            .map(|p| p.acq_seq)
            .max()
    }

    /// Current chain tail of a managed lock, if any request has been seen.
    pub fn tail_of(&self, lock: LockId) -> Option<ProcId> {
        self.locks.get(&lock).map(|ml| ml.tail)
    }

    /// Generation of the grant that made the current tail the tail.
    pub fn tail_gen_of(&self, lock: LockId) -> Option<u64> {
        self.locks.get(&lock).map(|ml| ml.tail_gen)
    }

    /// Recovery: the recovering manager replayed a self-granted tenure of a
    /// lock it manages and no newer grant is known, so it is the chain
    /// tail. Callers must check `tail_of` first: a peer tail restored from
    /// the handshake means the chain moved past the self-granted tenure
    /// before the crash (the grant that made us tail is always reported by
    /// its granter, so a peer tail implies a newer generation).
    pub fn force_tail(&mut self, lock: LockId, tail: ProcId, tail_acq: u64) {
        let ml = self.locks.entry(lock).or_insert_with(|| ManagedLock {
            tail,
            tail_gen: 0,
            tail_acq,
            gen_next: 1,
            tail_granter: None,
            pending: HashMap::new(),
        });
        // Never regress our own tail: a restored tail naming the same node
        // at a newer acquisition already covers this tenure.
        if ml.tail == tail && ml.tail_acq != u64::MAX && ml.tail_acq >= tail_acq {
            return;
        }
        ml.tail = tail;
        ml.tail_acq = tail_acq;
        ml.tail_gen = ml.gen_next;
        ml.gen_next += 1;
        ml.tail_granter = None;
    }

    /// Number of locks with state.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when no lock has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(r: ProcId, seq: u64) -> AcqReq {
        AcqReq {
            requester: r,
            acq_seq: seq,
            vt: VectorClock::zero(4),
        }
    }

    #[test]
    fn first_request_is_granted_by_the_manager_itself() {
        let mut m = LockManagerTable::new(2);
        let a = m.on_request(9, req(1, 0)).unwrap();
        assert_eq!(a.grant_from, 2);
        assert_eq!(a.req.requester, 1);
    }

    #[test]
    fn requests_chain_through_previous_requesters() {
        let mut m = LockManagerTable::new(0);
        let a1 = m.on_request(5, req(1, 0)).unwrap();
        assert_eq!(a1.grant_from, 0);
        let a2 = m.on_request(5, req(2, 0)).unwrap();
        assert_eq!(a2.grant_from, 1);
        let a3 = m.on_request(5, req(3, 0)).unwrap();
        assert_eq!(a3.grant_from, 2);
        // Re-acquisition by an earlier holder chains normally.
        let a4 = m.on_request(5, req(1, 1)).unwrap();
        assert_eq!(a4.grant_from, 3);
    }

    #[test]
    fn retransmission_reforwards_without_advancing_chain() {
        let mut m = LockManagerTable::new(0);
        m.on_request(5, req(1, 0)).unwrap();
        let retx = m.on_request(5, req(1, 0)).unwrap();
        assert_eq!(retx.grant_from, 0);
        // Chain tail is still 1: a new requester is forwarded to 1.
        let a = m.on_request(5, req(2, 0)).unwrap();
        assert_eq!(a.grant_from, 1);
    }

    #[test]
    fn stale_duplicate_is_dropped() {
        let mut m = LockManagerTable::new(0);
        m.on_request(5, req(1, 0)).unwrap();
        m.on_request(5, req(1, 1)).unwrap();
        assert_eq!(m.on_request(5, req(1, 0)), None);
    }

    #[test]
    fn node_up_reissues_forwards_addressed_to_it() {
        let mut m = LockManagerTable::new(0);
        m.on_request(5, req(1, 0)).unwrap(); // granted by 0
        m.on_request(5, req(2, 0)).unwrap(); // forwarded to 1
        m.on_request(7, req(3, 0)).unwrap(); // granted by 0
        let redo = m.on_node_up(1);
        assert_eq!(redo.len(), 1);
        assert_eq!(redo[0].lock, 5);
        assert_eq!(redo[0].grant_from, 1);
        assert_eq!(redo[0].req.requester, 2);
        assert_eq!(redo[0].req.acq_seq, 0);
        assert!(m.on_node_up(9).is_empty());
    }

    #[test]
    fn tail_retransmission_replays_from_restored_granter() {
        // A recovered manager restored the tail from granter 3's release
        // log: node 1's acquisition 4 (gen 7) was issued by 3 but its
        // delivery was lost. 1 retransmits; the manager must re-forward to
        // 3 (which replays the grant), not chain 1 behind its own never-
        // completed tenure.
        let mut m = LockManagerTable::new(0);
        m.restore_chain(5, 7, 1, 4, Some(3));
        let a = m.on_request(5, req(1, 4)).unwrap();
        assert_eq!(a.grant_from, 3);
        assert_eq!(a.gen, 7);
        assert_eq!(a.pred_acq, u64::MAX);
        // The chain did not advance: a new requester chains behind 1.
        let b = m.on_request(5, req(2, 0)).unwrap();
        assert_eq!(b.grant_from, 1);
        assert_eq!(b.pred_acq, 4);
    }

    #[test]
    fn tail_retransmission_after_chain_advanced_replays_from_granter() {
        // Deadlock regression: manager 1 recovers with restored tail 3
        // (acq 0, gen 4, grant in 1's own release log — delivery lost in
        // the crash). Node 2 then chains behind 3 (gen 5, moving the
        // tail). When 3 finally retransmits its lost acquisition, the
        // manager must replay it from the granter at the original
        // generation — chaining it a second time behind 2 would create a
        // 2↔3 grant cycle (2 waits on 3's tenure, 3 waits on 2's).
        let mut m = LockManagerTable::new(1);
        m.restore_chain(5, 4, 3, 0, Some(1));
        let a = m.on_request(5, req(2, 0)).unwrap();
        assert_eq!(a.grant_from, 3);
        assert_eq!(a.gen, 5);
        assert_eq!(a.pred_acq, 0);
        let b = m.on_request(5, req(3, 0)).unwrap();
        assert_eq!(b.grant_from, 1, "must replay from the granter's log");
        assert_eq!(b.gen, 4);
        assert_eq!(b.pred_acq, u64::MAX);
        // The chain did not advance again: tail is still 2.
        assert_eq!(m.tail_of(5), Some(2));
    }

    #[test]
    fn newer_restore_drops_the_displaced_tails_replay_record() {
        // Two release-log edges restored out of chain order: the gen-7 edge
        // displaces the gen-4 tail, whose tenure therefore completed. Its
        // old requester re-acquiring chains normally instead of replaying.
        let mut m = LockManagerTable::new(0);
        m.restore_chain(5, 4, 2, 1, Some(1));
        m.restore_chain(5, 7, 3, 2, Some(2));
        let a = m.on_request(5, req(2, 2)).unwrap();
        assert_eq!(a.grant_from, 3);
        assert_eq!(a.gen, 8);
        assert_eq!(a.pred_acq, 2);
    }

    #[test]
    fn tenure_restored_tail_requesting_again_chains_normally() {
        // Tail restored from a delivered-tenure report (no granter): the
        // owner's *next* acquisition chains behind that tenure.
        let mut m = LockManagerTable::new(0);
        m.restore_chain(5, 7, 1, 4, None);
        let a = m.on_request(5, req(1, 5)).unwrap();
        assert_eq!(a.grant_from, 1);
        assert_eq!(a.pred_acq, 4);
        assert_eq!(a.gen, 8);
    }

    #[test]
    fn bound_gen_outranks_discarded_edges_without_moving_tail() {
        let mut m = LockManagerTable::new(0);
        m.restore_chain(5, 3, 2, 1, None);
        m.bound_gen(5, 9); // a queued gen-9 edge was discarded at recovery
        assert_eq!(m.tail_of(5), Some(2));
        assert_eq!(m.tail_gen_of(5), Some(3));
        let a = m.on_request(5, req(3, 0)).unwrap();
        assert_eq!(a.gen, 10, "fresh edges must outrank discarded ones");
        assert_eq!(a.grant_from, 2);
    }

    #[test]
    fn restore_keeps_the_newest_materialized_acquisition() {
        let mut m = LockManagerTable::new(0);
        m.restore_chain(5, 4, 2, 1, Some(1));
        m.restore_chain(5, 7, 3, 2, None);
        m.restore_chain(5, 6, 1, 9, Some(2));
        assert_eq!(m.tail_of(5), Some(3));
        assert_eq!(m.tail_gen_of(5), Some(7));
    }

    #[test]
    fn newest_acq_spans_every_managed_lock() {
        let mut m = LockManagerTable::new(0);
        assert_eq!(m.newest_acq_of(1), None);
        m.on_request(5, req(1, 3)).unwrap();
        m.on_request(7, req(1, 9)).unwrap();
        m.on_request(5, req(2, 20)).unwrap();
        assert_eq!(m.newest_acq_of(1), Some(9));
        assert_eq!(m.newest_acq_of(2), Some(20));
    }

    #[test]
    fn distinct_locks_have_independent_chains() {
        let mut m = LockManagerTable::new(0);
        m.on_request(1, req(1, 0)).unwrap();
        let a = m.on_request(2, req(2, 0)).unwrap();
        assert_eq!(a.grant_from, 0);
    }
}
