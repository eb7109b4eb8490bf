//! Fault-tolerance integration tests: logging/checkpointing overhead paths,
//! the OF(L) policy, and crash/recovery correctness for worker, home,
//! lock-manager and barrier-manager failures.

use ftdsm::{run, CkptPolicy, ClusterConfig, FailureSpec, HomeAlloc, Process};

const STEPS: u64 = 12;

/// A deterministic step-structured SPMD workload touching every protocol
/// path: a lock-protected global counter, per-node partitioned writes with
/// interleaved homes (so every node is a home), and a barrier per step.
fn stepped_app(p: &mut Process) -> u64 {
    let n = p.nodes();
    let data = p.alloc_vec::<u64>(64, HomeAlloc::Interleaved);
    let counter = p.alloc_vec::<u64>(1, HomeAlloc::Node(0));
    let mut state = 0u64;
    p.run_steps(&mut state, STEPS, |p, state, step| {
        p.acquire(3);
        let v = counter.get(p, 0);
        counter.set(p, 0, v + 1);
        p.release(3);
        let me = p.me();
        for i in 0..64 {
            if i % n == me {
                let cur = data.get(p, i);
                data.set(p, i, cur + (step + 1) * (i as u64 + 1));
            }
        }
        *state += step;
        p.barrier();
    });
    p.barrier();
    counter.get(p, 0) + state
}

fn expected_result(n: u64) -> u64 {
    n * STEPS + (0..STEPS).sum::<u64>()
}

fn ft_cfg(n: usize, policy: CkptPolicy) -> ClusterConfig {
    ClusterConfig::fault_tolerant(n)
        .with_page_size(256)
        .with_policy(policy)
}

#[test]
fn ft_run_matches_base_run() {
    let base = run(ClusterConfig::base(4).with_page_size(256), &[], stepped_app);
    let ft = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    assert_eq!(base.results, ft.results);
    assert_eq!(base.results, vec![expected_result(4); 4]);
    assert_eq!(base.shared_hash, ft.shared_hash);
    assert!(ft.total_ckpts() > 0, "EverySteps policy must checkpoint");
    // Piggyback traffic flows only in the FT run.
    assert_eq!(base.total_traffic().ft_bytes_sent, 0);
    assert!(ft.total_traffic().ft_bytes_sent > 0);
}

#[test]
fn log_overflow_policy_checkpoints_and_bounds_logs() {
    let report = run(
        ft_cfg(4, CkptPolicy::LogOverflow { l: 0.05 }),
        &[],
        stepped_app,
    );
    assert_eq!(report.results, vec![expected_result(4); 4]);
    assert!(report.total_ckpts() > 0, "OF policy should have triggered");
    for node in &report.nodes {
        let c = node.ft.log_counters;
        assert!(c.created_bytes > 0);
        // Saved logs were written at every checkpoint.
        if node.ft.ckpts_taken > 0 {
            assert!(node.ft.log_bytes_saved > 0);
            assert!(!node.ft.stable_log_curve.is_empty());
        }
    }
}

#[test]
fn never_policy_logs_but_does_not_checkpoint() {
    let report = run(ft_cfg(3, CkptPolicy::Never), &[], stepped_app);
    assert_eq!(report.results, vec![expected_result(3); 3]);
    assert_eq!(report.total_ckpts(), 0);
    assert!(report
        .nodes
        .iter()
        .any(|n| n.ft.log_counters.created_bytes > 0));
}

#[test]
fn manual_checkpoints_fire_at_safe_points() {
    let report = run(ft_cfg(3, CkptPolicy::Manual), &[], |p| {
        let data = p.alloc_vec::<u64>(8, HomeAlloc::Interleaved);
        let mut state = 0u64;
        p.run_steps(&mut state, 6, |p, state, step| {
            data.set(p, p.me(), step);
            if step == 2 {
                p.request_checkpoint();
            }
            *state += 1;
            p.barrier();
        });
        state
    });
    assert_eq!(report.results, vec![6, 6, 6]);
    assert_eq!(report.total_ckpts(), 3, "one checkpoint per node");
}

fn check_recovery(n: usize, victim: usize, at_op: u64, policy: CkptPolicy) {
    let clean = run(ft_cfg(n, policy), &[], stepped_app);
    let crashed = run(
        ft_cfg(n, policy),
        &[FailureSpec {
            node: victim,
            at_op,
        }],
        stepped_app,
    );
    assert_eq!(
        clean.results, crashed.results,
        "results diverge after recovery"
    );
    assert_eq!(
        clean.shared_hash, crashed.shared_hash,
        "shared memory diverges after recovery"
    );
    assert_eq!(
        crashed.nodes[victim].ft.recoveries, 1,
        "victim must have recovered"
    );
}

#[test]
fn recovery_of_worker_before_first_checkpoint() {
    // Crash early: restart from scratch, full replay.
    check_recovery(4, 2, 60, CkptPolicy::EverySteps(4));
}

#[test]
fn recovery_of_worker_from_checkpoint() {
    // Crash late enough that checkpoints exist.
    check_recovery(4, 2, 260, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_barrier_manager_node0() {
    check_recovery(4, 0, 200, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_lock_manager() {
    // Lock 3 is managed by node 3 % n; for n = 4 that is node 3.
    check_recovery(4, 3, 230, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_under_log_overflow_policy() {
    check_recovery(4, 1, 300, CkptPolicy::LogOverflow { l: 0.05 });
}

#[test]
fn recovery_with_two_sequential_failures() {
    let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    let crashed = run(
        ft_cfg(4, CkptPolicy::EverySteps(3)),
        &[
            FailureSpec {
                node: 1,
                at_op: 150,
            },
            FailureSpec {
                node: 2,
                at_op: 350,
            },
        ],
        stepped_app,
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[1].ft.recoveries, 1);
    assert_eq!(crashed.nodes[2].ft.recoveries, 1);
}

#[test]
fn checkpoint_window_stays_bounded() {
    let report = run(ft_cfg(4, CkptPolicy::EverySteps(2)), &[], stepped_app);
    let wmax = report.max_ckpt_window();
    assert!(wmax >= 1);
    assert!(
        wmax <= 4,
        "CGC failed to bound the checkpoint window: Wmax = {wmax}"
    );
}

#[test]
fn trimming_discards_logs() {
    let report = run(ft_cfg(4, CkptPolicy::EverySteps(2)), &[], stepped_app);
    let discarded: u64 = report
        .nodes
        .iter()
        .map(|n| n.ft.log_counters.discarded_bytes)
        .sum();
    assert!(discarded > 0, "LLT never discarded anything");
}

#[test]
fn recovery_on_a_two_node_cluster() {
    // n = 2 is the tightest case for the mirrored logs: exactly one peer
    // holds every mirror.
    check_recovery(2, 1, 200, CkptPolicy::EverySteps(3));
    check_recovery(2, 0, 200, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_same_node_twice() {
    let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    let crashed = run(
        ft_cfg(4, CkptPolicy::EverySteps(3)),
        &[
            FailureSpec {
                node: 2,
                at_op: 120,
            },
            FailureSpec {
                node: 2,
                at_op: 320,
            },
        ],
        stepped_app,
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[2].ft.recoveries, 2);
}

#[test]
fn recovery_when_crash_is_near_the_end() {
    // The victim's crash lands in the last steps; replay covers nearly the
    // whole (logged) execution.
    check_recovery(4, 1, 430, CkptPolicy::EverySteps(5));
}

#[test]
fn recovery_with_crash_inside_critical_section() {
    // Ops 4..7 of each step sit between acquire and release; sweep a few
    // in-CS offsets to land inside the lock tenure.
    for at_op in [41, 78, 115] {
        let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
        let crashed = run(
            ft_cfg(4, CkptPolicy::EverySteps(3)),
            &[FailureSpec { node: 2, at_op }],
            stepped_app,
        );
        assert_eq!(clean.results, crashed.results, "at_op {at_op}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "at_op {at_op}");
    }
}

#[test]
fn base_protocol_rejects_failure_injection() {
    let result = std::panic::catch_unwind(|| {
        run(
            ClusterConfig::base(2).with_page_size(256),
            &[FailureSpec { node: 0, at_op: 10 }],
            |p| p.me(),
        )
    });
    assert!(
        result.is_err(),
        "failure injection without FT must be rejected"
    );
}

#[test]
fn at_barrier_policy_aligns_checkpoints_across_nodes() {
    // Every node crosses the same episodes, so AtBarrier(k) gives every
    // node the same checkpoint count without any coordination messages.
    let report = run(ft_cfg(4, CkptPolicy::AtBarrier(4)), &[], stepped_app);
    assert_eq!(report.results, vec![expected_result(4); 4]);
    let counts: Vec<u64> = report.nodes.iter().map(|n| n.ft.ckpts_taken).collect();
    assert!(
        counts.iter().all(|&c| c == counts[0] && c > 0),
        "misaligned: {counts:?}"
    );
}

#[test]
fn recovery_under_at_barrier_policy() {
    check_recovery(4, 2, 260, CkptPolicy::AtBarrier(3));
}

/// Incremental mode with a short anchor cadence: checkpoints at every step
/// so chains of `anchor_every - 1` deltas form between full anchors.
fn inc_cfg(n: usize, anchor_every: u64) -> ClusterConfig {
    ft_cfg(n, CkptPolicy::EverySteps(1)).with_incremental_ckpt(anchor_every)
}

/// A page-sparse workload: 64 pages of shared data but each node writes
/// exactly one page per step, so only a handful of pages are dirty between
/// consecutive checkpoints. (`stepped_app`'s 2-page array would make every
/// delta carry every page, hiding the savings.)
fn sparse_app(p: &mut Process) -> u64 {
    let n = p.nodes();
    // page_size 256 → 32 u64s per page → 64 pages.
    let data = p.alloc_vec::<u64>(64 * 32, HomeAlloc::Interleaved);
    let mut state = 0u64;
    p.run_steps(&mut state, STEPS, |p, state, step| {
        let pg = (step as usize * n + p.me()) % 64;
        let v = data.get(p, pg * 32);
        data.set(p, pg * 32, v + step + 1);
        *state += step;
        p.barrier();
    });
    p.barrier();
    let mut acc = state;
    for pg in 0..64 {
        acc = acc.rotate_left(7) ^ data.get(p, pg * 32);
    }
    acc
}

#[test]
fn incremental_run_matches_full_and_writes_less() {
    let full = run(ft_cfg(4, CkptPolicy::EverySteps(1)), &[], sparse_app);
    let inc = run(inc_cfg(4, 4), &[], sparse_app);
    assert_eq!(full.results, inc.results);
    assert_eq!(full.shared_hash, inc.shared_hash);
    assert_eq!(full.total_ckpts(), inc.total_ckpts());
    let deltas: u64 = inc.nodes.iter().map(|n| n.ft.delta_ckpts).sum();
    assert!(deltas > 0, "short cadence must produce delta checkpoints");
    assert!(
        deltas < inc.total_ckpts(),
        "anchors must still be taken periodically"
    );
    // The whole point: delta blobs carry only dirty pages, so checkpoint
    // disk traffic must shrink versus full-blob-every-time.
    let ckpt_bytes = |r: &ftdsm::RunReport<u64>| -> u64 {
        r.nodes.iter().map(|n| n.ft.store.ckpt_bytes_written).sum()
    };
    assert!(
        ckpt_bytes(&inc) < ckpt_bytes(&full),
        "incremental wrote {} ckpt bytes, full wrote {}",
        ckpt_bytes(&inc),
        ckpt_bytes(&full)
    );
}

#[test]
fn incremental_recovery_mid_chain() {
    // Crash points spread across the execution so restarts land both just
    // after an anchor and deep into a delta chain; each recovery replays
    // anchor + deltas and must be byte-identical to the crash-free run.
    let clean = run(inc_cfg(4, 3), &[], stepped_app);
    for (victim, at_op) in [(1, 60), (3, 150), (0, 230), (2, 300)] {
        let crashed = run(
            inc_cfg(4, 3),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            stepped_app,
        );
        assert_eq!(
            clean.results, crashed.results,
            "results diverge (victim {victim}, op {at_op})"
        );
        assert_eq!(
            clean.shared_hash, crashed.shared_hash,
            "memory diverges (victim {victim}, op {at_op})"
        );
        assert_eq!(
            crashed.nodes[victim].ft.recoveries, 1,
            "crash did not fire (victim {victim}, op {at_op})"
        );
    }
}

#[test]
fn incremental_recovery_of_same_node_twice() {
    // Two sequential crashes: the second restart must rebuild its retained
    // chain index (anchors + deltas) from stable storage alone.
    let clean = run(inc_cfg(3, 3), &[], stepped_app);
    let crashed = run(
        inc_cfg(3, 3),
        &[
            FailureSpec {
                node: 1,
                at_op: 120,
            },
            FailureSpec {
                node: 1,
                at_op: 260,
            },
        ],
        stepped_app,
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[1].ft.recoveries, 2);
}

#[test]
fn anchor_every_one_degenerates_to_full_checkpoints() {
    let report = run(inc_cfg(3, 1), &[], stepped_app);
    assert_eq!(report.results, vec![expected_result(3); 3]);
    let deltas: u64 = report.nodes.iter().map(|n| n.ft.delta_ckpts).sum();
    assert_eq!(deltas, 0, "anchor_every <= 1 must never emit deltas");
}

/// Node 1 takes lock 0 three times in a row while node 0 waits at a
/// barrier. Manager 0 grants the first tenure itself; node 1 is then the
/// chain tail, so manager 0 forwards the next two requests back to node 1,
/// which grants itself. Node 1 crashes right after the second self-grant,
/// having written only a page it homes. No peer holds a grant record or an
/// interval of node 1 for the self-granted tenures; only the manager's
/// record of the newest request proves the first one completed. Replay
/// must take it as a self-grant and go live at the second, which the
/// manager re-forwards, rather than re-request the first, which the
/// manager drops as a stale duplicate.
#[test]
fn recovery_after_trailing_self_grants() {
    let app = |p: &mut Process| -> u64 {
        let c = p.alloc_vec::<u64>(1, HomeAlloc::Node(1));
        if p.me() == 1 {
            for _ in 0..3 {
                p.acquire(0);
                let v = c.get(p, 0);
                c.set(p, 0, v + 1);
                p.release(0);
            }
        }
        p.barrier();
        p.acquire(0);
        let v = c.get(p, 0);
        c.set(p, 0, v + 1);
        p.release(0);
        p.barrier();
        c.get(p, 0)
    };
    let clean = run(ft_cfg(2, CkptPolicy::Never), &[], app);
    assert_eq!(clean.results, vec![5, 5]);
    // Node 1's ops: alloc, then (acquire, get, set, release) per tenure;
    // op 11 is the read right after the third acquire.
    let crashed = run(
        ft_cfg(2, CkptPolicy::Never),
        &[FailureSpec { node: 1, at_op: 11 }],
        app,
    );
    assert_eq!(crashed.nodes[1].ft.recoveries, 1, "crash did not fire");
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
}
