//! Cluster construction and the run loop.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_member::{Detector, MemberConfig, PeerState};
use dsm_metrics::Registry;
use dsm_net::Fabric;
use dsm_page::VectorClock;
use dsm_storage::StableStore;
use dsm_trace::{EventKind, EventSink, Histogram, Trace, TraceConfig};
use hlrc::barrier::BarrierManager;
use hlrc::{LockManagerTable, PageTable, WnTable};
use parking_lot::{Condvar, Mutex};

use crate::config::{ClusterConfig, FailureSpec};
use crate::ft::FtState;
use crate::monitor::Monitor;
use crate::msg::Msg;
use crate::runtime::node::{
    apply_member_actions, retransmit_stale_diffs, service_loop, CrashSignal, MemberRuntime, Mode,
    NodeShared, NodeState, SyncState, WaitSlot,
};
use crate::runtime::process::Process;
use crate::stats::{NodeReport, RunReport};

/// Keep a crashed node `victim` down until some peer's failure detector has
/// confirmed it Down, so the failure is observed from its silence alone.
/// Panics with every peer's view if that takes far longer than the
/// detection bound: a peer's detector or ticker is stuck.
fn wait_until_seen_down(members: &[Arc<MemberRuntime>], victim: usize, cfg: &MemberConfig) {
    let limit = (cfg.detection_bound() * 100).max(Duration::from_secs(10));
    let t0 = Instant::now();
    loop {
        let views: Vec<(usize, PeerState)> = (0..members.len())
            .filter(|&p| p != victim)
            .map(|p| (p, members[p].det.lock().peer_state(victim)))
            .collect();
        if views.iter().any(|&(_, s)| s == PeerState::Down) {
            return;
        }
        assert!(
            t0.elapsed() < limit,
            "node {victim} crashed, but no peer confirmed it down within {limit:?} \
             (detection bound {:?}); (peer, view of node {victim}): {views:?}",
            cfg.detection_bound()
        );
        std::thread::sleep(cfg.heartbeat_every);
    }
}

/// Keep injected fail-stop crashes (which are implemented as panics with a
/// [`CrashSignal`] payload) out of stderr; real panics still print, followed
/// by the flight-recorder tail of any trace-enabled run in the process.
fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashSignal>() {
                return;
            }
            default(info);
            dsm_trace::dump_flight_recorders("panic");
            dsm_metrics::dump_on_panic();
        }));
    });
}

/// Sample the cluster's live counters into the registry and snapshot it.
/// Never blocks on a contended lock — the sampler must not perturb the run
/// (a skipped node is re-sampled next period).
fn sample_metrics(
    reg: &Registry,
    fabric: &Fabric<Msg>,
    shareds: &[Arc<NodeShared>],
) -> dsm_metrics::Snapshot {
    let t = fabric.stats().total();
    reg.counter("fabric_msgs_sent_total").store(t.msgs_sent);
    reg.counter("fabric_base_bytes_sent_total")
        .store(t.base_bytes_sent);
    reg.counter("fabric_ft_bytes_sent_total")
        .store(t.ft_bytes_sent);
    reg.counter("fabric_msgs_dropped_total")
        .store(t.msgs_dropped);
    reg.counter("fabric_chaos_dropped_total")
        .store(t.chaos_dropped);
    reg.counter("fabric_chaos_delayed_total")
        .store(t.chaos_delayed);
    reg.counter("fabric_chaos_duplicated_total")
        .store(t.chaos_duplicated);
    reg.counter("fabric_partition_blocked_total")
        .store(t.partition_blocked);
    for s in shareds {
        if let Some(st) = s.state.try_lock() {
            let me = st.me;
            reg.gauge(&format!("node_recoveries{{node=\"{me}\"}}"))
                .set(st.recoveries as i64);
            reg.gauge(&format!("node_retransmits{{node=\"{me}\"}}"))
                .set(st.retransmits as i64);
            reg.gauge(&format!("node_dup_suppressed{{node=\"{me}\"}}"))
                .set(st.dup_suppressed as i64);
            reg.gauge(&format!("node_diff_outbox_depth{{node=\"{me}\"}}"))
                .set(st.diff_outbox.iter().map(VecDeque::len).sum::<usize>() as i64);
            let pool = st.pt.pool_stats();
            reg.counter(&format!("pool_hits_total{{node=\"{me}\"}}"))
                .store(pool.hits);
            reg.counter(&format!("pool_misses_total{{node=\"{me}\"}}"))
                .store(pool.misses);
            reg.counter(&format!("pool_recycled_total{{node=\"{me}\"}}"))
                .store(pool.recycled);
            if let Some(ft) = &st.ft {
                reg.counter(&format!("ckpts_taken_total{{node=\"{me}\"}}"))
                    .store(ft.report.ckpts_taken);
                reg.counter(&format!("ckpts_delta_total{{node=\"{me}\"}}"))
                    .store(ft.report.delta_ckpts);
            }
            reg.gauge(&format!("release_flush_p50_ns{{node=\"{me}\"}}"))
                .set(st.hists.release_flush.quantile(0.5) as i64);
            reg.gauge(&format!("barrier_release_build_p50_ns{{node=\"{me}\"}}"))
                .set(st.hists.barrier_release_build.quantile(0.5) as i64);
            reg.gauge(&format!("ckpt_delta_pages_p50{{node=\"{me}\"}}"))
                .set(st.hists.ckpt_delta_pages.quantile(0.5) as i64);
            if let Some(mr) = &st.member {
                if let Some(det) = mr.det.try_lock() {
                    let ms = det.stats();
                    reg.counter(&format!("member_suspicions_total{{node=\"{me}\"}}"))
                        .store(ms.suspicions);
                    reg.counter(&format!("member_down_events_total{{node=\"{me}\"}}"))
                        .store(ms.down_events);
                    reg.counter(&format!("member_up_events_total{{node=\"{me}\"}}"))
                        .store(ms.up_events);
                    reg.counter(&format!("member_pings_sent_total{{node=\"{me}\"}}"))
                        .store(ms.pings_sent);
                }
            }
        }
    }
    reg.snapshot()
}

/// Run an SPMD application on a simulated cluster.
///
/// `app` is invoked once per node with that node's [`Process`] handle (and
/// re-invoked after a scripted crash, with recovery and replay handled by
/// the runtime). Returns the per-node results plus all statistics.
pub fn run<R, F>(config: ClusterConfig, failures: &[FailureSpec], app: F) -> RunReport<R>
where
    F: Fn(&mut Process) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    install_crash_hook();
    let n = config.nodes;
    assert!(n >= 2, "a DSM cluster needs at least two nodes");
    if !failures.is_empty() {
        assert!(
            config.ft_enabled(),
            "failure injection requires fault tolerance"
        );
    }

    // The monitor is an event sink: it needs the stream, so it forces
    // tracing on even if the config left it off.
    let trace_cfg = if config.monitor && !config.trace.enabled {
        TraceConfig::enabled()
    } else {
        config.trace.clone()
    };
    let trace = Trace::new(n, &trace_cfg);
    if trace.is_enabled() {
        trace.register_flight_recorder();
    }
    let monitor: Option<Arc<Monitor>> = config.monitor.then(|| Arc::new(Monitor::new(n)));
    if let Some(m) = &monitor {
        trace.set_sink(Some(Arc::clone(m) as Arc<dyn EventSink>));
    }
    let metrics_registry = Registry::new();
    metrics_registry.register_flight_recorder();
    let inject_stale_apply = config
        .inject_stale_apply
        .then(|| Arc::new(AtomicBool::new(true)));
    // Chaos auto-enables membership: the heartbeat/retry layer is what makes
    // a lossy fabric survivable.
    let membership: Option<MemberConfig> = config
        .membership
        .clone()
        .or_else(|| config.chaos.as_ref().map(|_| MemberConfig::default()));
    let (fabric, endpoints) = Fabric::<Msg>::new(n);
    if let Some(plan) = &config.chaos {
        // One knob reproduces a run: the cluster seed replaces whatever the
        // plan was built with.
        let mut plan = plan.clone();
        plan.seed = config.seed;
        fabric.set_fault_plan(&plan);
    }
    let mut shareds: Vec<Arc<NodeShared>> = Vec::with_capacity(n);
    for (i, mut ep) in endpoints.into_iter().enumerate() {
        ep.attach_tracer(trace.tracer(i));
        let store = Arc::new(StableStore::new(config.disk));
        let mut crash_queue: Vec<u64> = failures
            .iter()
            .filter(|f| f.node == i)
            .map(|f| f.at_op)
            .collect();
        crash_queue.sort_unstable();
        let state = NodeState {
            me: i,
            n,
            page_size: config.page_size,
            mode: Mode::Normal,
            mode_flag: Arc::new(AtomicU8::new(Mode::Normal.flag())),
            pt: PageTable::new(i, n, config.page_size),
            vt: VectorClock::zero(n),
            wn_table: WnTable::new(),
            sync: Arc::new(Mutex::new(SyncState {
                lock_mgr: LockManagerTable::new(i),
                bar_mgr: (i == 0).then(|| BarrierManager::new(n)),
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
            ft: config
                .ft
                .clone()
                .map(|cfg| FtState::new(i, n, cfg, Arc::clone(&store))),
            replay: None,
            svc_time_by_kind: HashMap::new(),
            shutdown: false,
            ops: 0,
            crash_queue,
            recoveries: 0,
            ep: Arc::new(ep),
            member: membership.as_ref().map(|cfg| {
                Arc::new(MemberRuntime {
                    det: Mutex::new(Detector::new(i, n, cfg.clone(), Instant::now())),
                    rtt: Mutex::new(Histogram::new()),
                    susp: Mutex::new(Histogram::new()),
                })
            }),
            retry_after: membership.as_ref().map(|cfg| cfg.retry_after),
            retransmits: 0,
            dup_suppressed: 0,
            diff_outbox: (0..n).map(|_| VecDeque::new()).collect(),
            diff_inflight: vec![None; n],
            diff_seq_next: 0,
            own_diff_seq: HashMap::new(),
            breakdown_acc: Default::default(),
            tracer: trace.tracer(i),
            hists: Default::default(),
            cur_flow: 0,
            inject_stale_apply: inject_stale_apply.clone(),
        };
        shareds.push(Arc::new(NodeShared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            me: i,
            n,
        }));
    }

    let service_handles: Vec<_> = shareds
        .iter()
        .map(|s| {
            let s = Arc::clone(s);
            std::thread::Builder::new()
                .name(format!("dsm-svc-{}", s.me))
                .spawn(move || service_loop(s))
                .expect("spawn service thread")
        })
        .collect();

    // One heartbeat ticker per node: drives the failure detector's timers
    // and the diff-outbox retransmission scan. Tickers run until explicitly
    // stopped (heartbeats never quiesce, so they must die before the
    // traffic-quiesce loop below can converge).
    let ticker_stop = Arc::new(AtomicBool::new(false));
    let ticker_handles: Vec<_> = match &membership {
        None => Vec::new(),
        Some(cfg) => shareds
            .iter()
            .map(|s| {
                let shared = Arc::clone(s);
                let stop = Arc::clone(&ticker_stop);
                let every = cfg.heartbeat_every;
                std::thread::Builder::new()
                    .name(format!("dsm-hb-{}", s.me))
                    .spawn(move || {
                        let (mr, ep, tracer, mode_flag) = {
                            let st = shared.state.lock();
                            (
                                st.member.clone().expect("ticker without member runtime"),
                                Arc::clone(&st.ep),
                                st.tracer.clone(),
                                Arc::clone(&st.mode_flag),
                            )
                        };
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(every);
                            // A crashed node is silent: no heartbeats, no
                            // retransmissions — that silence is exactly what
                            // the peers' detectors pick up.
                            if mode_flag.load(Ordering::SeqCst) == Mode::Crashed.flag() {
                                continue;
                            }
                            let actions = mr.det.lock().tick(Instant::now());
                            apply_member_actions(&shared, &ep, &tracer, &mr, actions);
                            // Retransmit stale in-flight diff batches. Skip
                            // when the big lock is busy — the app thread owns
                            // it while computing; the next tick retries.
                            if let Some(mut st) = shared.state.try_lock() {
                                if st.mode != Mode::Crashed {
                                    retransmit_stale_diffs(&mut st);
                                }
                            }
                        }
                    })
                    .expect("spawn heartbeat ticker")
            })
            .collect(),
    };

    // Periodic metrics sampler: one thread, snapshots every `every` into an
    // in-memory series (and a JSONL file when configured). A final snapshot
    // is always taken at teardown, so even a short run reports metrics.
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_series = Arc::new(Mutex::new(dsm_metrics::TimeSeries::new()));
    let metrics_handle = config.metrics.clone().map(|mcfg| {
        let reg = metrics_registry.clone();
        let fabric = fabric.clone();
        let shareds = shareds.clone();
        let stop = Arc::clone(&metrics_stop);
        let series = Arc::clone(&metrics_series);
        std::thread::Builder::new()
            .name("dsm-metrics".into())
            .spawn(move || {
                use std::io::Write;
                let mut out = mcfg.out.as_ref().and_then(|p| {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(p)
                        .ok()
                });
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(mcfg.every);
                    let snap = sample_metrics(&reg, &fabric, &shareds);
                    if let Some(f) = out.as_mut() {
                        let _ = writeln!(f, "{}", snap.to_jsonl());
                    }
                    series.lock().push(snap);
                }
            })
            .expect("spawn metrics sampler")
    });

    // Every node's membership runtime (empty with membership off), for a
    // crashed node to wait on its peers' detectors.
    let members: Arc<Vec<Arc<MemberRuntime>>> = Arc::new(
        shareds
            .iter()
            .filter_map(|s| s.state.lock().member.clone())
            .collect(),
    );
    let app = Arc::new(app);
    let active_recoveries = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let app_handles: Vec<_> = (0..n)
        .map(|i| {
            let shared = Arc::clone(&shareds[i]);
            let app = Arc::clone(&app);
            let fabric = fabric.clone();
            let active = Arc::clone(&active_recoveries);
            let membership = membership.clone();
            let members = Arc::clone(&members);
            std::thread::Builder::new()
                .name(format!("dsm-app-{i}"))
                .spawn(move || {
                    let mut recovering = false;
                    loop {
                        let mut proc = Process::new(Arc::clone(&shared), recovering);
                        if recovering {
                            proc.recover();
                            active.fetch_sub(1, Ordering::SeqCst);
                        }
                        let res = catch_unwind(AssertUnwindSafe(|| app(&mut proc)));
                        match res {
                            Ok(v) => {
                                proc.finish();
                                return v;
                            }
                            Err(p) if p.is::<CrashSignal>() => {
                                proc.abandon();
                                let prev = active.fetch_add(1, Ordering::SeqCst);
                                assert_eq!(
                                    prev, 0,
                                    "overlapping failures violate the single-fault model"
                                );
                                // Fail-stop: drop protocol state visibility,
                                // lose queued input.
                                {
                                    let mut st = shared.state.lock();
                                    st.set_mode(Mode::Crashed);
                                    st.wait = WaitSlot::None;
                                    st.replay = None;
                                    st.prefetch.clear();
                                    // Fail-stop loses the volatile diff
                                    // outbox with everything else; replay
                                    // regenerates the diffs under new seqs.
                                    for q in st.diff_outbox.iter_mut() {
                                        q.clear();
                                    }
                                    for s in st.diff_inflight.iter_mut() {
                                        *s = None;
                                    }
                                    st.own_diff_seq.clear();
                                    // Fence the home/sync handlers: after
                                    // the mode flag flips, drain the sync
                                    // and shard locks so no handler op
                                    // started before the flip is still in
                                    // flight, then drop parked fetches
                                    // (requesters retransmit on NodeUp).
                                    drop(st.sync.lock());
                                    let home = st.pt.home_store();
                                    home.quiesce();
                                    home.clear_waiting();
                                    // Traced only now: every diff apply
                                    // that passed its liveness check has
                                    // emitted its event under a shard lock
                                    // the fence just drained, so none lands
                                    // after the crash that discards it.
                                    st.tracer.emit(EventKind::CrashInjected { at_op: st.ops });
                                }
                                fabric.crash(i);
                                {
                                    let st = shared.state.lock();
                                    st.ep.drain();
                                }
                                // Stay dead long enough for the failure to
                                // be observable. With membership on, that
                                // means until a peer has confirmed us down:
                                // peers must notice the silence themselves,
                                // no orchestrated hint ever reaches them.
                                match &membership {
                                    Some(cfg) => wait_until_seen_down(&members, i, cfg),
                                    None => std::thread::sleep(Duration::from_millis(10)),
                                }
                                {
                                    let mut st = shared.state.lock();
                                    // New incarnation before the ticker sees
                                    // Recovering: the next heartbeat already
                                    // carries the bumped number, which is how
                                    // peers learn we are back.
                                    if let Some(mr) = &st.member {
                                        mr.det.lock().begin_new_incarnation(Instant::now());
                                    }
                                    st.set_mode(Mode::Recovering);
                                    st.backlog.clear();
                                    st.rec_inbox.clear();
                                    st.pending_unalloc.clear();
                                }
                                if membership.is_some() {
                                    // Peers discover the restart from the
                                    // incarnation bump in our heartbeats and
                                    // retransmit on their own Up event.
                                    fabric.restart_silent(i);
                                } else {
                                    fabric.restart(i);
                                }
                                recovering = true;
                            }
                            Err(p) => resume_unwind(p),
                        }
                    }
                })
                .expect("spawn app thread")
        })
        .collect();

    let results: Vec<R> = app_handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        })
        .collect();
    let wall = t0.elapsed();

    // With the retry layer on, the final diff flushes may still be waiting
    // for acks under loss; keep the tickers retransmitting until every
    // outbox drains (ack received ⇒ the home applied the batch).
    if membership.is_some() {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let drained = shareds.iter().all(|s| {
                let st = s.state.lock();
                st.diff_inflight.iter().all(Option::is_none)
                    && st.diff_outbox.iter().all(VecDeque::is_empty)
            });
            if drained {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "diff outboxes failed to drain (FTDSM_SEED={:#x})",
                config.seed
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Stop the heartbeat tickers before watching traffic quiesce —
    // heartbeats never go quiet on their own.
    ticker_stop.store(true, Ordering::SeqCst);
    for h in ticker_handles {
        let _ = h.join();
    }

    // Let in-flight protocol traffic (final diff flushes) quiesce.
    let mut last = fabric.stats().total().msgs_sent;
    let mut quiet = 0;
    while quiet < 3 {
        std::thread::sleep(Duration::from_millis(25));
        let now = fabric.stats().total().msgs_sent;
        if now == last {
            quiet += 1;
        } else {
            quiet = 0;
            last = now;
        }
    }

    // Stop the service threads before collecting reports: the service loop
    // folds its per-kind timing and histograms into the node state only at
    // exit.
    for s in shareds.iter() {
        let mut st = s.state.lock();
        st.shutdown = true;
        st.ep.wake();
    }
    for h in service_handles {
        let _ = h.join();
    }

    // Stop the metrics sampler and take the closing snapshot.
    metrics_stop.store(true, Ordering::SeqCst);
    if let Some(h) = metrics_handle {
        let _ = h.join();
    }
    let final_snap = sample_metrics(&metrics_registry, &fabric, &shareds);
    let mut metrics = metrics_series.lock().clone();
    if let Some(mcfg) = &config.metrics {
        if let Some(path) = &mcfg.out {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", final_snap.to_jsonl());
            }
            // Final state in Prometheus exposition format next to the JSONL.
            let _ = std::fs::write(path.with_extension("prom"), final_snap.to_prometheus());
        }
    }
    metrics.push(final_snap);

    // The monitor's verdict: fail the run loudly on the first violation,
    // with the offending causal flow stitched from the trace.
    let monitor_report = monitor.as_ref().map(|m| {
        trace.set_sink(None);
        let rep = m.finish();
        if let Some(v) = rep.violations.first() {
            let mut msg = format!(
                "protocol invariant violated: {v}\n  (FTDSM_SEED={:#x}, {} violations total)\n",
                config.seed,
                rep.violations.len()
            );
            let flow = trace.events_for_flow(v.flow);
            if !flow.is_empty() {
                msg.push_str("  causal flow:\n");
                for e in &flow {
                    msg.push_str(&format!("    {e}\n"));
                }
            }
            panic!("{msg}");
        }
        rep
    });

    // Collect reports and compute the final shared-memory hash from the
    // authoritative home copies.
    let mut nodes = Vec::with_capacity(n);
    let mut shared_bytes = 0;
    let total_pages = shareds[0].state.lock().pt.len();
    let mut hash: u64 = 0xcbf29ce484222325;
    let debug_pages = std::env::var_os("FTDSM_DEBUG_PAGES").is_some();
    for p in 0..total_pages {
        let page = dsm_page::PageId(p as u32);
        let home = shareds[0].state.lock().pt.home_of(page);
        let st = shareds[home].state.lock();
        let (version, bytes) = st.pt.home_snapshot(page);
        let mut ph: u64 = 0xcbf29ce484222325;
        for &b in bytes.iter() {
            ph ^= b as u64;
            ph = ph.wrapping_mul(0x100000001b3);
        }
        if debug_pages {
            let words: Vec<u64> = bytes[..64]
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            eprintln!("[dump] page {page} home {home} v={version} hash {ph:016x} words {words:?}");
        }
        hash ^= ph;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    for (i, s) in shareds.iter().enumerate() {
        let mut st = s.state.lock();
        shared_bytes = shared_bytes.max(st.shared_bytes);
        // Fold the member layer's off-big-lock samples and counters in.
        let member = match st.member.clone() {
            Some(mr) => {
                st.hists.heartbeat_rtt.merge(&mr.rtt.lock());
                st.hists.suspicion_latency.merge(&mr.susp.lock());
                mr.det.lock().stats()
            }
            None => Default::default(),
        };
        let mut breakdown = st.breakdown_acc;
        breakdown.protocol += st.svc_time_by_kind.values().sum::<Duration>();
        let ft = match st.ft.as_mut() {
            Some(ft) => {
                ft.report.log_counters = ft.logs.counters();
                ft.report.store = ft.store.stats();
                ft.report.clone()
            }
            None => Default::default(),
        };
        let mut svc_time_by_kind: Vec<_> =
            st.svc_time_by_kind.iter().map(|(&k, &d)| (k, d)).collect();
        svc_time_by_kind.sort_unstable_by_key(|&(k, _)| k);
        nodes.push(NodeReport {
            breakdown,
            traffic: fabric.stats().node(i).snapshot(),
            ft,
            ops: st.ops,
            hists: st.hists.clone(),
            pool: st.pt.pool_stats(),
            svc_time_by_kind,
            msg_kinds: fabric.stats().node(i).kind_counts(),
            member,
            retransmits: st.retransmits,
            dup_suppressed: st.dup_suppressed,
        });
    }

    RunReport {
        results,
        nodes,
        wall,
        shared_bytes,
        shared_hash: hash,
        trace,
        phases: fabric.stats().total_phases(),
        metrics,
        monitor: monitor_report,
    }
}
